"""Global configuration objects shared by the engine and the platform.

The configuration is deliberately a plain, explicit dataclass: every knob a
user can turn is a named field with a default, mirroring the style of
``SparkConf`` but without string-keyed magic.

Each field is declared once, with :func:`knob`: its default, its value
check, whether a campaign spec may set it (and under which deployment
preference key), and whether the deployment model surfaces it as an
optimizer hint.  :data:`ENGINE_KNOBS` is that declaration read back as a
table, built once at import; validation, the deployment compiler's
preference mapping, ``DeploymentModel.optimizer_hints`` and the type checks
on preferences are all derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import partial
from operator import le
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union

from .errors import ConfigurationError


#: What a deployment preference may be: its accepted types.
Kind = Tuple[type, ...]

#: Preference kinds, keyed by field annotation.  A float field also takes an
#: int; a path is a string; the names in a list are checked by the field.
KINDS: Dict[str, Kind] = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
    "Optional[str]": (str,),
    "Tuple[str, ...]": (list, tuple),
    "Tuple[Tuple[str, float], ...]": (dict, list, tuple),
}


def accepts(kind: Kind, value: Any) -> bool:
    """Whether ``value`` is of ``kind``; a bool is never a number."""
    if isinstance(value, bool):
        return bool in kind
    return isinstance(value, kind)


#: A field's value rule: ``(test(value) -> bool, the rule in words)``.
Check = Tuple[Callable[[Any], bool], str]


def at_least(bound: int) -> Check:
    """The value is at least ``bound``."""
    return partial(le, bound), f">= {bound}"


def one_of(*names: str) -> Check:
    """The value is one of a fixed set of names."""
    return names.__contains__, "one of " + ", ".join(map(repr, names))


RATE: Check = (lambda value: 0.0 <= value < 1.0, "in [0, 1)")


class Knob(NamedTuple):
    """One configuration field, as every other layer sees it."""

    name: str
    kind: Kind
    check: Optional[Check]
    #: Deployment preference key a campaign spec sets it with, if any.
    preference: Optional[str]
    #: Whether ``DeploymentModel.optimizer_hints`` surfaces it.
    hint: bool


def knob(default: Any, check: Optional[Check] = None, *,
         spec: Union[bool, str] = False, hint: bool = False) -> Any:
    """Declare a configuration field.

    ``spec=True`` lets a campaign's ``deployment`` preferences set the field
    under its own name, a string under that key instead.
    """
    return field(default=default,
                 metadata={"check": check, "spec": spec, "hint": hint})


def _table(cls: type) -> Tuple[Knob, ...]:
    """The knob declarations of a configuration dataclass, in field order."""
    return tuple(
        Knob(item.name, KINDS[item.type], item.metadata["check"],
             item.name if item.metadata["spec"] is True
             else item.metadata["spec"] or None, item.metadata["hint"])
        for item in fields(cls) if item.metadata)


def knob_checks(cls: type) -> Tuple[Tuple[str, Check], ...]:
    """``(name, check)`` of every checked field of a knob dataclass."""
    return tuple((item.name, item.check) for item in _table(cls) if item.check)


def validate(values: Dict[str, Any], checks: Tuple[Tuple[str, Check], ...],
             label: str = "{}") -> None:
    """Apply every check to ``values`` by name; a value of the wrong type
    fails it too.  ``label`` formats the name in the error."""
    for name, (test, rule) in checks:
        value = values[name]
        try:
            if test(value):
                continue
        except (TypeError, ValueError):
            pass
        raise ConfigurationError(
            f"{label.format(name)} must be {rule}, got {value!r}")


#: Connect/read timeout, in seconds, of one TCP shuffle fetch attempt.
FETCH_TIMEOUT_S = 5.0

#: Rewrite rules of the logical-plan optimizer, in application order: the
#: names of the rows of :data:`repro.engine.optimizer.RULES`, which fails at
#: import unless it lists exactly these.  ``EngineConfig.optimizer_rules``
#: may hold any subset; an empty tuple disables the optimizer entirely and
#: actions execute the plan the Dataset API recorded, verbatim.
KNOWN_OPTIMIZER_RULES: Tuple[str, ...] = (
    "cache_prune", "pushdown", "shuffle_elim", "map_side_combine",
    "fuse_narrow", "broadcast_join", "coalesce_shuffle",
    "split_skewed_shuffle")


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of the local dataflow engine.

    Attributes
    ----------
    num_workers:
        Number of worker threads used by the executor.  ``1`` gives fully
        deterministic, sequential execution which is useful in tests.
    default_parallelism:
        Default number of partitions for datasets created without an explicit
        partition count.
    max_task_retries:
        How many times a failed task is retried before the job is aborted.
    memory_budget_bytes:
        Budget of the in-memory cache, in resident bytes (sampled
        ``sys.getsizeof`` of the cached records, not their pickled size).
        When exceeded the least recently used cached partitions are evicted.
    spill_codec:
        Which frame codec compresses spill and transport payloads — shuffle
        bucket spills, reduce-side external-merge runs and process-backend
        transport frames: ``"auto"`` (the default) prefers ``lz4`` when the
        optional package is importable and falls back to the stdlib
        ``zlib``; ``"zlib"`` and ``"lz4"`` force a specific codec, and
        ``"none"`` writes frames uncompressed.  Shuffle byte accounting
        scales its estimates by the codec's *measured* compression ratio
        (``"none"`` reports uncompressed sizes).  Results are never
        affected, only on-disk bytes and the reported byte metrics.  Frames
        are self-describing (each carries its codec in a header), so
        readers never consult this setting.
    failure_rate:
        Probability that any task fails spuriously; used by tests and by the
        fault-injection benchmarks.  ``0.0`` disables fault injection.  The
        decision is seeded per ``(seed, task id, attempt)``, so a given
        attempt fails identically on both executor backends and retried
        attempts draw fresh decisions.
    faults:
        The fail points armed for tests and the fault-injection
        benchmarks, as a mapping of point to value (stored as sorted
        pairs); each point is declared in
        :data:`repro.engine.retry.FAULTS`, and every decision is one seeded
        draw of ``retry.Faults``.  ``crash``: probability that a task
        *crashes its worker* instead of failing cleanly, per ``(seed, task
        id, attempt)`` — a worker process hard-exits after computing,
        breaking the pool (respawned, its unfinished tasks resubmitted,
        bounded by ``max_stage_retries``); a thread raises an injected
        crash that the attempt budget retries.  ``corrupt``: probability
        that a written spill or transport frame payload (or a shuffle
        server reply) is truncated or bit-flipped; the frame CRCs catch it
        and the lost map partitions are recomputed from lineage.  Only
        frames actually written are eligible: transport frames, and bucket
        spill frames under a bounded ``shuffle_memory_bytes``.  ``drop``:
        probability that the shuffle server closes a fetch without
        replying, per ``(request, attempt)``.  ``delay``: seconds the
        shuffle server sleeps before each reply, below
        :data:`FETCH_TIMEOUT_S`.  Every rate is in ``[0, 1)``; an unknown
        point is an error.  Empty (the default) injects nothing.
    task_timeout_s:
        Driver-side deadline, in seconds, on settling each task attempt.
        An attempt whose result does not arrive in time is counted in
        ``timed_out_tasks``, retried on a fresh submission (bounded by
        ``max_task_retries``, the same budget failures draw on), and its
        late result is discarded.  The abandoned attempt keeps running: a
        worker process's map output is never registered, a thread's may
        still be written, replacing the winner's identical output.  ``0``
        (the default) disables deadlines.
    max_stage_retries:
        The stage ledger's budget (``retry.policy(config, "stage")``): how
        many times each of the stage-level recoveries may run for one
        stage before the job is aborted.  The scheduler may heal lost map
        output and rerun a stage this many times; each of those runs may
        respawn a broken process pool and resubmit its unfinished tasks
        this many times.  Every such rerun counts in ``stage_retries``.  A
        checkpoint span that fails its checks is lost output like any
        other and is charged here.  ``0`` disables stage-level recovery:
        the first lost output — a rotten checkpoint span included — or
        crashed pool fails the job.
    seed:
        Seed for the engine's own random decisions (fault injection,
        sampling of shuffle sizes).
    optimizer_rules:
        Which logical-plan rewrite rules are enabled (see
        :data:`KNOWN_OPTIMIZER_RULES`).  An empty tuple disables plan
        optimization; benchmarks toggle individual rules to A/B them.
    broadcast_threshold_bytes:
        Joins whose build side is estimated below this size are lowered to a
        broadcast hash join instead of a shuffle cogroup (``broadcast_join``
        rule): the build side is written once as a one-bucket shuffle that
        every stream task reads whole, and the stream side is never
        shuffled.  ``0`` disables broadcast join selection entirely.
    target_partition_bytes:
        Target post-shuffle partition size for the ``coalesce_shuffle`` rule:
        when a shuffle's estimated output, divided by its partition count,
        falls below this target, the reduce partition count is shrunk.
        ``0`` (the default) disables shuffle coalescing.
    adaptive_enabled:
        Re-run the cost-based optimizer rules between shuffle-map stages,
        feeding actual map-output sizes back into the plan so mis-estimated
        joins still switch to broadcast (shuffles coalesce, and skewed
        reduce partitions split) at runtime.
    skew_split_factor:
        Maximum number of map-output slices a skewed reduce partition is
        fanned out into by the ``split_skewed_shuffle`` rule — the runtime
        counterpart of ``coalesce_shuffle``: where coalescing shrinks many
        small partitions, splitting fans one fat partition out over
        disjoint map-output slices.  Each slice is folded by its own map
        task of a one-bucket slice shuffle, and the task that reads the
        partition merges the stored partials.  Splits only ever fall
        between map slices (never inside one map task's combined output for
        a key), and the partials are re-merged with the operator's merge,
        so results are identical to the unsplit plan.  ``0`` or ``1``
        disables skew splitting entirely.
    skew_min_partition_bytes:
        A reduce partition is only considered skewed when its actual
        map-output bytes reach this floor *and* exceed twice the median
        partition size of its shuffle.  The default keeps the rule out of
        small local jobs where a straggler costs microseconds; benchmarks
        and deployments lower it to exercise splitting on modest data.
    batch_size:
        Maximum number of records per batch.  Every operator computes a
        partition as batches (``Dataset.compute_batches``) and processes
        whole record lists per call; results and record/byte metrics do not
        depend on the batch size, only ``batches_processed`` does.  Must be
        ``>= 1``.
    shuffle_memory_bytes:
        Budget for memory-bounded execution: the total estimated bytes the
        engine may keep resident for shuffle map-output buckets and
        reduce-side merge partials.  When the budget is exceeded, the
        shuffle manager spills cold buckets to per-context spill files and
        the wide operators (aggregate/group/distinct/sort/cogroup) switch
        to an external merge that folds bounded in-memory runs, spills
        them, and streams a k-way merge — results, order and shuffle
        metrics stay identical to the resident path; only the ``spills`` /
        ``spill_bytes`` counters and wall-clock differ.  ``0`` (the
        default) keeps execution fully resident and behaviour unchanged.
    shuffle_transport:
        How reduce-side reads reach shuffle map output.  ``"local"`` (the
        default) reads frame files directly from the shared filesystem.
        ``"tcp"`` starts a per-context shuffle server
        (:class:`~repro.engine.shuffle_server.ShuffleServer`) and routes
        every external-span read through a length-prefixed TCP protocol —
        the networked shuffle plane a multi-node deployment would use.
        Map output is written through the transport on *both* executor
        backends under ``"tcp"``, so results, order and all non-timing
        metrics are transport-invariant (under a bounded
        ``shuffle_memory_bytes`` only the bucket-spill counters differ:
        transport-backed buckets live on disk and never need spilling).
    fetch_max_retries:
        Bounded retries of one shuffle fetch before the client escalates to
        :class:`~repro.errors.FetchFailedError` and stage-level lineage
        recovery takes over as the second line of defense.  Retried on
        connection errors, timeouts, dropped responses and per-frame CRC
        failures; each retry draws fresh seeded network-chaos decisions.
        ``0`` escalates on the first failure.
    fetch_backoff_s:
        Base delay of the fetch client's seeded exponential backoff: retry
        ``n`` sleeps ``fetch_backoff_s * 2**n`` (capped, with deterministic
        ±50% jitter keyed on the engine seed and fetch coordinates).  ``0``
        retries immediately.
    heartbeat_interval_s:
        Interval at which process-backend workers write heartbeat files
        under the transport root for the driver's
        :class:`~repro.engine.scheduler.NodeHealthTracker` to check
        between stages.  ``0`` (the default) disables heartbeats.
    heartbeat_timeout_s:
        Age beyond which a live pool worker's heartbeat file counts as
        stale and the worker is blacklisted directly — the timeout already
        encodes several missed beats, independent of
        ``blacklist_failure_threshold``.  The beat files of a discarded
        pool's workers never count.  ``0`` (the default) derives
        ``4 * heartbeat_interval_s``.
    blacklist_failure_threshold:
        Consecutive strikes against a worker process (its task errors, or
        lost map output it produced; successes reset the count) after
        which it is blacklisted: its pool is recycled at the next stage
        boundary so no further tasks schedule onto it, its registered map
        outputs are invalidated and proactively recomputed from lineage,
        and the job's ``blacklisted_workers`` counter ticks.  Only a
        worker process's pid takes strikes: map output registered by the
        driver or adopted from the journal never does.  ``0`` (the
        default) disables blacklisting.
    blacklist_cooldown_s:
        Rehabilitation window for blacklisted workers: a worker stays
        blacklisted for this many seconds and is then eligible again with
        its strike count reset — a transient stall (GC pause, brief disk
        contention) no longer shrinks the pool permanently.  A
        rehabilitated worker that keeps failing re-earns its blacklisting
        through the ordinary ``blacklist_failure_threshold`` ladder.  ``0``
        (the default) keeps the pre-cooldown behaviour: blacklisting is
        forever.
    checkpoint_dir:
        Durable directory for the recovery layer: the write-ahead job
        journal (``engine/journal.py``, one appended line per record) and
        the durable spans of journalled shuffles and checkpoints are
        written and fsynced here, and — when set — shuffle transport
        frames are rooted here instead of the per-context temporary spill
        directory, so settled map-output spans survive a driver crash.  The directory is created on demand and is
        *not* removed by ``EngineContext.stop()``; it is the handle a later
        ``recover_from=`` resume replays.  ``None`` (the default) disables
        journaling and checkpointing entirely.
    checkpoint_interval:
        Automatic checkpoint cadence, counted in settled shuffle stages:
        every N-th completed shuffle has its consuming dataset checkpointed
        (``Dataset.checkpoint()``: its partitions written as a one-bucket
        shuffle whose spans are kept under ``checkpoint_dir``) and its
        lineage truncated to a checkpoint scan, so stage-retry
        recomputation and recovery replay stop there instead of walking
        back to the sources.  Requires ``checkpoint_dir``; ``0`` (the
        default) leaves checkpointing fully manual
        (``Dataset.checkpoint()``).
    recover_from:
        Path of a previous run's ``checkpoint_dir`` to resume from.  A
        fresh ``EngineContext`` replays the journal found there,
        revalidates every recorded shuffle span (checkpoints are shuffles)
        by frame CRC (corrupt or missing entries are dropped and their
        partitions recomputed from lineage — the journal is a hint, never
        a correctness dependency), re-registers the surviving map outputs
        with the ``ShuffleManager``, and the scheduler then runs only the
        unfinished suffix of the stage graph.  Counted in
        ``stages_recovered`` / ``recovery_invalid_entries``.  ``None``
        (the default) starts cold.
    speculation_multiplier:
        Speculative execution: once a stage is at least
        ``speculation_quantile`` complete, a running task older than
        ``speculation_multiplier`` times the median successful task runtime
        is re-launched as a duplicate attempt; the first result wins and
        the loser's result is discarded (its map output, if written at all,
        replaces identical output).  Counted in ``speculative_launches`` /
        ``speculative_wins``.  ``0`` (the default) disables speculation.
    speculation_quantile:
        Fraction of a stage's tasks that must have completed before
        stragglers are considered for speculative re-launch.
    executor_backend:
        ``"thread"`` (the default) runs tasks on a thread pool in the
        driver process; ``"process"`` runs them on ``num_workers`` forked
        worker processes, which sidesteps the GIL and yields real
        multi-core speedups for CPU-bound jobs.  On the process backend
        task closures are pickled to the workers (a preflight check fails
        fast, naming the offending dataset, when a graph captures
        unpicklable state such as locks or open files) and shuffle map
        output travels through pickle-framed files under a per-context
        :class:`~repro.engine.transport.ShuffleTransport` directory
        instead of shared in-memory buckets.  Results, order, retries,
        fault injection, skew splitting and broadcast joins are identical
        on both backends; of the metrics only wall-clock and — when
        ``shuffle_memory_bytes`` also bounds memory — the spill counters
        may differ.
    """

    num_workers: int = knob(4, at_least(1))
    default_parallelism: int = knob(4, at_least(1))
    max_task_retries: int = knob(2, at_least(0), spec=True)
    memory_budget_bytes: int = knob(256 * 1024 * 1024, at_least(0))
    spill_codec: str = knob("auto", one_of("auto", "none", "zlib", "lz4"))
    failure_rate: float = knob(0.0, RATE, spec=True)
    faults: Tuple[Tuple[str, float], ...] = knob(
        (), (lambda value: isinstance(dict(value), dict), "a mapping"))
    task_timeout_s: float = knob(0.0, at_least(0))
    max_stage_retries: int = knob(2, at_least(0))
    seed: int = knob(0, spec=True)
    optimizer_rules: Tuple[str, ...] = knob(KNOWN_OPTIMIZER_RULES, (
        lambda value: not isinstance(value, str)
        and set(value) <= set(KNOWN_OPTIMIZER_RULES),
        f"a sequence of rule names from {list(KNOWN_OPTIMIZER_RULES)}"))
    broadcast_threshold_bytes: int = knob(10 * 1024 * 1024, at_least(0),
                                          spec=True, hint=True)
    target_partition_bytes: int = knob(0, at_least(0), spec=True, hint=True)
    adaptive_enabled: bool = knob(True, spec="adaptive", hint=True)
    batch_size: int = knob(1024, at_least(1), spec=True, hint=True)
    skew_split_factor: int = knob(4, at_least(0), spec=True, hint=True)
    skew_min_partition_bytes: int = knob(32 * 1024 * 1024, at_least(0),
                                         spec=True, hint=True)
    shuffle_memory_bytes: int = knob(0, at_least(0), spec=True, hint=True)
    shuffle_transport: str = knob("local", one_of("local", "tcp"),
                                  spec=True, hint=True)
    fetch_max_retries: int = knob(3, at_least(0), spec=True, hint=True)
    fetch_backoff_s: float = knob(0.05, at_least(0))
    heartbeat_interval_s: float = knob(0.0, at_least(0))
    heartbeat_timeout_s: float = knob(0.0, at_least(0))
    blacklist_failure_threshold: int = knob(0, at_least(0), spec=True,
                                            hint=True)
    blacklist_cooldown_s: float = knob(0.0, at_least(0), spec=True, hint=True)
    speculation_multiplier: float = knob(0.0, at_least(0), spec=True,
                                         hint=True)
    speculation_quantile: float = knob(
        0.75, (lambda value: 0.0 < value <= 1.0, "in (0, 1]"))
    executor_backend: str = knob("thread", one_of("thread", "process"),
                                 spec=True, hint=True)
    checkpoint_dir: Optional[str] = knob(None, spec=True, hint=True)
    checkpoint_interval: int = knob(0, at_least(0), spec=True, hint=True)
    recover_from: Optional[str] = knob(None, spec=True, hint=True)

    def __post_init__(self) -> None:
        validate(vars(self), _ENGINE_CHECKS)
        faults = dict(self.faults)
        if faults:
            # lazily: the engine package imports this module
            from .engine.retry import fault_checks
            validate(faults, fault_checks(faults), "faults[{!r}]")
        object.__setattr__(self, "faults", tuple(sorted(faults.items())))
        if self.checkpoint_interval > 0 and not self.checkpoint_dir:
            raise ConfigurationError(
                "checkpoint_interval requires checkpoint_dir: automatic "
                "checkpoints need a durable directory to land in")
        object.__setattr__(self, "optimizer_rules", tuple(self.optimizer_rules))

    def with_overrides(self, **overrides: Any) -> "EngineConfig":
        """Return a copy of this configuration with some fields replaced."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class PlatformConfig:
    """Configuration of the BDAaaS platform facade.

    Attributes
    ----------
    free_tier_max_jobs:
        Number of campaign executions a free-limited (Labs) account may run.
    free_tier_max_rows:
        Maximum dataset size, in rows, a free-limited account may process.
    free_tier_max_workers:
        Maximum cluster size a free-limited account may provision.
    audit_enabled:
        Whether every platform operation is written to the audit log.
    """

    free_tier_max_jobs: int = knob(25, at_least(1))
    free_tier_max_rows: int = knob(100_000, at_least(1))
    free_tier_max_workers: int = knob(4, at_least(1))
    audit_enabled: bool = knob(True)

    def __post_init__(self) -> None:
        validate(vars(self), _PLATFORM_CHECKS)

    def with_overrides(self, **overrides: Any) -> "PlatformConfig":
        """Return a copy of this configuration with some fields replaced."""
        return replace(self, **overrides)


#: Every ``EngineConfig`` field, as declared.
ENGINE_KNOBS = _table(EngineConfig)
#: Deployment preference key -> knob, for the knobs a campaign spec may set.
SPEC_KNOBS: Dict[str, Knob] = {entry.preference: entry
                               for entry in ENGINE_KNOBS if entry.preference}
#: The knobs ``DeploymentModel.optimizer_hints`` surfaces.
HINT_KNOBS = tuple(entry for entry in ENGINE_KNOBS if entry.hint)
_ENGINE_CHECKS = knob_checks(EngineConfig)
_PLATFORM_CHECKS = knob_checks(PlatformConfig)

DEFAULT_ENGINE_CONFIG = EngineConfig()
