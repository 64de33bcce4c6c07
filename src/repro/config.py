"""Global configuration objects shared by the engine and the platform.

The configuration is deliberately a plain, explicit dataclass: every knob a
user can turn is a named field with a default, mirroring the style of
``SparkConf`` but without string-keyed magic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from .errors import ConfigurationError

#: Rewrite rules of the logical-plan optimizer, in application order.
#: ``EngineConfig.optimizer_rules`` may hold any subset; an empty tuple
#: disables the optimizer entirely and actions execute the plan the Dataset
#: API recorded, verbatim.
KNOWN_OPTIMIZER_RULES: Tuple[str, ...] = (
    "cache_prune",       # replace fully cached subtrees by a cached scan
    "pushdown",          # push filters/projections below shuffle boundaries
    "shuffle_elim",      # drop a shuffle when the child partitioning matches
    "map_side_combine",  # pre-aggregate on the map side of reduce_by_key &co
    "fuse_narrow",       # fuse chains of narrow ops into one operator
    "broadcast_join",    # hash-join against a collected small side, no shuffle
    "coalesce_shuffle",  # shrink reduce partition counts on small shuffles
    "split_skewed_shuffle",  # fan a fat reduce partition out over map slices
)


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
    shuffle_compression:
        Whether spill and shuffle payloads are actually compressed on disk:
        shuffle bucket spills, reduce-side external-merge runs and
        process-backend transport frames are all written through the frame
        codec selected by ``spill_codec``, and shuffle byte accounting
        scales its estimates by the codec's *measured* compression ratio
        (earlier revisions only simulated a constant 2.5x ratio in the
        accounting).  Results are never affected, only on-disk bytes and
        the reported byte metrics.
    spill_codec:
        Which frame codec compresses spill and transport payloads when
        ``shuffle_compression`` is on: ``"auto"`` (the default) prefers
        ``lz4`` when the optional package is importable and falls back to
        the stdlib ``zlib``; ``"zlib"``, ``"lz4"`` and ``"none"`` force a
        specific codec.  Frames are self-describing (each carries its codec
        in a header), so readers never consult this setting.
    failure_rate:
        Probability that any task fails spuriously; used by tests and by the
        fault-injection benchmarks.  ``0.0`` disables fault injection.  The
        decision is seeded per ``(seed, task id, attempt)``, so a given
        attempt fails identically on both executor backends and retried
        attempts draw fresh decisions.
    crash_failure_rate:
        Probability that a task *crashes its worker* instead of failing
        cleanly, seeded per ``(seed, task id, attempt)`` like
        ``failure_rate``.  On the process backend the worker hard-exits
        mid-task (after computing, before reporting), breaking the pool —
        the driver respawns it and resubmits the stage's unfinished tasks,
        bounded by ``max_stage_retries``.  On the thread backend a crash
        cannot take the driver down, so the decision degrades to an
        injected task failure handled by the ordinary retry loop.  ``0.0``
        disables crash injection.
    corruption_rate:
        Probability that a written spill/transport frame payload is
        corrupted (truncated or bit-flipped) on its way to disk, evaluated
        once per writing task / spill event from the engine seed.  The
        checksummed frame headers detect the damage on read, the reduce
        side raises :class:`~repro.errors.FetchFailedError` naming the lost
        ``(shuffle_id, map_partition)``, and the scheduler recomputes
        exactly the lost map partitions from lineage.  Only frames actually
        written are eligible: process-backend transport frames, and bucket
        spill frames under a bounded ``shuffle_memory_bytes``.  ``0.0``
        disables corruption injection.
    task_timeout_s:
        Driver-side deadline, in seconds, on settling each process-backend
        task.  A task whose result does not arrive in time is counted in
        ``timed_out_tasks``, retried on a fresh submission (bounded by
        ``max_task_retries``), and a late result from the abandoned attempt
        is discarded — its map output is never registered.  ``0`` (the
        default) disables deadlines; the thread backend ignores this knob
        because an in-process task cannot be abandoned.
    max_stage_retries:
        How many times a stage may be re-executed for fault recovery before
        the job is aborted: lineage recomputation rounds after a
        ``FetchFailedError`` and pool-respawn resubmissions after a worker
        crash (``BrokenProcessPool``) both count against it, independently
        per stage.  ``0`` disables stage-level recovery and the first lost
        output or crashed pool fails the job.
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
        rule).  ``0`` disables broadcast join selection entirely.
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
        Maximum number of parallel sub-partition reads a skewed reduce
        partition is fanned out into by the ``split_skewed_shuffle`` rule —
        the runtime counterpart of ``coalesce_shuffle``: where coalescing
        shrinks many small partitions, splitting fans one fat partition out
        over disjoint map-output slices, each served as its own task.
        Splits only ever fall between map slices (never inside one map
        task's combined output for a key), and partial per-slice reductions
        are re-merged with the operator's combiner, so results are
        identical to the unsplit plan.  ``0`` or ``1`` disables skew
        splitting entirely.
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
    fetch_timeout_s:
        Connect/read timeout, in seconds, of one TCP fetch attempt.  Must
        exceed ``network_delay_s`` or every fetch times out.
    network_drop_rate:
        Probability that the shuffle server drops a fetch (closes the
        connection without replying), seeded per ``(request, attempt)`` so
        a retried fetch draws a fresh decision.  Exercises the fetch-retry
        ladder deterministically; ``0.0`` disables drop injection.
    network_delay_s:
        Fixed per-request delay, in seconds, the shuffle server sleeps
        before serving a fetch — simulated network latency.  ``0`` serves
        immediately.
    heartbeat_interval_s:
        Interval at which process-backend workers write heartbeat files
        under the transport root for the driver's
        :class:`~repro.engine.scheduler.NodeHealthTracker` to check
        between stages.  ``0`` (the default) disables heartbeats.
    heartbeat_timeout_s:
        Age beyond which a worker's heartbeat file counts as stale and
        the worker is blacklisted directly — the timeout already encodes
        several missed beats, independent of
        ``blacklist_failure_threshold``.  ``0`` (the default) derives
        ``4 * heartbeat_interval_s``.
    blacklist_failure_threshold:
        Consecutive worker-attributed failures (task failures, or fetch
        failures charged to the span's producer; successes reset the
        count) after which a worker is blacklisted: its pool is recycled at the next stage boundary so no
        further tasks schedule onto it, its registered map outputs are
        invalidated and proactively recomputed from lineage, and the job's
        ``blacklisted_workers`` counter ticks.  ``0`` (the default)
        disables blacklisting.
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
        journal (``engine/journal.py``) and checkpoint partition files are
        written here with atomic tmp+rename+fsync discipline, and — when
        set — shuffle transport frames are rooted here instead of the
        per-context temporary spill directory, so settled map-output spans
        survive a driver crash.  The directory is created on demand and is
        *not* removed by ``EngineContext.stop()``; it is the handle a later
        ``recover_from=`` resume replays.  ``None`` (the default) disables
        journaling and checkpointing entirely.
    checkpoint_interval:
        Automatic checkpoint cadence, counted in settled shuffle stages:
        every N-th completed shuffle whose consuming dataset supports
        checkpointing has that dataset's partitions materialised to
        checksummed spill-format files under ``checkpoint_dir`` and its
        lineage truncated to a checkpoint scan, so stage-retry
        recomputation and recovery replay stop there instead of walking
        back to the sources.  Requires ``checkpoint_dir``; ``0`` (the
        default) leaves checkpointing fully manual
        (``Dataset.checkpoint()``).
    recover_from:
        Path of a previous run's ``checkpoint_dir`` to resume from.  A
        fresh ``EngineContext`` replays the journal found there,
        revalidates every recorded shuffle span and checkpoint file by
        frame CRC (corrupt or missing entries are dropped and their
        partitions recomputed from lineage — the journal is a hint, never
        a correctness dependency), re-registers the surviving map outputs
        with the ``ShuffleManager``, and the scheduler then runs only the
        unfinished suffix of the stage graph.  Counted in
        ``stages_recovered`` / ``recovery_invalid_entries``.  ``None``
        (the default) starts cold.
    speculation_multiplier:
        Speculative execution (process backend): once a stage is at least
        ``speculation_quantile`` complete, a running task older than
        ``speculation_multiplier`` times the median successful task runtime
        is re-launched as a duplicate attempt; the first result wins and
        the loser's map-output spans are discarded unregistered.  Counted
        in ``speculative_launches`` / ``speculative_wins``.  ``0`` (the
        default) disables speculation.
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

    num_workers: int = 4
    default_parallelism: int = 4
    max_task_retries: int = 2
    memory_budget_bytes: int = 256 * 1024 * 1024
    shuffle_compression: bool = True
    spill_codec: str = "auto"
    failure_rate: float = 0.0
    crash_failure_rate: float = 0.0
    corruption_rate: float = 0.0
    task_timeout_s: float = 0.0
    max_stage_retries: int = 2
    seed: int = 0
    optimizer_rules: Tuple[str, ...] = KNOWN_OPTIMIZER_RULES
    broadcast_threshold_bytes: int = 10 * 1024 * 1024
    target_partition_bytes: int = 0
    adaptive_enabled: bool = True
    batch_size: int = 1024
    skew_split_factor: int = 4
    skew_min_partition_bytes: int = 32 * 1024 * 1024
    shuffle_memory_bytes: int = 0
    shuffle_transport: str = "local"
    fetch_max_retries: int = 3
    fetch_backoff_s: float = 0.05
    fetch_timeout_s: float = 5.0
    network_drop_rate: float = 0.0
    network_delay_s: float = 0.0
    heartbeat_interval_s: float = 0.0
    heartbeat_timeout_s: float = 0.0
    blacklist_failure_threshold: int = 0
    blacklist_cooldown_s: float = 0.0
    speculation_multiplier: float = 0.0
    speculation_quantile: float = 0.75
    executor_backend: str = "thread"
    checkpoint_dir: Optional[str] = None
    checkpoint_interval: int = 0
    recover_from: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if self.default_parallelism < 1:
            raise ConfigurationError("default_parallelism must be >= 1")
        if self.max_task_retries < 0:
            raise ConfigurationError("max_task_retries must be >= 0")
        if self.memory_budget_bytes < 0:
            raise ConfigurationError("memory_budget_bytes must be >= 0")
        if not 0.0 <= self.failure_rate < 1.0:
            raise ConfigurationError("failure_rate must be in [0, 1)")
        if not 0.0 <= self.crash_failure_rate < 1.0:
            raise ConfigurationError("crash_failure_rate must be in [0, 1)")
        if not 0.0 <= self.corruption_rate < 1.0:
            raise ConfigurationError("corruption_rate must be in [0, 1)")
        if self.task_timeout_s < 0:
            raise ConfigurationError(
                "task_timeout_s must be >= 0 (0 disables task deadlines)")
        if self.max_stage_retries < 0:
            raise ConfigurationError(
                "max_stage_retries must be >= 0 (0 disables stage-level "
                "fault recovery)")
        if self.broadcast_threshold_bytes < 0:
            raise ConfigurationError("broadcast_threshold_bytes must be >= 0")
        if self.target_partition_bytes < 0:
            raise ConfigurationError("target_partition_bytes must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.skew_split_factor < 0:
            raise ConfigurationError(
                "skew_split_factor must be >= 0 (0 disables skew splitting)")
        if self.skew_min_partition_bytes < 0:
            raise ConfigurationError("skew_min_partition_bytes must be >= 0")
        if self.shuffle_memory_bytes < 0:
            raise ConfigurationError(
                "shuffle_memory_bytes must be >= 0 (0 disables the budget)")
        if self.shuffle_transport not in ("local", "tcp"):
            raise ConfigurationError(
                f"shuffle_transport must be 'local' or 'tcp', "
                f"got {self.shuffle_transport!r}")
        if self.fetch_max_retries < 0:
            raise ConfigurationError(
                "fetch_max_retries must be >= 0 (0 escalates to stage-level "
                "recovery on the first fetch failure)")
        if self.fetch_backoff_s < 0:
            raise ConfigurationError("fetch_backoff_s must be >= 0")
        if self.fetch_timeout_s <= 0:
            raise ConfigurationError("fetch_timeout_s must be > 0")
        if not 0.0 <= self.network_drop_rate < 1.0:
            raise ConfigurationError("network_drop_rate must be in [0, 1)")
        if self.network_delay_s < 0:
            raise ConfigurationError("network_delay_s must be >= 0")
        if self.network_delay_s >= self.fetch_timeout_s and \
                self.network_delay_s > 0:
            raise ConfigurationError(
                "network_delay_s must be below fetch_timeout_s or every "
                "fetch times out")
        if self.heartbeat_interval_s < 0:
            raise ConfigurationError(
                "heartbeat_interval_s must be >= 0 (0 disables heartbeats)")
        if self.heartbeat_timeout_s < 0:
            raise ConfigurationError(
                "heartbeat_timeout_s must be >= 0 (0 derives 4x the "
                "heartbeat interval)")
        if self.blacklist_failure_threshold < 0:
            raise ConfigurationError(
                "blacklist_failure_threshold must be >= 0 (0 disables "
                "worker blacklisting)")
        if self.blacklist_cooldown_s < 0:
            raise ConfigurationError(
                "blacklist_cooldown_s must be >= 0 (0 blacklists forever)")
        if self.checkpoint_interval < 0:
            raise ConfigurationError(
                "checkpoint_interval must be >= 0 (0 leaves checkpointing "
                "manual)")
        if self.checkpoint_interval > 0 and not self.checkpoint_dir:
            raise ConfigurationError(
                "checkpoint_interval requires checkpoint_dir: automatic "
                "checkpoints need a durable directory to land in")
        if self.speculation_multiplier < 0:
            raise ConfigurationError(
                "speculation_multiplier must be >= 0 (0 disables "
                "speculative execution)")
        if not 0.0 < self.speculation_quantile <= 1.0:
            raise ConfigurationError(
                "speculation_quantile must be in (0, 1]")
        if self.spill_codec not in ("auto", "none", "zlib", "lz4"):
            raise ConfigurationError(
                f"spill_codec must be 'auto', 'none', 'zlib' or 'lz4', "
                f"got {self.spill_codec!r}")
        if self.executor_backend not in ("thread", "process"):
            raise ConfigurationError(
                f"executor_backend must be 'thread' or 'process', "
                f"got {self.executor_backend!r}")
        if isinstance(self.optimizer_rules, str):
            # tuple("pushdown") would explode into characters and produce a
            # baffling unknown-rules error; demand a proper sequence instead
            raise ConfigurationError(
                "optimizer_rules must be a sequence of rule names, "
                f"e.g. optimizer_rules=({self.optimizer_rules!r},)")
        object.__setattr__(self, "optimizer_rules", tuple(self.optimizer_rules))
        unknown = [rule for rule in self.optimizer_rules
                   if rule not in KNOWN_OPTIMIZER_RULES]
        if unknown:
            raise ConfigurationError(
                f"unknown optimizer rules {unknown}; "
                f"known: {list(KNOWN_OPTIMIZER_RULES)}")

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

    free_tier_max_jobs: int = 25
    free_tier_max_rows: int = 100_000
    free_tier_max_workers: int = 4
    audit_enabled: bool = True

    def __post_init__(self) -> None:
        if self.free_tier_max_jobs < 1:
            raise ConfigurationError("free_tier_max_jobs must be >= 1")
        if self.free_tier_max_rows < 1:
            raise ConfigurationError("free_tier_max_rows must be >= 1")
        if self.free_tier_max_workers < 1:
            raise ConfigurationError("free_tier_max_workers must be >= 1")

    def with_overrides(self, **overrides: Any) -> "PlatformConfig":
        """Return a copy of this configuration with some fields replaced."""
        return replace(self, **overrides)


@dataclass
class RuntimeOptions:
    """Free-form options attached to a single campaign execution.

    These are the per-run knobs a trainee can tweak in the Labs without
    changing the declarative specification (for instance the cluster profile
    used for a what-if deployment).
    """

    cluster_profile: str = "local"
    extra: Dict[str, Any] = field(default_factory=dict)

    def merged_with(self, other: Dict[str, Any]) -> "RuntimeOptions":
        """Return new options whose ``extra`` dict is updated with ``other``."""
        merged = dict(self.extra)
        merged.update(other)
        return RuntimeOptions(cluster_profile=self.cluster_profile, extra=merged)


DEFAULT_ENGINE_CONFIG = EngineConfig()
DEFAULT_PLATFORM_CONFIG = PlatformConfig()
