"""The engine context: entry point of the dataflow substrate.

An :class:`EngineContext` plays the role of a ``SparkContext``: it owns the
configuration, the shuffle manager, the block store (cache), the metrics
registry and the DAG scheduler, and offers factory methods to create datasets.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
import threading
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence

from ..config import DEFAULT_ENGINE_CONFIG, EngineConfig
from ..errors import ConfigurationError, EngineError, SourceError
from .dataset import (CheckpointDependency, Dataset, ParallelCollectionDataset,
                      SourceDataset)
from .journal import JobJournal, load_journal_state
from .memory import MemoryManager
from .metrics import MetricsRegistry, PendingCounters
from .optimizer import COST, PlanOptimizer, lower_plan
from .plan import SourceNode, render_plan
from .scheduler import DAGScheduler
from .shuffle import ShuffleManager
from .retry import Faults, policy
from .shuffle_server import ShuffleServer
from .storage import BlockStore
from .transport import ShuffleTransport, TcpShuffleTransport


class EngineContext:
    """Owns every engine-wide resource and creates datasets.

    ``shared_blocks`` is a :class:`BlockStore` the context *borrows*: datasets
    marked with :meth:`Dataset.share` look their partitions up there, by
    content fingerprint, and publish to it what they materialise.  Whoever
    lends it (the platform, to every context of a session) owns its
    lifetime — :meth:`stop` never clears it.  Without one, ``share()`` is a
    no-op and the context behaves as if the argument did not exist.
    """

    def __init__(self, config: Optional[EngineConfig] = None, name: str = "repro-engine",
                 shared_blocks: Optional[BlockStore] = None):
        self.config = config or DEFAULT_ENGINE_CONFIG
        self.name = name
        self.shared_blocks = shared_blocks
        #: What this context's tasks took from the borrowed store:
        #: (fingerprint, origin of the block) -> blocks served.
        self.shared_reuse: dict = {}
        #: Tracks shuffle-bucket and reduce-partial residency against
        #: ``EngineConfig.shuffle_memory_bytes`` (0 = unbounded: residency is
        #: still tracked for reporting, nothing ever spills).
        self.memory_manager = MemoryManager(self.config.shuffle_memory_bytes)
        #: Lazily created directory holding every spill file of this
        #: context; removed (recursively) by :meth:`stop`.
        self._spill_root: Optional[str] = None
        self._lock = threading.Lock()
        #: Shuffle transport of the process backend: payload and map-output
        #: frame files live under the context's spill root, so they can
        #: never outlive the context.  ``None`` on the thread backend with
        #: the default local transport.  With ``shuffle_transport == "tcp"``
        #: a :class:`ShuffleServer` additionally serves those files over a
        #: socket and every span read goes through the fetch client — on
        #: either backend, so the thread backend exercises the same wire
        #: path the parity suite pins.
        self._transport = None
        self._shuffle_server: Optional[ShuffleServer] = None
        #: Root of every durable artefact (journal, durable shuffle frames,
        #: checkpoints included); ``None`` without ``checkpoint_dir`` or
        #: ``recover_from``.  Writes go to ``checkpoint_dir``; a context
        #: built only to resume reads ``recover_from`` and journals nothing.
        self._checkpoint_root: Optional[str] = None
        if self.config.checkpoint_dir or self.config.recover_from:
            self._checkpoint_root = os.path.abspath(
                self.config.checkpoint_dir or self.config.recover_from)
        #: Journal entries replayed from ``recover_from``, keyed as the
        #: journal recorded them; validated lazily and popped on adoption.
        self._recovered_shuffles: dict = {}
        #: Reentrancy guard: a checkpoint's own job must not trigger
        #: further automatic checkpoints.
        self._checkpointing = False
        #: Recovery tallies the scheduler folds into the next finished
        #: job's metrics (shared, drained there).
        self.pending_counters = PendingCounters()
        if self.config.recover_from:
            self._replay_journal(self.config.recover_from)
        # the writer opens after the replay: opening compacts the file, which
        # would erase a damaged journal before the replay could count it
        self._journal: Optional[JobJournal] = None
        if self.config.checkpoint_dir:
            self._journal = JobJournal(self._checkpoint_root)
        faults = Faults.of(self.config)
        if self.config.executor_backend == "process" or \
                self.config.shuffle_transport == "tcp":
            if self._checkpoint_root is not None:
                # durable root: shuffle frame files survive a driver crash
                # and the journal's span catalog can point the next run at
                # them; cleanup() sweeps only the ephemeral pieces
                transport_root = os.path.join(self._checkpoint_root,
                                              "transport")
                durable = True
            else:
                transport_root = os.path.join(self.spill_dir(), "transport")
                durable = False
            if self.config.shuffle_transport == "tcp":
                self._shuffle_server = ShuffleServer(transport_root, faults)
                self._transport = TcpShuffleTransport(
                    transport_root, self._shuffle_server.address,
                    policy=policy(self.config, "fetch"), durable=durable)
            else:
                self._transport = ShuffleTransport(transport_root,
                                                   durable=durable)
        self.shuffle_manager = ShuffleManager(
            self.memory_manager, spill_dir=self.spill_dir,
            transport=self._transport, codec=self.config.spill_codec,
            faults=faults)
        self.block_store = BlockStore(memory_budget_bytes=self.config.memory_budget_bytes)
        self.metrics = MetricsRegistry()
        self.scheduler = DAGScheduler(self.config, self.shuffle_manager,
                                      self.block_store, self.metrics,
                                      memory_manager=self.memory_manager,
                                      transport=self._transport,
                                      journal=self._journal,
                                      recovered_shuffles=self._recovered_shuffles,
                                      pending_counters=self.pending_counters,
                                      checkpoint_hook=self._auto_checkpoint)
        #: Structural signature -> physical dataset, shared by plan lowering
        #: so sibling plans reuse identical rewritten subtrees (and their
        #: shuffle outputs / cached blocks).
        self._lowered_plans = {}
        self.optimizer = PlanOptimizer(self.config, self.block_store,
                                       self.shuffle_manager,
                                       self._lowered_plans)
        #: Bumped by Dataset.cache()/unpersist(); memoised executables from
        #: an older epoch are re-planned so rewrites respect the new cache
        #: state (fusion barriers, pruning, mirror caching).
        self._cache_epoch = 0
        self._dataset_counter = itertools.count()
        self._shuffle_counter = itertools.count()
        self._stopped = False

    # -- spill directory ---------------------------------------------------------

    def spill_dir(self) -> str:
        """The context's spill directory, created on first use.

        Shuffle bucket spills and reduce-side merge runs all land here; the
        whole tree is removed by :meth:`stop`, so no spill file outlives the
        context (run files are additionally deleted as soon as their merge
        drains, and a shuffle's spill file when the shuffle is removed).
        """
        with self._lock:
            if self._spill_root is None:
                self._spill_root = tempfile.mkdtemp(
                    prefix=f"repro-spill-{self.name}-")
            return self._spill_root

    # -- durable checkpoints and recovery ----------------------------------------

    def _replay_journal(self, directory: str) -> None:
        """Load a prior run's journal; its entries become adoption *hints*.

        Every recorded span is CRC-revalidated before anything adopts it,
        so an unreadable or stale journal (or one pointing at corrupt
        files) only costs recomputation.
        """
        state = load_journal_state(directory)
        if state is None:
            # no parseable journal: cold start, count the degradation
            self.pending_counters.recovery_invalid_entries += 1
            return
        self._recovered_shuffles.update(state["shuffles"])

    def checkpoint_dataset(self, dataset: Dataset) -> None:
        """Materialise ``dataset`` durably (behind ``Dataset.checkpoint``).

        The checkpoint is a one-bucket shuffle
        (:class:`~repro.engine.dataset.CheckpointDependency`) over the
        dataset's executable, or over a copy of the dataset that keeps its
        lineage when no rewrite stands in for it, so the stage reuses every
        shuffle the executable already completed.  The
        dataset takes the executable's partitioning and depends on the
        checkpoint alone; its one job runs the shuffle like any other —
        adopted from a resumed journal, written where it is computed, made
        durable and journalled — and a failed job leaves the dataset as it
        was.
        """
        self._check_active()
        if dataset.has_checkpoint:
            return
        if not self.config.checkpoint_dir:
            raise ConfigurationError(
                "Dataset.checkpoint() requires EngineConfig.checkpoint_dir")
        executable = self._executable_for(dataset)
        if executable is dataset:
            executable = dataset._lineage_copy()
        dependency = CheckpointDependency(executable, self._next_shuffle_id())
        lineage = dataset.num_partitions, dataset.dependencies
        dataset.num_partitions = executable.num_partitions
        dataset.dependencies = [dependency]
        try:
            self.scheduler.run_job(dataset, None,
                                   description=f"checkpoint:{dataset.name}")
        except BaseException:
            dataset.num_partitions, dataset.dependencies = lineage
            raise
        dataset._checkpoint = dependency.shuffle_id
        dataset._executable = None
        # lineage truncation changes what the optimizer may rewrite, exactly
        # like a cache flag flip: re-plan every memoised executable
        self._cache_epoch += 1

    def _auto_checkpoint(self, dataset: Dataset) -> None:
        """Scheduler hook: checkpoint ``dataset`` after its shuffle settled.

        Fired every ``checkpoint_interval`` settled shuffle-map stages.  The
        nested checkpoint job reads the just-completed shuffle, so the write
        costs one pass over the stage output, not a recomputation; the guard
        keeps that nested job from checkpointing recursively.
        """
        if self._checkpointing or dataset._checkpoint is not None:
            return
        self._checkpointing = True
        try:
            self.checkpoint_dataset(dataset)
        finally:
            self._checkpointing = False

    # -- id generation ----------------------------------------------------------

    def _next_dataset_id(self) -> int:
        with self._lock:
            return next(self._dataset_counter)

    def _next_shuffle_id(self) -> int:
        with self._lock:
            return next(self._shuffle_counter)

    # -- dataset factories ---------------------------------------------------------

    def parallelize(self, data: Iterable[Any],
                    num_partitions: Optional[int] = None) -> Dataset:
        """Create a dataset from an in-memory iterable."""
        self._check_active()
        data = list(data)
        if num_partitions is None:
            num_partitions = min(self.config.default_parallelism, max(1, len(data)))
        dataset = ParallelCollectionDataset(self, data, num_partitions)
        dataset.plan = SourceNode(dataset)
        return dataset

    def range(self, start: int, end: Optional[int] = None, step: int = 1,
              num_partitions: Optional[int] = None) -> Dataset:
        """Create a dataset of integers, like :func:`range`."""
        if end is None:
            start, end = 0, start
        return self.parallelize(range(start, end, step), num_partitions)

    def from_source(self, source, num_partitions: Optional[int] = None) -> Dataset:
        """Create a dataset from a :class:`repro.data.sources.DataSource`."""
        self._check_active()
        num_partitions = num_partitions or self.config.default_parallelism
        dataset = SourceDataset(self, source, num_partitions)
        dataset.plan = SourceNode(dataset)
        return dataset

    def text_file(self, path: str, num_partitions: Optional[int] = None) -> Dataset:
        """Create a dataset whose records are the lines of a text file."""
        self._check_active()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = [line.rstrip("\n") for line in handle]
        except OSError as error:
            raise SourceError(f"cannot read text file {path!r}: {error}") from error
        return self.parallelize(lines, num_partitions).set_name(f"text_file({path})")

    def empty(self) -> Dataset:
        """Create an empty dataset with a single empty partition."""
        dataset = ParallelCollectionDataset(self, [], 1).set_name("empty")
        dataset.plan = SourceNode(dataset)
        return dataset

    # -- job execution ---------------------------------------------------------------

    def run_job(self, dataset: Dataset, func: Callable[[Iterator[Any]], Any],
                partitions: Optional[Sequence[int]] = None,
                description: str = "") -> List[Any]:
        """Run an action; normally called through dataset methods.

        The dataset's logical plan is optimized and lowered to a physical
        plan first (memoised per dataset); with the optimizer disabled — or
        when no rule fires — the dataset the API built runs verbatim.  With
        adaptive re-optimization enabled, the scheduler additionally re-runs
        the cost-based rules between shuffle-map stages, swapping in a better
        physical plan when actual map-output sizes contradict the estimates.
        """
        self._check_active()
        executable = self._executable_for(dataset)
        replanner = None
        # re-planning pays off only when a cost-based rule can fire:
        # otherwise the optimizer provably returns the same plan
        if partitions is None and dataset.plan is not None and \
                self.config.adaptive_enabled and self.optimizer.armed(COST):
            replanner = self._adaptive_replanner(dataset)
        return self.scheduler.run_job(executable, func, partitions,
                                      description, replanner=replanner)

    def _adaptive_replanner(self, dataset: Dataset) -> Callable[[], Dataset]:
        """A callback re-optimizing ``dataset``'s plan with fresh statistics.

        Invoked by the scheduler after each completed shuffle-map stage; the
        statistics layer then sees the stage's actual map-output sizes, so
        the cost-based rules may pick a different execution shape for the
        not-yet-executed suffix of the plan.  It drops the memo and plans
        again; unchanged decisions lower to the memoised physical objects,
        making the callback a no-op.
        """
        def replan() -> Dataset:
            dataset._executable = None
            return self._executable_for(dataset)

        return replan

    def _executable_for(self, dataset: Dataset, result=None) -> Dataset:
        """The physical dataset actions on ``dataset`` should execute.

        Memoised per dataset, but invalidated when any dataset's cache flag
        changes (the epoch): a plan optimized before ``parent.cache()`` would
        otherwise keep bypassing the newly cached parent forever.  Callers
        that already ran the optimizer (``explain``) pass their ``result``.
        """
        if not self.config.optimizer_rules or dataset.plan is None:
            return dataset
        if dataset._executable is not None and \
                dataset._executable_epoch == self._cache_epoch:
            return dataset._executable
        if result is None:
            result = self.optimizer.optimize(dataset.plan)
        if result.changed:
            executable = lower_plan(result.plan, self)
        else:
            executable = dataset
        dataset._executable = executable
        dataset._executable_epoch = self._cache_epoch
        return executable

    def note_shared_hit(self, fingerprint: str, origin: str) -> None:
        """Record that a task was served a block of the borrowed store."""
        with self._lock:
            key = (fingerprint, origin)
            self.shared_reuse[key] = self.shared_reuse.get(key, 0) + 1

    def explain(self, dataset: Dataset) -> str:
        """Return the textual physical lineage of a dataset."""
        return "\n".join(self.scheduler.explain(dataset))

    def explain_dataset(self, dataset: Dataset) -> str:
        """Render logical, optimized and physical plans (``Dataset.explain``).

        Every logical node carries the statistics layer's per-node estimated
        rows and bytes (``~`` marks heuristics, exact numbers come from
        caches, in-memory sources and completed shuffles); the optimized
        section additionally reports the rules that fired — including the
        cost-based ``broadcast_join`` strategy choice — and the plan's
        estimated cost under the documented cost model.
        """
        lines: List[str] = ["== Logical Plan =="]
        if dataset.plan is None:
            lines.append("(no logical plan recorded; physical dataset)")
        else:
            self.optimizer.estimator.annotate(dataset.plan)
            lines.extend(render_plan(dataset.plan))
        lines.append("")
        lines.append("== Optimized Plan ==")
        result = None
        if dataset.plan is None or not self.config.optimizer_rules:
            lines.append("(optimizer disabled)")
        else:
            result = self.optimizer.optimize(dataset.plan)
            lines.extend(render_plan(result.plan))
            if result.applied:
                fired = sorted(set(result.applied))
                lines.append(f"rules fired: {', '.join(fired)}")
            else:
                lines.append("rules fired: none")
            if result.cost:
                lines.append(f"estimated cost: {result.cost:,.0f}")
        lines.append("")
        lines.append("== Physical Plan ==")
        lines.extend(self.scheduler.explain(
            self._executable_for(dataset, result=result)))
        return "\n".join(lines)

    # -- lifecycle ---------------------------------------------------------------------

    def _check_active(self) -> None:
        if self._stopped:
            raise EngineError("this engine context has been stopped")

    @property
    def is_active(self) -> bool:
        """False once :meth:`stop` has been called."""
        return not self._stopped

    def stop(self) -> None:
        """Release every resource owned by the context."""
        if self._stopped:
            return
        self._stopped = True
        self.scheduler.executor.shutdown()
        self.shuffle_manager.clear()
        self.block_store.clear()
        # a borrowed store is its lender's to clear; only let go of it, so a
        # stopped context awaiting cycle collection does not keep it alive
        self.shared_blocks = None
        self._lowered_plans.clear()
        if self._shuffle_server is not None:
            self._shuffle_server.stop()
            self._shuffle_server = None
        if self._transport is not None:
            self._transport.cleanup()
        if self._spill_root is not None:
            # shuffle_manager.clear() already deleted every live spill file;
            # the recursive removal sweeps up anything a failed job left
            shutil.rmtree(self._spill_root, ignore_errors=True)
            self._spill_root = None

    def __enter__(self) -> "EngineContext":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()
