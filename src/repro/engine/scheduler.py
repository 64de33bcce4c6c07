"""DAG scheduler: splits a dataset lineage into stages and runs them.

The scheduler walks the lineage of the dataset an action was invoked on,
executes one *shuffle-map stage* for every shuffle dependency whose output is
not yet available (a broadcast join's build side is one: a one-bucket
shuffle its stream tasks read), and finally runs the *result stage* that
applies the action's partition function.  Shuffle outputs are kept between
jobs so that re-running an action on the same dataset (or on a descendant)
does not repeat the shuffle, mirroring the behaviour of production engines.

**Adaptive re-optimization**: when the context supplies a ``replanner``, the
scheduler re-invokes it after every completed shuffle-map stage.  The
replanner re-runs the cost-based optimizer rules with the *actual* map-output
sizes now available and returns a (possibly different) physical dataset for
the rest of the job — this is how a join whose small side was mis-estimated
still switches to a broadcast hash join at runtime, before the expensive
side's shuffle ever runs.  Pending shuffle stages are executed cheapest-first
(by estimated map-output bytes) so the cheap evidence arrives before the
expensive stages it can cancel.

**Skew splits**: a dataset the ``split_skewed_shuffle`` rule split carries
a one-bucket *slice shuffle* beside its dependencies
(:class:`~repro.engine.dataset.SliceDependency`).  Before a stage reads
such a dataset the scheduler completes that shuffle as it completes any
other, and the stage's tasks merge the partials of each split partition
they read.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..config import EngineConfig
from ..errors import FetchFailedError
from .dataset import (CheckpointDependency, Dataset, ShuffleDependency,
                      SkewSlices, TaskContext)
from .executor import Task, create_executor
from .journal import shuffle_journal_key, validate_shuffle_entry
from .metrics import JobMetrics, PendingCounters, StageMetrics
from .retry import FAILURES, policy
from .retry import NodeHealthTracker  # noqa: F401 - still importable here
from .shuffle import catalog_of

#: Upper bound on accepted adaptive re-plans per job; a backstop against a
#: (buggy) replanner oscillating between plan shapes forever.
_MAX_ADAPTIVE_REPLANS = 20


def _shuffle_edges(lineage: Dataset, seen: Optional[set] = None
                   ) -> Iterator[Tuple[Dataset, ShuffleDependency]]:
    """Every ``(dataset, shuffle dependency)`` edge in ``lineage``, depth
    first in dependency order, a dataset's skew split after its
    dependencies."""
    seen = set() if seen is None else seen
    if lineage.id in seen:
        return
    seen.add(lineage.id)
    split = [lineage.split] if lineage.split is not None else []
    for dependency in lineage.dependencies + split:
        if isinstance(dependency, ShuffleDependency):
            yield lineage, dependency
        yield from _shuffle_edges(dependency.parent, seen)


def _find_shuffle(lineage: Dataset, shuffle_id: int
                  ) -> Optional[Tuple[Dataset, ShuffleDependency]]:
    """The dataset in ``lineage`` reading shuffle ``shuffle_id``, and its
    dependency on it."""
    return next((edge for edge in _shuffle_edges(lineage)
                 if edge[1].shuffle_id == shuffle_id), None)


def _counted_batches(batches: Iterator[List[Any]],
                     task_context: TaskContext) -> Iterator[List[Any]]:
    """Tally drained batches into the task's ``batches_processed`` counter."""
    for batch in batches:
        task_context.batches_processed += 1
        yield batch


class ShuffleMapTask(Task):
    """Computes one parent partition and buckets it for a shuffle.

    The parent partition is drained through its batch pipeline straight
    into the dependency's map-side function.
    """

    def __init__(self, task_id: str, stage_id: int, partition: int,
                 dependency: ShuffleDependency, shuffle_manager):
        super().__init__(task_id, stage_id, partition)
        self._dependency = dependency
        self._shuffle_manager = shuffle_manager

    def __getstate__(self):
        # the driver's shuffle manager stays home; the worker runtime
        # installs the payload's own shuffle manager after unpickling
        state = self.__dict__.copy()
        state["_shuffle_manager"] = None
        return state

    def run(self, task_context: TaskContext) -> Any:
        parent = self._dependency.parent
        buckets = self._dependency.map_side(_counted_batches(
            parent.batch_iterator(self.partition, task_context), task_context))
        written_records = sum(len(records) for records in buckets.values())
        written_bytes = self._shuffle_manager.write_map_output(
            self._dependency.shuffle_id, self.partition, buckets,
            task_context=task_context)
        if not isinstance(parent, SkewSlices):
            # a skew split's partials are bytes, not records of the plan
            task_context.records_written += written_records
        task_context.shuffle_bytes_written += written_bytes
        return written_records


class ResultTask(Task):
    """Computes one partition of the final dataset and applies the action."""

    def __init__(self, task_id: str, stage_id: int, partition: int,
                 dataset: Dataset, func: Callable[[Iterator[Any]], Any]):
        super().__init__(task_id, stage_id, partition)
        self._dataset = dataset
        self._func = func

    def run(self, task_context: TaskContext) -> Any:
        # records the action consumes are *reads* (sources and caches count
        # them while the iterator is drained); ``records_written`` is
        # reserved for materialised output: shuffle files and cached blocks
        batches = _counted_batches(
            self._dataset.batch_iterator(self.partition, task_context),
            task_context)
        if getattr(self._func, "consumes_batches", False):
            # batch-native action (collect, count): whole lists per call
            return self._func(batches)
        # any other action sees a flat record iterator (one C-level chain
        # per batch, not one generator resumption per record)
        return self._func(itertools.chain.from_iterable(batches))


class DAGScheduler:
    """Turns actions on datasets into stages of tasks and executes them."""

    def __init__(self, config: EngineConfig, shuffle_manager, block_store,
                 metrics_registry, memory_manager=None, transport=None,
                 journal=None, recovered_shuffles: Optional[Dict] = None,
                 pending_counters: Optional[PendingCounters] = None,
                 checkpoint_hook: Optional[Callable[[Dataset], None]] = None):
        self.config = config
        self.shuffle_manager = shuffle_manager
        self.block_store = block_store
        self.metrics_registry = metrics_registry
        #: Write-ahead job journal (``checkpoint_dir`` set); settled
        #: shuffles export their durable span catalogs into it.
        self.journal = journal
        #: Shuffle entries replayed from a prior run's journal, keyed
        #: ``"shuffle:<id>"``; revalidated and adopted lazily when the
        #: stage that would recompute them is about to run.
        self.recovered_shuffles = recovered_shuffles \
            if recovered_shuffles is not None else {}
        #: Context-owned job counters (recovery tallies), folded into each
        #: finishing job.
        self.pending_counters = pending_counters \
            if pending_counters is not None else PendingCounters()
        #: Context callback checkpointing a dataset after its shuffle
        #: settled (``checkpoint_interval`` automatic checkpoints).
        self.checkpoint_hook = checkpoint_hook
        self._settled_shuffles = 0
        #: Thread or process executor per ``config.executor_backend``; the
        #: process backend needs the scheduler's collaborators to publish
        #: payloads and settle worker results on the driver side.
        self.executor = create_executor(config, shuffle_manager=shuffle_manager,
                                        block_store=block_store,
                                        memory_manager=memory_manager,
                                        transport=transport)
        self._job_counter = itertools.count()
        self._stage_counter = itertools.count()

    # -- public entry point ----------------------------------------------------

    def run_job(self, dataset: Dataset,
                func: Optional[Callable[[Iterator[Any]], Any]],
                partitions: Optional[Sequence[int]] = None,
                description: str = "",
                replanner: Optional[Callable[[], Dataset]] = None) -> List[Any]:
        """Run ``func`` over the requested partitions of ``dataset``.

        ``replanner``, when given, is called after each completed shuffle-map
        stage and may return a replacement physical dataset for the rest of
        the job (adaptive re-optimization); it must only be supplied for
        whole-dataset jobs, since a replacement may change partitioning.
        ``func`` ``None`` is a checkpoint job: the shuffle ``dataset``'s one
        :class:`~repro.engine.dataset.CheckpointDependency` writes, and what
        it needs, with no result stage — even if a cache could serve
        ``dataset``.
        """
        job = JobMetrics(job_id=next(self._job_counter), description=description)
        try:
            if func is None:
                (checkpoint,) = dataset.dependencies
                self._execute_prerequisites(checkpoint.parent, job, None)
                recovered = job.stages_recovered
                self._run_shuffle_stage(checkpoint, job)
                # a checkpoint adopted whole from the journal wrote nothing
                job.checkpoints_written += job.stages_recovered == recovered
                return []
            dataset = self._execute_prerequisites(dataset, job, replanner)
            if partitions is None:
                # whole-dataset jobs read skew-split reduce partitions from
                # their slice shuffles' partials
                self._execute_skew_splits(dataset, job)
                partitions = range(dataset.num_partitions)
            result_dataset = dataset

            def build_result_stage():
                stage = StageMetrics(stage_id=next(self._stage_counter),
                                     name=f"result:{result_dataset.name}",
                                     is_shuffle_map=False)
                tasks = [
                    ResultTask(task_id=f"job{job.job_id}-s{stage.stage_id}-p{p}",
                               stage_id=stage.stage_id, partition=p,
                               dataset=result_dataset, func=func)
                    for p in partitions]
                return stage, tasks

            results = self._execute_stage_with_recovery(
                job, dataset, build_result_stage)
            return [result.value for result in results]
        except BaseException:
            # a failed job never completed its pending shuffles; drop their
            # partial map outputs (and any spill files backing them) — they
            # would be rewritten wholesale on retry anyway
            self._discard_incomplete_shuffles(dataset)
            raise
        finally:
            if self.journal is not None:
                job.journal_bytes += self.journal.drain_bytes_written()
            self.pending_counters.drain_into(job)
            # failed jobs are registered too, so their attempts stay inspectable
            job.finish()
            self.metrics_registry.register(job)

    def _discard_incomplete_shuffles(self, dataset: Dataset) -> None:
        """Drop every incomplete shuffle in ``dataset``'s lineage.

        Called when a job fails: a shuffle whose map stage never finished is
        re-run from scratch by the next job (every map task rewrites its
        buckets), so keeping its partial buckets — resident or spilled to
        disk — only pins memory and spill files.  Complete shuffles are
        kept; their reuse across jobs is unchanged.
        """
        for _, dependency in _shuffle_edges(dataset):
            if not self.shuffle_manager.is_complete(dependency.shuffle_id):
                self.shuffle_manager.remove_shuffle(dependency.shuffle_id)

    # -- lineage-based fault recovery -----------------------------------------

    def _execute_stage_with_recovery(self, job: JobMetrics, lineage: Dataset,
                                     build: Callable,
                                     register_failed: bool = True) -> List[Any]:
        """Run a stage, recovering lost shuffle output from lineage.

        ``build`` freshly returns ``(stage metrics, tasks)`` per attempt —
        fresh stage ids mean fresh task ids, so retried attempts draw fresh
        seeded fault decisions and an injected fault cannot repeat forever.
        A :class:`FetchFailedError` (a reduce-side read hit a missing or
        corrupt map-output span) invalidates exactly the lost map partition,
        re-runs it from ``lineage``, and retries the consuming stage,
        bounded by ``max_stage_retries`` per consuming stage.

        Fetch-failed attempts are always folded into the job — their settled
        tasks wrote real shuffle output the retry will consume.  Attempts
        killed by any other error follow ``register_failed``, which
        preserves each call site's historical accounting (failed result
        stages are registered, failed map stages are not).

        The loop itself is the stage ledger's
        :class:`~repro.engine.retry.RetryPolicy`: recovery — absorbing any
        newly blacklisted workers, striking the lost span's producer, then
        healing the lost output — runs in the policy's ``on_retry`` hook, so
        an unrecoverable loss (unreachable lineage) aborts the loop by
        raising out of the hook.
        """

        def attempt_stage(attempt: int) -> List[Any]:
            stage, tasks = build()
            try:
                results = self.executor.execute_stage(tasks, stage)
            except FetchFailedError:
                stage.fetch_retries += self.shuffle_manager.drain_fetch_retries()
                job.add_stage(stage)
                raise
            except BaseException:
                if register_failed:
                    job.add_stage(stage)
                raise
            # driver-side retried reads (local spill re-reads, thread-backend
            # TCP fetches) surface at stage granularity; worker-side ones
            # already arrived inside the task counters
            stage.fetch_retries += self.shuffle_manager.drain_fetch_retries()
            job.add_stage(stage)
            self._absorb_health(job, lineage)
            return results

        def recover(attempt: int, error: FetchFailedError) -> None:
            job.stage_retries += 1
            self._absorb_health(job, lineage)
            lost = (error.shuffle_id, error.map_partition)
            if _find_shuffle(lineage, error.shuffle_id) is None:
                # not reachable from this lineage (stale context state):
                # nothing to recompute from
                raise error
            # the producer of the unreadable span takes a strike: repeated
            # lost output is how a worker serving rotten bytes gets
            # blacklisted.  Only a worker process's pid is ever struck —
            # never "recovered" or a driver write, which has no producer
            producer = self.shuffle_manager.producer_of(*lost)
            if isinstance(producer, int):
                self.executor.health.record_failure(producer)
            self._heal(job, lineage, [lost])

        return policy(self.config, "stage").run(
            attempt_stage, retry_on=FAILURES["lost_output"].detect,
            on_retry=recover)

    def _absorb_health(self, job: JobMetrics, lineage: Dataset) -> None:
        """Fold newly blacklisted workers into the job and heal their output.

        Suspect bytes must not be read again, so every map output a
        blacklisted worker produced is lost.
        """
        for worker in self.executor.health.drain_new():
            job.blacklisted_workers += 1
            self._heal(job, lineage, self.shuffle_manager.outputs_of(worker))

    def _heal(self, job: JobMetrics, lineage: Dataset,
              lost: List[Tuple[int, int]]) -> None:
        """Invalidate lost ``(shuffle_id, map_partition)`` outputs, count
        them, and recompute the missing map partitions from lineage.

        Only the stale spans are dropped, and a recompute runs a shuffle-map
        stage over just the missing partitions; it reads its own upstream
        shuffles through the same recovery wrapper, so a corrupt ancestor is
        healed recursively.  A shuffle this lineage does not reach simply
        turns incomplete and heals lazily, when a later job's prerequisite
        walk re-runs its missing partitions.
        """
        for key in lost:
            self.shuffle_manager.invalidate_map_output(*key)
        job.lost_map_outputs += len(lost)
        # in order of first loss: ids are ints and (a broadcast join's)
        # strings, which do not sort together
        for shuffle_id in dict.fromkeys(shuffle_id for shuffle_id, _ in lost):
            found = _find_shuffle(lineage, shuffle_id)
            if found is not None:
                job.recomputed_tasks += len(
                    self.shuffle_manager.missing_map_partitions(shuffle_id))
                self._run_shuffle_stage(found[1], job, recompute=True)

    # -- shuffle stages ----------------------------------------------------------

    def _is_fully_cached(self, dataset: Dataset) -> bool:
        if not dataset.is_cached:
            return False
        return self.block_store.contains_all(dataset.id, dataset.num_partitions)

    def _execute_prerequisites(self, dataset: Dataset, job: JobMetrics,
                               replanner: Optional[Callable[[], Dataset]]) -> Dataset:
        """Run every missing shuffle-map stage.

        One prerequisite is executed per iteration; in adaptive mode the
        replanner then gets a chance to swap the remaining physical plan, and
        the (possibly new) lineage is re-examined from scratch.  Returns the
        dataset the result stage should execute.
        """
        while True:
            ready = self._ready_prerequisites(dataset)
            if not ready:
                return dataset
            dependency = self._pick_prerequisite(ready, replanner is not None)
            self._run_shuffle_stage(dependency, job)
            self._maybe_auto_checkpoint(dataset, dependency)
            if replanner is not None and \
                    job.adaptive_replans < _MAX_ADAPTIVE_REPLANS:
                replanned = replanner()
                if replanned is not dataset:
                    dataset = replanned
                    job.adaptive_replans += 1

    def _ready_prerequisites(self, dataset: Dataset
                             ) -> List[ShuffleDependency]:
        """Pending shuffle dependencies whose own inputs are ready.

        Deepest-first, left-to-right, skipping anything beneath a complete
        shuffle (a checkpoint and a broadcast build are ones) or a fully
        cached dataset — the same boundaries job execution observes.
        """
        ready: List[ShuffleDependency] = []
        satisfied: Dict[int, bool] = {}

        def walk(node: Dataset) -> bool:
            if node.id in satisfied:
                return satisfied[node.id]
            ok = True
            if not self._is_fully_cached(node):
                for dependency in node.dependencies:
                    if isinstance(dependency, ShuffleDependency):
                        if self.shuffle_manager.is_complete(dependency.shuffle_id):
                            continue
                        if walk(dependency.parent):
                            ready.append(dependency)
                        ok = False
                    elif not walk(dependency.parent):
                        ok = False
            satisfied[node.id] = ok
            return ok

        walk(dataset)
        return ready

    @staticmethod
    def _pick_prerequisite(ready: List[ShuffleDependency],
                           adaptive: bool) -> ShuffleDependency:
        """Choose the next prerequisite to execute.

        Plain jobs keep the discovery (deepest-first) order.  Adaptive jobs
        run the cheapest pending stage first — by the estimated map-output
        bytes the statistics layer stamped on the dependency — so actual
        sizes of cheap stages can re-shape the plan before expensive stages
        run; broadcast joins' reads (small by construction, and the only
        shuffles with a string id) go first.
        """
        if not adaptive:
            return ready[0]

        def cost(indexed) -> tuple:
            index, dependency = indexed
            if isinstance(dependency.shuffle_id, str):
                return (-1.0, index)
            estimated = dependency.estimated_bytes
            return (estimated if estimated is not None else float("inf"), index)

        return min(enumerate(ready), key=cost)[1]

    # -- skew splits ---------------------------------------------------------

    def _execute_skew_splits(self, dataset: Dataset, job: JobMetrics) -> None:
        """Complete the slice shuffle of every split the next stage reads.

        A split partition's straggler work is spread over the slice
        shuffle's map tasks, one per map-output slice; the task that reads
        the partition merges their partials.  The slice shuffle is a
        shuffle like any other — reused while complete, adopted from a
        resumed journal, healed per lost slice — and every split partition
        not served from the cache counts in ``skew_splits``.

        The walk covers the narrow closure the stage's tasks pull through,
        stopping at fully cached or checkpointed datasets (served from
        blocks or spans) and at shuffle inputs (nothing behind them
        executes again).  Known over-approximation: a
        *partially* cached dataset between the split and the stage is
        walked through, so a split whose partitions' derived blocks happen
        to be cached still gets its slice shuffle computed — being
        per-partition path-aware through non-1:1 narrow ops (coalesce,
        union) is not worth the complexity for that corner.
        """
        seen: set = set()

        def walk(node: Dataset) -> None:
            if node.id in seen or self._is_fully_cached(node) or \
                    node.has_checkpoint:
                return
            seen.add(node.id)
            split = node.split
            if split is not None:
                served = [partition for partition in split.ranges
                          if not (node.is_cached and self.block_store.contains(
                              node.id, partition))]
                if served and \
                        not self.shuffle_manager.is_complete(split.shuffle_id):
                    self._run_shuffle_stage(split, job)
                job.skew_splits += len(served)
            for dependency in node.dependencies:
                if not isinstance(dependency, ShuffleDependency):
                    walk(dependency.parent)

        walk(dataset)

    def _run_shuffle_stage(self, dependency: ShuffleDependency,
                           job: JobMetrics, recompute: bool = False) -> None:
        parent = dependency.parent
        shuffle_id = dependency.shuffle_id
        self.shuffle_manager.register_shuffle(shuffle_id, parent.num_partitions)
        if not recompute:
            self._adopt_recovered_shuffle(dependency, job)
            if not self.shuffle_manager.is_complete(shuffle_id):
                # map tasks read a split partition of the parent's lineage
                # from its partials, exactly like a result task
                self._execute_skew_splits(parent, job)
        label = f"{'recompute' if recompute else 'shuffle'}:{parent.name}"

        def build_map_stage():
            # only the still-missing map partitions run: everything for a
            # fresh shuffle, just the invalidated ones on a recompute, the
            # ones journal recovery could not revalidate on a resumed run,
            # and on a stage retry whatever the previous attempt left
            # unwritten
            pending = self.shuffle_manager.missing_map_partitions(shuffle_id)
            stage = StageMetrics(stage_id=next(self._stage_counter),
                                 name=label, is_shuffle_map=True)
            tasks = [ShuffleMapTask(
                task_id=f"job{job.job_id}-s{stage.stage_id}-p{p}",
                stage_id=stage.stage_id, partition=p,
                dependency=dependency, shuffle_manager=self.shuffle_manager)
                for p in pending]
            return stage, tasks

        if not self.shuffle_manager.is_complete(shuffle_id):
            self._execute_stage_with_recovery(job, parent, build_map_stage,
                                              register_failed=False)
        self._journal_settled_shuffle(dependency)

    def _adopt_recovered_shuffle(self, dependency: ShuffleDependency,
                                 job: JobMetrics) -> None:
        """Re-register a prior run's map output for this shuffle, if valid.

        Every recorded span, key samples included, is CRC-revalidated
        without decoding it; every recorded map partition is adopted — one
        that wrote no records with no spans — except one with any bad span,
        which is dropped (and recomputed by the normal missing-partition
        path), and damage only decoding can reveal surfaces at the reduce
        read as a fetch failure, which recomputes that map from lineage —
        so the journal can only save work, never corrupt a result.  A shuffle fully served
        by recovered spans skips its map stage entirely and counts as a
        recovered stage.
        """
        if not self.recovered_shuffles:
            return
        key = shuffle_journal_key(dependency)
        if key is None:
            return
        entry = self.recovered_shuffles.pop(key, None)
        if entry is None:
            return
        per_map, samples, num_maps, invalid = validate_shuffle_entry(entry)
        recorded_reduces = entry.get("num_reduces") \
            if isinstance(entry, dict) else None
        if num_maps != dependency.parent.num_partitions or \
                recorded_reduces != dependency.partitioner.num_partitions:
            # the signature key already rules out a different program, so
            # this is belt-and-braces against a hand-edited journal:
            # nothing recorded is trustworthy for this stage
            self.pending_counters.recovery_invalid_entries += 1
            if self.journal is not None:
                self.journal.forget_shuffle(key)
            return
        self.pending_counters.recovery_invalid_entries += invalid
        self.shuffle_manager.adopt_catalog(
            dependency.shuffle_id, catalog_of(per_map, samples), "recovered")
        if per_map and self.shuffle_manager.is_complete(dependency.shuffle_id):
            job.stages_recovered += 1

    def _journal_settled_shuffle(self, dependency: ShuffleDependency) -> None:
        """Record a settled shuffle's durable span catalog in the journal.

        The entry is keyed by :func:`shuffle_journal_key` — shuffle id plus
        the map-side lineage signature — so a later ``recover_from`` resume
        of a *changed* program (which reuses the same per-context shuffle
        ids) can never match, and adopt, this program's map output.  A
        checkpoint is also served from those durable spans, never from
        memory, so its catalog is adopted back — even when its lineage has
        no key and nothing is journalled.
        """
        if self.journal is None:
            return
        if not self.shuffle_manager.is_complete(dependency.shuffle_id):
            return
        key = shuffle_journal_key(dependency)
        checkpoint = isinstance(dependency, CheckpointDependency)
        if key is None and not checkpoint:
            return
        catalog = self.shuffle_manager.export_durable_catalog(
            dependency.shuffle_id, self.journal.directory)
        if checkpoint:
            self.shuffle_manager.adopt_catalog(dependency.shuffle_id, catalog)
        if key is not None:
            self.journal.record_shuffle(
                key, dependency.shuffle_id,
                dependency.parent.num_partitions,
                dependency.partitioner.num_partitions, catalog)

    def _maybe_auto_checkpoint(self, dataset: Dataset,
                               dependency: ShuffleDependency) -> None:
        """Checkpoint the settled shuffle's consumer every N shuffle stages.

        ``checkpoint_interval`` counts settled shuffle-map stages across the
        context; on every Nth one the dataset consuming the fresh shuffle
        output is materialised through the context hook, truncating lineage
        there for later recomputation and for journal resume.
        """
        interval = self.config.checkpoint_interval
        if interval <= 0 or self.checkpoint_hook is None:
            return
        self._settled_shuffles += 1
        if self._settled_shuffles % interval:
            return
        found = _find_shuffle(dataset, dependency.shuffle_id)
        if found is not None:
            self.checkpoint_hook(found[0])

    # -- introspection ------------------------------------------------------------

    def explain(self, dataset: Dataset) -> List[str]:
        """Return a textual description of the lineage of ``dataset``."""
        lines: List[str] = []

        def walk(node: Dataset, depth: int) -> None:
            indent = "  " * depth
            lines.append(f"{indent}{node.name} "
                         f"[id={node.id}, partitions={node.num_partitions}"
                         f"{', cached' if node.is_cached else ''}]")
            for dependency in node.dependencies:
                if isinstance(dependency, ShuffleDependency):
                    lines.append(f"{indent}  (shuffle)")
                walk(dependency.parent, depth + 1)

        walk(dataset, 0)
        return lines
