"""Lazy, partitioned datasets with Spark-like semantics.

A :class:`Dataset` is an immutable description of a distributed collection:
it knows how many partitions it has, which parent datasets it derives from,
and how to compute one of its partitions given its parents.  Narrow
transformations (``map``, ``filter`` ...) are pipelined inside a single task;
wide transformations (``group_by_key``, ``join``, ``sort_by`` ...) introduce a
shuffle boundary handled by the scheduler.

Nothing is computed until an *action* (``collect``, ``count``, ``reduce`` ...)
is invoked, at which point the owning :class:`repro.engine.context.EngineContext`
runs a job through its scheduler and executor.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import (Any, Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple)

from ..errors import (CheckpointCorruptionError, PlanError,
                      ShuffleCorruptionError)
from . import plan as logical
from .columnar import ColumnBatch
from .fingerprint import dataset_fingerprint
from .memory import CODEC_NONE, Span, SpillRun, load_span
from .metrics import TaskContext
from .partitioner import HashPartitioner, Partitioner, RangePartitioner, RoundRobinPartitioner


# ---------------------------------------------------------------------------
# Batch plumbing
#
# Records move through the physical layer as batches: plain Python lists of
# at most ``EngineConfig.batch_size`` records (or, from a pruned scan,
# :class:`~repro.engine.columnar.ColumnBatch` vectors).  Every operator
# computes a partition one way, ``Dataset.compute_batches``; a consumer that
# wants records (a ``map_partitions`` UDF, an action without a batch form)
# gets the batches flattened by ``Dataset.iterator``.
# ---------------------------------------------------------------------------


def chunk_list(records: List[Any], batch_size: int) -> Iterator[List[Any]]:
    """Slice an in-memory list into batches of at most ``batch_size``."""
    for start in range(0, len(records), batch_size):
        yield records[start:start + batch_size]


def chunk_iterator(iterator: Iterator[Any], batch_size: int) -> Iterator[List[Any]]:
    """Drain any iterable into batches of at most ``batch_size``."""
    iterator = iter(iterator)
    while True:
        batch = list(itertools.islice(iterator, batch_size))
        if not batch:
            return
        yield batch


def batch_action(func: Callable[[Iterator[List[Any]]], Any]):
    """Mark an action's partition function as consuming batches.

    A result task hands such a function the partition's batch iterator;
    every other action function receives the flattened records.
    """
    func.consumes_batches = True
    return func


@batch_action
def collect_partition(batches: Iterable[List[Any]]) -> List[Any]:
    """Result-side of ``collect``: materialise the partition."""
    records: List[Any] = []
    extend = records.extend
    for batch in batches:
        extend(batch)
    return records


@batch_action
def count_partition(batches: Iterable[List[Any]]) -> int:
    """Result-side of ``count``: tally the partition's records."""
    return sum(map(len, batches))


# ---------------------------------------------------------------------------
# Shuffle building blocks
#
# These module-level factories build the map-side and reduce-side functions of
# every wide transformation.  They are shared between the Dataset API (which
# records the *unoptimized* physical form) and the plan optimizer's lowering
# (which may pick a different physical form, e.g. map-side combining).
#
# A map-side function consumes one parent partition as its iterable of
# batches and returns ``{reduce partition: [records]}``; the buckets do not
# depend on how the records were batched, so shuffle contents and byte
# accounting do not depend on the batch size.
# ---------------------------------------------------------------------------


def record_bucketer(partitioner: Partitioner):
    """Map side: bucket whole records by ``partitioner`` (repartition, sort).

    The assignment function is taken per invocation
    (:meth:`~repro.engine.partitioner.Partitioner.task_partition_for`) so
    positional partitioners restart their rotation for every task attempt —
    a recomputed map task rebuilds byte-identical buckets.
    """

    def map_side(batches: Iterable[List[Any]]) -> Dict[int, List[Any]]:
        partition_for = partitioner.task_partition_for()
        buckets: Dict[int, List[Any]] = {}
        setdefault = buckets.setdefault
        for batch in batches:
            for record in batch:
                setdefault(partition_for(record), []).append(record)
        return buckets

    return map_side


def key_bucketer(partitioner: Partitioner):
    """Map side: bucket ``(key, value)`` pairs by key, without combining."""

    def map_side(batches: Iterable[List[Any]]) -> Dict[int, List[Any]]:
        partition_for = partitioner.task_partition_for()
        buckets: Dict[int, List[Any]] = {}
        setdefault = buckets.setdefault
        for batch in batches:
            for key, value in batch:
                setdefault(partition_for(key), []).append((key, value))
        return buckets

    return map_side


def combining_map_side(create_combiner, merge_value, partitioner: Partitioner):
    """Map side with per-key pre-aggregation (inserted by the optimizer)."""

    def map_side(batches: Iterable[List[Any]]) -> Dict[int, List[Any]]:
        combined: Dict[Any, Any] = {}
        for batch in batches:
            for key, value in batch:
                if key in combined:
                    combined[key] = merge_value(combined[key], value)
                else:
                    combined[key] = create_combiner(value)
        partition_for = partitioner.task_partition_for()
        buckets: Dict[int, List[Any]] = {}
        setdefault = buckets.setdefault
        for key, combiner in combined.items():
            setdefault(partition_for(key), []).append((key, combiner))
        return buckets

    return map_side


def _fold_combiners(records: Iterable[Any], merge_combiners) -> Dict[Any, Any]:
    """Merge ``(key, combiner)`` pairs into per-key combiners, in order.

    The single fold shared by the full reduce and its per-slice form, so
    the split path cannot drift from the unsplit semantics.
    """
    merged: Dict[Any, Any] = {}
    for key, combiner in records:
        if key in merged:
            merged[key] = merge_combiners(merged[key], combiner)
        else:
            merged[key] = combiner
    return merged


def merge_combiners_reduce(merge_combiners):
    """Reduce side matching :func:`combining_map_side`: merge combiners."""
    def reduce_side(records: List[Any]) -> Iterable[Any]:
        return _fold_combiners(records, merge_combiners).items()
    return reduce_side


# ---------------------------------------------------------------------------
# Slice semantics for skew-aware sub-partition reads
#
# A skewed reduce partition can be served as several sub-reads over disjoint
# map-output slices (``ShuffleManager.read_reduce_input(..., map_range=...)``).
# Each wide operator that supports splitting supplies a ``(slice_reduce,
# merge_slices)`` pair: ``slice_reduce`` applies the reduce semantics to one
# slice's records, ``merge_slices`` folds the per-slice partials — in map
# range order — into output identical to the unsplit reduce (same records,
# same order).  Splits only ever fall *between* map slices, never inside one
# map task's combined run for a key, so per-key grouping stays correct and
# aggregations re-merge through their combiner.
# ---------------------------------------------------------------------------


def _merge_combiner_partials(merge_combiners, partials):
    """Fold per-slice ``{key: combiner}`` dicts, preserving first-appearance
    key order (identical to the unsplit single-pass fold)."""
    merged: Dict[Any, Any] = {}
    for partial in partials:
        for key, combiner in partial.items():
            if key in merged:
                merged[key] = merge_combiners(merged[key], combiner)
            else:
                merged[key] = combiner
    return merged.items()


def combiner_slice_merge(merge_combiners):
    """Slice semantics matching :func:`merge_combiners_reduce`."""
    def slice_reduce(records: List[Any]) -> Dict[Any, Any]:
        return _fold_combiners(records, merge_combiners)

    def merge_slices(partials: List[Dict[Any, Any]]) -> Iterable[Any]:
        return _merge_combiner_partials(merge_combiners, partials)

    return slice_reduce, merge_slices


def grouping_slice_merge():
    """Slice semantics matching :func:`group_reduce` (per-key value lists)."""
    def merge_slices(partials: List[Dict[Any, List[Any]]]) -> Iterable[Any]:
        merged: Dict[Any, List[Any]] = {}
        for partial in partials:
            for key, values in partial.items():
                existing = merged.get(key)
                if existing is None:
                    # the per-slice lists are throwaway: adopt, then extend
                    merged[key] = values
                else:
                    existing.extend(values)
        return merged.items()

    return _group_pairs, merge_slices


def distinct_slice_merge():
    """Slice semantics matching :func:`distinct_reduce` (ordered dedupe)."""
    def slice_reduce(records: List[Any]) -> List[Any]:
        return list(distinct_reduce(records))

    def merge_slices(partials: List[List[Any]]) -> List[Any]:
        return list(distinct_reduce(itertools.chain.from_iterable(partials)))

    return slice_reduce, merge_slices


def sorted_slice_merge(key_func, ascending: bool):
    """Slice semantics matching the sort reduce: sorted runs + stable merge.

    ``heapq.merge`` is stable and prefers earlier iterables on ties, so
    merging per-slice runs in map range order reproduces exactly what one
    stable sort of the concatenated records would yield.
    """
    def slice_reduce(records: List[Any]) -> List[Any]:
        return sorted(records, key=key_func, reverse=not ascending)

    def merge_slices(partials: List[List[Any]]) -> List[Any]:
        return list(heapq.merge(*partials, key=key_func,
                                reverse=not ascending))

    return slice_reduce, merge_slices


def _fold_values(records: Iterable[Any], create_combiner,
                 merge_value) -> Dict[Any, Any]:
    """Fold raw ``(key, value)`` pairs into per-key combiners, in order."""
    merged: Dict[Any, Any] = {}
    for key, value in records:
        if key in merged:
            merged[key] = merge_value(merged[key], value)
        else:
            merged[key] = create_combiner(value)
    return merged


def fold_values_reduce(create_combiner, merge_value):
    """Fold raw ``(key, value)`` pairs per key (matches :func:`key_bucketer`).

    Works on any iterable, so it doubles as the narrow per-partition
    aggregation used when the optimizer eliminates the shuffle.
    """
    def reduce_side(records: Iterable[Any]) -> Iterable[Any]:
        return _fold_values(records, create_combiner, merge_value).items()
    return reduce_side


#: Narrow per-partition aggregation: same fold, applied to the partition
#: iterator instead of fetched shuffle records.
local_aggregate = fold_values_reduce


def _group_pairs(records: Iterable[Any]) -> Dict[Any, List[Any]]:
    """Group ``(key, value)`` pairs into per-key value lists, in order."""
    grouped: Dict[Any, List[Any]] = {}
    setdefault = grouped.setdefault
    for key, value in records:
        setdefault(key, []).append(value)
    return grouped


def group_reduce(records: Iterable[Any]) -> Iterable[Any]:
    """Group ``(key, value)`` pairs; reduce side of ``group_by_key``."""
    return _group_pairs(records).items()


#: Narrow per-partition grouping (shuffle eliminated by the optimizer).
local_group = group_reduce


def distinct_map_side(partitioner: Partitioner):
    """Map side of ``distinct``: de-duplicate locally, bucket by record."""

    def map_side(batches: Iterable[List[Any]]) -> Dict[int, List[Any]]:
        partition_for = partitioner.task_partition_for()
        buckets: Dict[int, List[Any]] = {}
        setdefault = buckets.setdefault
        seen = set()
        for batch in batches:
            for record in batch:
                if record in seen:
                    continue
                seen.add(record)
                setdefault(partition_for(record), []).append(record)
        return buckets

    return map_side


def distinct_reduce(records: Iterable[Any]) -> Iterable[Any]:
    """De-duplicate records; reduce side of ``distinct``."""
    seen = set()
    for record in records:
        if record not in seen:
            seen.add(record)
            yield record


#: Narrow per-partition distinct (shuffle eliminated by the optimizer).
local_distinct = distinct_reduce


def field_projector(fields: List[str]):
    """Record function of ``project``: keep only the listed dict fields.

    The ``projection_fields`` marker lets batch kernels recognise the
    function as a pure field selection and run it as a
    :meth:`~repro.engine.columnar.ColumnBatch.project` column-reference
    operation when the incoming batch is columnar.
    """
    def project(record: Any) -> Dict[str, Any]:
        return {name: record.get(name) for name in fields}
    project.projection_fields = tuple(fields)
    return project


def join_display_name(how: str) -> str:
    """The dataset name of a join variant (shared by API and lowering)."""
    if how == "inner":
        return "join"
    if how.endswith("_outer"):
        return f"{how}_join"
    return how


def _note_memory_peak(ctx, task_context: TaskContext) -> None:
    """Sample the context's tracked shuffle residency into the task."""
    memory = getattr(ctx, "memory_manager", None)
    if memory is not None:
        task_context.note_peak(memory.used_bytes)


class _ExternalRunAccumulator:
    """Run-spilling protocol shared by the memory-bounded reduce paths.

    Tracks the estimated bytes of the caller's current in-memory run
    against the per-task budget (reserving them with the memory manager),
    spills completed runs to disk, and owns the cleanup of run files and
    the reservation.  Pickling failures mark the task unspillable — it
    keeps accumulating resident, the correct-but-unbounded fallback —
    while disk failures (OSError) propagate: silently growing unbounded
    would defeat the configured budget.
    """

    def __init__(self, ctx, task_context: TaskContext, owner):
        self._ctx = ctx
        self._memory = ctx.memory_manager
        self._task_context = task_context
        self._owner = owner
        self._budget = self._memory.task_run_budget(ctx.config.num_workers)
        self._bytes = 0
        self._spillable = True
        #: Frame codec of the owning shuffle manager (driver or worker
        #: client); spilled runs are compressed exactly like bucket spills.
        self._codec = getattr(ctx.shuffle_manager, "codec", CODEC_NONE)
        self.runs: List[SpillRun] = []

    def add_bytes(self, size: int) -> None:
        """Account one streamed bucket's estimated bytes to the run."""
        self._bytes += size
        self._task_context.note_peak(
            self._memory.reserve(self._owner, self._bytes))

    def maybe_spill(self, make_partial: Callable[[], Any]) -> bool:
        """Spill the current run when it outgrew the budget.

        ``make_partial`` produces the run's reduced partial (user reduce
        code runs inside it); returns True when the run was spilled and the
        caller must start a fresh one.
        """
        if self._bytes <= self._budget or not self._spillable:
            return False
        partial = make_partial()  # user reduce code: its errors propagate
        try:
            run = SpillRun.write(self._ctx.spill_dir(), partial, self._codec)
        except OSError:
            raise  # a disk failure must not silently lift the budget
        except Exception:
            # unpicklable records: stop trying, keep the run resident
            self._spillable = False
            return False
        self.runs.append(run)
        self._task_context.spills += 1
        self._task_context.spill_bytes += run.span.length
        self._bytes = 0
        self._memory.reserve(self._owner, 0)
        return True

    def release(self) -> None:
        """Drop the memory reservation (run files stay with the caller)."""
        self._memory.release(self._owner)

    def cleanup(self) -> None:
        """Delete every run file and drop the reservation."""
        for run in self.runs:
            run.delete()
        self.release()


# ---------------------------------------------------------------------------
# Dependencies
# ---------------------------------------------------------------------------


class Dependency:
    """A link from a dataset to one of its parents."""

    def __init__(self, parent: "Dataset"):
        self.parent = parent


class NarrowDependency(Dependency):
    """Each child partition depends on a bounded set of parent partitions."""


class ShuffleDependency(Dependency):
    """Child partitions depend on *all* parent partitions through a shuffle.

    ``map_side`` receives the batches of one parent partition and returns a
    dict mapping reduce-partition index to the list of records bound for it.
    """

    def __init__(self, parent: "Dataset", partitioner: Partitioner,
                 map_side: Callable[[Iterator[List[Any]]], Dict[int, List[Any]]],
                 shuffle_id: int):
        super().__init__(parent)
        self.partitioner = partitioner
        self.map_side = map_side
        self.shuffle_id = shuffle_id
        #: Estimated map-output bytes, stamped by the statistics layer; the
        #: scheduler runs cheaper pending shuffle stages first so adaptive
        #: re-optimization learns actual sizes before the expensive stages.
        self.estimated_bytes: Optional[float] = None


class Broadcast:
    """A value collected once on the driver and shared by every task."""

    def __init__(self) -> None:
        self.value: Any = None
        self.ready = False

    def set(self, value: Any) -> None:
        self.value = value
        self.ready = True


class BroadcastDependency(Dependency):
    """The child needs the *whole* parent collected into a driver-side value.

    The DAG scheduler fills the :class:`Broadcast` holder (running the parent
    as a nested job) before any task of the child executes.  ``kind`` selects
    what is collected from the parent's key-value records:

    ``key_values``
        ``{key: [value, ...]}`` — the hash table of a broadcast join build side.
    ``key_set``
        ``{key, ...}`` — used to emit unmatched build-side rows of outer joins.
    """

    KINDS = ("key_values", "key_set")

    def __init__(self, parent: "Dataset", holder: Broadcast, kind: str):
        super().__init__(parent)
        if kind not in self.KINDS:
            raise PlanError(f"unknown broadcast collection kind {kind!r}")
        self.holder = holder
        self.kind = kind

    def collect(self, iterator: Iterator[Any]) -> Any:
        """Per-partition collection function, run as a result task."""
        if self.kind == "key_values":
            grouped: Dict[Any, List[Any]] = {}
            for key, value in iterator:
                grouped.setdefault(key, []).append(value)
            return grouped
        return {key for key, _ in iterator}

    def assemble(self, partials: List[Any]) -> Any:
        """Merge the per-partition payloads into the broadcast value."""
        if self.kind == "key_values":
            merged: Dict[Any, List[Any]] = {}
            for partial in partials:
                for key, values in partial.items():
                    merged.setdefault(key, []).extend(values)
            return merged
        keys: set = set()
        for partial in partials:
            keys.update(partial)
        return keys


# ---------------------------------------------------------------------------
# Base dataset
# ---------------------------------------------------------------------------


class CheckpointEntry(NamedTuple):
    """One durable dataset checkpoint: its journal key and partition spans.

    Plain picklable state: a worker process ships it with the dataset and
    reads the spans directly (they live under ``checkpoint_dir``, outside
    any per-run scratch tree).
    """

    key: str
    spans: List[Span]


class Dataset:
    """An immutable, lazily evaluated, partitioned collection of records."""

    def __init__(self, ctx, num_partitions: int, dependencies: List[Dependency],
                 name: str = ""):
        if num_partitions < 1:
            raise PlanError("a dataset needs at least one partition")
        self.ctx = ctx
        self.id = ctx._next_dataset_id()
        self.num_partitions = int(num_partitions)
        self.dependencies = list(dependencies)
        self.name = name or type(self).__name__
        self.is_cached = False
        #: Logical plan node recorded by the API method that built this
        #: dataset; ``None`` for physical datasets built by plan lowering.
        self.plan: Optional[logical.LogicalNode] = None
        #: Memoised physical dataset actions execute (set by the context),
        #: valid while the context's cache epoch is unchanged.
        self._executable: Optional["Dataset"] = None
        self._executable_epoch = -1
        #: Lowered physical datasets that inherited this dataset's cache flag.
        self._cache_mirrors: List["Dataset"] = []
        #: Durable checkpoint backing this dataset, if :meth:`checkpoint`
        #: materialised (or recovery adopted) one; partitions are then
        #: served from its checksummed files and lineage truncates here.
        self._checkpoint: Optional[CheckpointEntry] = None
        #: Content fingerprint under which :meth:`share` placed this dataset
        #: in the context's borrowed block store (``None``: not shared), and
        #: the label blocks it publishes there are attributed to.
        self._share_key: Optional[str] = None
        self._share_origin = ""

    # -- plumbing -------------------------------------------------------------

    def __getstate__(self):
        """Pickle a dataset for shipment to a worker process.

        Driver-only state never crosses the boundary: the engine context is
        replaced by the worker's own (reattached by the worker runtime after
        unpickling, walking the task graph), and the logical plan, memoised
        executable and cache mirrors are plan-time artefacts the worker
        never evaluates.  Everything else — including installed skew-slice
        results — ships as is.
        """
        state = self.__dict__.copy()
        state["ctx"] = None
        state["plan"] = None
        state["_executable"] = None
        state["_cache_mirrors"] = []
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        """Compute one partition as batches of at most ``batch_size`` records.

        The one way a partition is computed: every operator implements it,
        pulling its parents through :meth:`batch_iterator`.
        """
        raise NotImplementedError

    def iterator(self, partition: int, task_context: TaskContext) -> Iterator[Any]:
        """The records of one partition: :meth:`batch_iterator`, flattened."""
        return itertools.chain.from_iterable(
            self.batch_iterator(partition, task_context))

    def _materialized(self, partition: int,
                      task_context: TaskContext) -> Optional[List[Any]]:
        """One partition of a persisted dataset as a list, or ``None``.

        Looks in the context's own store (``cache()``), then — on a local
        miss — in the borrowed one (:meth:`share`), and otherwise computes
        the partition and leaves it wherever it is wanted.  ``None`` means
        nobody keeps this block (a shared-only dataset whose key the
        borrowed store declines): the caller streams it as if unmarked.
        """
        local = self.ctx.block_store if self.is_cached else None
        shared = self.ctx.shared_blocks if self._share_key is not None else None
        cached = local.get(self.id, partition) if local is not None else None
        if cached is None and shared is not None:
            cached = shared.get(self._share_key, partition)
            if cached is not None:
                self.ctx.note_shared_hit(
                    self._share_key,
                    shared.origin_of(self._share_key, partition))
                if local is not None:
                    local.put(self.id, partition, cached)
        if cached is not None:
            task_context.cache_hits += 1
            # records served from a store are reads, like source reads
            task_context.records_read += len(cached)
            return cached
        publish = shared is not None and \
            shared.admits(self._share_key, partition)
        if local is None and not publish:
            return None
        if self.has_checkpoint:
            records = self._checkpoint_records(partition, task_context)
        else:
            records = collect_partition(self.compute_batches(
                partition, task_context, self.ctx.config.batch_size))
        if local is not None:
            local.put(self.id, partition, records)
        if publish:
            shared.put(self._share_key, partition, records,
                       origin=self._share_origin)
        # caching materialises the partition: that is written output
        task_context.records_written += len(records)
        return records

    def batch_iterator(self, partition: int,
                       task_context: TaskContext) -> Iterator[List[Any]]:
        """Compute a partition in batches, honouring cache and checkpoint.

        Batches hold at most ``EngineConfig.batch_size`` records; record and
        byte metrics are counted once per batch or stored block.
        """
        batch_size = self.ctx.config.batch_size
        if self.is_cached or self._share_key is not None:
            records = self._materialized(partition, task_context)
            if records is not None:
                return chunk_list(records, batch_size)
        if self.has_checkpoint:
            return chunk_list(self._checkpoint_records(partition, task_context),
                              batch_size)
        return self.compute_batches(partition, task_context, batch_size)

    @property
    def parents(self) -> List["Dataset"]:
        """The parent datasets this dataset is derived from."""
        return [dep.parent for dep in self.dependencies]

    def set_name(self, name: str) -> "Dataset":
        """Give the dataset a human-readable name (shown in plans/metrics)."""
        self.name = name
        return self

    def _attach_plan(self, node_cls, *args, **kwargs) -> "Dataset":
        """Record the logical node describing how this dataset was built.

        Called by the API transformation methods; when the parent has no plan
        (datasets built directly by plan lowering) the plan stays ``None`` and
        actions on this dataset run its physical form verbatim.
        """
        parents_plans = [dep.parent.plan for dep in self.dependencies]
        if all(p is not None for p in parents_plans):
            if len(parents_plans) == 1:
                self.plan = node_cls(parents_plans[0], *args, dataset=self, **kwargs)
            else:
                self.plan = node_cls(parents_plans, *args, dataset=self, **kwargs)
        return self

    def explain(self) -> str:
        """Render the logical, optimized and physical plans of this dataset.

        The three sections show the pipeline the API recorded, what the
        rule-based optimizer made of it (with the list of rules that fired)
        and the physical lineage the scheduler will actually execute.
        """
        return self.ctx.explain_dataset(self)

    def __repr__(self) -> str:
        return f"<{self.name} id={self.id} partitions={self.num_partitions}>"

    # -- persistence ------------------------------------------------------------

    def cache(self) -> "Dataset":
        """Mark the dataset so computed partitions are kept in memory."""
        self.is_cached = True
        # the cache flag changes what the optimizer may rewrite: re-plan
        # every memoised executable in this context, not just this dataset's
        self._executable = None
        self.ctx._cache_epoch += 1
        return self

    persist = cache

    def unpersist(self) -> "Dataset":
        """Drop any cached partitions and stop caching new ones.

        A :meth:`share` mark is dropped with the cache flag; blocks already
        in the borrowed store stay — other contexts may be reading them.
        """
        self.is_cached = False
        self._share_key = None
        self.ctx.block_store.evict_dataset(self.id)
        invalidated = [self.id]
        for mirror in self._cache_mirrors:
            mirror.is_cached = False
            mirror._share_key = None
            self.ctx.block_store.evict_dataset(mirror.id)
            invalidated.append(mirror.id)
        self._cache_mirrors.clear()
        # collected broadcast build sides derived from this dataset (or its
        # lowered mirrors) are dropped with the cache
        self.ctx.invalidate_broadcast_builds(*invalidated)
        self._executable = None
        self.ctx._cache_epoch += 1
        return self

    # -- content identity and cross-context sharing ------------------------------

    def fingerprint(self) -> Optional[str]:
        """Content identity of this dataset's lineage, or ``None``.

        A SHA-256 digest over the operators, partition counts, user-function
        bytecode (closure cells and defaults included), partitioners and
        source content the partitions depend on — and over no dataset id,
        name or cache flag — so the same lineage built in another context
        has the same fingerprint and a lineage differing in any option that
        reaches a closure does not (:mod:`repro.engine.fingerprint`).
        ``None`` when some value in the lineage has no identity of its own
        (an object with the default address-based ``repr``, a source without
        a fingerprint): such a dataset is never matched to anything.
        """
        return dataset_fingerprint(self)

    def share(self, origin: str = "") -> "Dataset":
        """Mark the dataset as a materialisation point shared across contexts.

        Partitions are then looked up in the block store the context
        borrowed (``EngineContext(shared_blocks=...)``) under
        ``(fingerprint(), partition)`` and, when that store admits them,
        materialised and published there, attributed to ``origin``.  Like
        ``cache()``, the mark is a barrier the optimizer does not fuse or
        push projections across.  A no-op when the context borrowed no
        store, runs the process backend (workers cannot see driver
        memory) or the lineage has no fingerprint.
        """
        if self._share_key is not None or self.ctx.shared_blocks is None or \
                self.ctx.config.executor_backend != "thread":
            return self
        self._share_key = self.fingerprint()
        if self._share_key is not None:
            self._share_origin = origin
            self._executable = None
            self.ctx._cache_epoch += 1
        return self

    # -- durable checkpointing ---------------------------------------------------

    @property
    def has_checkpoint(self) -> bool:
        """True when a durable checkpoint currently backs this dataset."""
        return self._checkpoint is not None

    def checkpoint(self) -> "Dataset":
        """Materialise every partition to durable, checksummed files.

        Requires ``EngineConfig.checkpoint_dir``.  Runs a job collecting the
        dataset, writes one CRC-framed file per partition (atomic
        tmp+rename+fsync), records the checkpoint in the job journal and
        truncates lineage here: later recomputation — stage retries, fault
        recovery, and jobs after a driver restart with ``recover_from`` —
        reads the files instead of re-running everything upstream.  When the
        context was recovered and the journal carries a checkpoint for this
        dataset's plan, the files are revalidated and adopted without
        recomputing.  A file that later fails its CRC invalidates the whole
        checkpoint and the job transparently falls back to lineage.
        Idempotent while the checkpoint is live.
        """
        self.ctx.checkpoint_dataset(self)
        return self

    def _checkpoint_records(self, partition: int,
                            task_context: TaskContext) -> List[Any]:
        """Serve one partition from its checkpoint span, verified.

        Any read problem — missing file, truncated payload, CRC mismatch,
        record-count drift — raises :class:`CheckpointCorruptionError`; the
        driver invalidates the checkpoint and re-runs the job from lineage,
        so corruption can cost time but never correctness.
        """
        try:
            records = load_span(self._checkpoint.spans[partition])
        except (OSError, ShuffleCorruptionError) as error:
            raise CheckpointCorruptionError(
                f"checkpoint partition {partition} of {self.name} is "
                f"unreadable: {error}", dataset_id=self.id,
                partition=partition) from error
        task_context.records_read += len(records)
        return records

    # -- narrow transformations --------------------------------------------------

    def map(self, func: Callable[[Any], Any]) -> "Dataset":
        """Apply ``func`` to every record."""
        return MappedDataset(self, func)._attach_plan(logical.MapNode, func)

    def filter(self, predicate: Callable[[Any], bool]) -> "Dataset":
        """Keep only the records for which ``predicate`` is true."""
        return FilteredDataset(self, predicate)._attach_plan(
            logical.FilterNode, predicate)

    def flat_map(self, func: Callable[[Any], Iterable[Any]]) -> "Dataset":
        """Apply ``func`` to every record and flatten the resulting iterables."""
        return FlatMappedDataset(self, func)._attach_plan(logical.FlatMapNode, func)

    def project(self, fields: Iterable[str]) -> "Dataset":
        """Keep only the listed fields of dict records.

        Unlike a plain :meth:`map`, a projection is transparent to the
        optimizer, which can push it below shuffle boundaries.
        """
        fields = list(fields)
        ds = MappedDataset(self, field_projector(fields))
        ds.name = "project"
        return ds._attach_plan(logical.ProjectNode, fields)

    def map_partitions(self, func: Callable[[Iterator[Any]], Iterable[Any]]) -> "Dataset":
        """Apply ``func`` to the whole iterator of each partition."""
        return MapPartitionsDataset(self, func)._attach_plan(
            logical.MapPartitionsNode, func)

    def map_partitions_with_index(
            self, func: Callable[[int, Iterator[Any]], Iterable[Any]]) -> "Dataset":
        """Like :meth:`map_partitions` but ``func`` also receives the partition index."""
        return MapPartitionsDataset(self, func, with_index=True)._attach_plan(
            logical.MapPartitionsNode, func, with_index=True)

    def union(self, other: "Dataset") -> "Dataset":
        """Concatenate two datasets (partitions are appended, not merged)."""
        return UnionDataset(self.ctx, [self, other])._attach_plan(logical.UnionNode)

    def sample(self, fraction: float, seed: int = 0) -> "Dataset":
        """Return a random sample of approximately ``fraction`` of the records."""
        if not 0.0 <= fraction <= 1.0:
            raise PlanError("sample fraction must be in [0, 1]")
        return SampleDataset(self, fraction, seed)._attach_plan(
            logical.SampleNode, fraction, seed)

    def zip_with_index(self) -> "Dataset":
        """Pair each record with its global index (triggers a size job).

        The offsets are baked from the physical plan that ran the size job,
        so the result is pinned to that exact plan: a later re-planning of
        the input (e.g. after ``cache()`` changes which rewrites apply)
        must not shift records between partitions under the offsets.
        """
        pinned = self.ctx._executable_for(self)
        sizes = self.ctx.run_job(self, count_partition,
                                 description=f"zip_with_index sizes of {self.name}")
        offsets = [0]
        for size in sizes[:-1]:
            offsets.append(offsets[-1] + size)

        def add_index(index: int, iterator: Iterator[Any]) -> Iterator[Any]:
            for position, record in enumerate(iterator):
                yield (record, offsets[index] + position)

        ds = MapPartitionsDataset(pinned, add_index, with_index=True)
        ds.name = "zip_with_index"
        ds.plan = logical.MapPartitionsNode(
            logical.PhysicalScanNode(pinned), add_index, with_index=True,
            dataset=ds)
        return ds

    def key_by(self, func: Callable[[Any], Any]) -> "Dataset":
        """Turn each record ``r`` into the pair ``(func(r), r)``."""
        return self.map(lambda record: (func(record), record))

    def keys(self) -> "Dataset":
        """Project the key of each key-value pair."""
        return self.map(lambda pair: pair[0])

    def values(self) -> "Dataset":
        """Project the value of each key-value pair."""
        return self.map(lambda pair: pair[1])

    def map_values(self, func: Callable[[Any], Any]) -> "Dataset":
        """Apply ``func`` to the value of each key-value pair."""
        return self.map(lambda pair: (pair[0], func(pair[1])))

    def flat_map_values(self, func: Callable[[Any], Iterable[Any]]) -> "Dataset":
        """Apply ``func`` to each value and emit one pair per produced element."""
        return self.flat_map(
            lambda pair: ((pair[0], value) for value in func(pair[1])))

    def coalesce(self, num_partitions: int) -> "Dataset":
        """Reduce the number of partitions without a shuffle."""
        if num_partitions < 1:
            raise PlanError("coalesce needs at least one partition")
        if num_partitions >= self.num_partitions:
            return self
        return CoalescedDataset(self, num_partitions)._attach_plan(
            logical.CoalesceNode, num_partitions)

    def glom(self) -> "Dataset":
        """Turn each partition into a single list record."""
        return self.map_partitions(lambda iterator: [list(iterator)])

    # -- wide transformations -------------------------------------------------------

    def repartition(self, num_partitions: int) -> "Dataset":
        """Redistribute records evenly over ``num_partitions`` via a shuffle."""
        partitioner = RoundRobinPartitioner(num_partitions, seed=self.ctx.config.seed)
        ds = ShuffledDataset(self, partitioner, record_bucketer(partitioner),
                             name=f"repartition({num_partitions})")
        return ds._attach_plan(logical.RepartitionNode, partitioner)

    def distinct(self, num_partitions: Optional[int] = None) -> "Dataset":
        """Remove duplicate records (records must be hashable)."""
        num_partitions = num_partitions or self.num_partitions
        partitioner = HashPartitioner(num_partitions)
        ds = ShuffledDataset(self, partitioner, distinct_map_side(partitioner),
                             reduce_side=distinct_reduce, name="distinct",
                             slices=distinct_slice_merge())
        return ds._attach_plan(logical.DistinctNode, partitioner)

    def group_by_key(self, num_partitions: Optional[int] = None) -> "Dataset":
        """Group values sharing a key: ``(k, v) -> (k, [v, ...])``."""
        num_partitions = num_partitions or self.num_partitions
        partitioner = HashPartitioner(num_partitions)
        ds = ShuffledDataset(self, partitioner, key_bucketer(partitioner),
                             reduce_side=group_reduce, name="group_by_key",
                             slices=grouping_slice_merge())
        return ds._attach_plan(logical.GroupByKeyNode, partitioner)

    def group_by(self, func: Callable[[Any], Any],
                 num_partitions: Optional[int] = None) -> "Dataset":
        """Group records by ``func(record)``."""
        return self.map(lambda record: (func(record), record)).group_by_key(num_partitions)

    def combine_by_key(self, create_combiner: Callable[[Any], Any],
                       merge_value: Callable[[Any, Any], Any],
                       merge_combiners: Callable[[Any, Any], Any],
                       num_partitions: Optional[int] = None) -> "Dataset":
        """General per-key aggregation.

        The logical plan records a plain key-partitioned aggregation; the
        optimizer's ``map_side_combine`` rule (on by default) rewrites it to
        pre-aggregate on the map side, shrinking the shuffle.
        """
        num_partitions = num_partitions or self.num_partitions
        partitioner = HashPartitioner(num_partitions)
        # no slice spec: an *uncombined* aggregation only executes when the
        # map-side-combine rewrite is disabled, which signals the caller does
        # not trust merge_combiners associativity — re-merging skew slices
        # through it would make the same assumption, so such datasets report
        # supports_slice_reads=False and are never split
        ds = ShuffledDataset(
            self, partitioner, key_bucketer(partitioner),
            reduce_side=fold_values_reduce(create_combiner, merge_value),
            name="combine_by_key")
        return ds._attach_plan(logical.AggregateNode, create_combiner,
                               merge_value, merge_combiners, partitioner,
                               name="combine_by_key")

    def reduce_by_key(self, func: Callable[[Any, Any], Any],
                      num_partitions: Optional[int] = None) -> "Dataset":
        """Merge the values of each key with an associative function."""
        return self.combine_by_key(lambda value: value, func, func, num_partitions)

    def aggregate_by_key(self, zero: Any, seq_func: Callable[[Any, Any], Any],
                         comb_func: Callable[[Any, Any], Any],
                         num_partitions: Optional[int] = None) -> "Dataset":
        """Aggregate the values of each key starting from a neutral element."""
        return self.combine_by_key(lambda value: seq_func(zero, value),
                                   seq_func, comb_func, num_partitions)

    def sort_by(self, key_func: Callable[[Any], Any], ascending: bool = True,
                num_partitions: Optional[int] = None,
                key_fields: Optional[List[str]] = None) -> "Dataset":
        """Globally sort the records by ``key_func`` (range shuffle + local sort).

        ``key_fields`` optionally declares which dict fields ``key_func``
        reads; the optimizer may then sink projections keeping all of them
        below the sort's shuffle (key-preservation analysis) so narrower
        records cross the wire.
        """
        num_partitions = num_partitions or self.num_partitions
        sample_fraction = min(1.0, 2000.0 / max(1, self._estimated_size()))
        sample = self.sample(sample_fraction, seed=self.ctx.config.seed).collect()
        if not sample:
            sample = self.take(100)
        partitioner = RangePartitioner.from_sample(sample, num_partitions,
                                                   key_func=key_func,
                                                   ascending=ascending)

        def reduce_side(records: List[Any]) -> Iterable[Any]:
            return sorted(records, key=key_func, reverse=not ascending)

        ds = ShuffledDataset(self, partitioner, record_bucketer(partitioner),
                             reduce_side=reduce_side, name="sort_by",
                             slices=sorted_slice_merge(key_func, ascending))
        return ds._attach_plan(logical.SortNode, key_func, ascending, partitioner,
                               key_fields=key_fields)

    def sort_by_key(self, ascending: bool = True,
                    num_partitions: Optional[int] = None) -> "Dataset":
        """Sort key-value pairs by key."""
        return self.sort_by(lambda pair: pair[0], ascending, num_partitions)

    def cogroup(self, other: "Dataset",
                num_partitions: Optional[int] = None) -> "Dataset":
        """Group both datasets by key: ``(k, ([self values], [other values]))``."""
        num_partitions = num_partitions or max(self.num_partitions, other.num_partitions)
        partitioner = HashPartitioner(num_partitions)
        ds = CoGroupedDataset(self, other, partitioner)
        return ds._attach_plan(logical.CoGroupNode, partitioner)

    def _join_with(self, other: "Dataset", emit, how: str,
                   num_partitions: Optional[int]) -> "Dataset":
        """Common shape of every join: cogroup, then emit matched pairs."""
        cogrouped = self.cogroup(other, num_partitions)
        ds = cogrouped.flat_map(emit).set_name(join_display_name(how))
        if cogrouped.plan is not None:
            ds.plan = logical.JoinNode(cogrouped.plan, emit, how, dataset=ds)
        return ds

    def join(self, other: "Dataset",
             num_partitions: Optional[int] = None) -> "Dataset":
        """Inner join two key-value datasets: ``(k, (v_self, v_other))``."""
        def emit(pair):
            key, (left_values, right_values) = pair
            return ((key, (left, right))
                    for left in left_values for right in right_values)
        return self._join_with(other, emit, "inner", num_partitions)

    def left_outer_join(self, other: "Dataset",
                        num_partitions: Optional[int] = None) -> "Dataset":
        """Left outer join: unmatched left records pair with ``None``."""
        def emit(pair):
            key, (left_values, right_values) = pair
            if not left_values:
                return []
            rights = right_values or [None]
            return ((key, (left, right)) for left in left_values for right in rights)
        return self._join_with(other, emit, "left_outer", num_partitions)

    def right_outer_join(self, other: "Dataset",
                         num_partitions: Optional[int] = None) -> "Dataset":
        """Right outer join: unmatched right records pair with ``None``."""
        def emit(pair):
            key, (left_values, right_values) = pair
            if not right_values:
                return []
            lefts = left_values or [None]
            return ((key, (left, right)) for left in lefts for right in right_values)
        return self._join_with(other, emit, "right_outer", num_partitions)

    def full_outer_join(self, other: "Dataset",
                        num_partitions: Optional[int] = None) -> "Dataset":
        """Full outer join: unmatched records on either side pair with ``None``."""
        def emit(pair):
            key, (left_values, right_values) = pair
            lefts = left_values or [None]
            rights = right_values or [None]
            return ((key, (left, right)) for left in lefts for right in rights)
        return self._join_with(other, emit, "full_outer", num_partitions)

    def subtract_by_key(self, other: "Dataset",
                        num_partitions: Optional[int] = None) -> "Dataset":
        """Keep pairs whose key does not appear in ``other``."""
        def emit(pair):
            key, (left_values, right_values) = pair
            if right_values:
                return []
            return ((key, left) for left in left_values)
        return self._join_with(other, emit, "subtract_by_key", num_partitions)

    # -- actions ----------------------------------------------------------------

    def collect(self) -> List[Any]:
        """Return every record as a local list."""
        partitions = self.ctx.run_job(self, collect_partition,
                                      description=f"collect {self.name}")
        return list(itertools.chain.from_iterable(partitions))

    def collect_as_map(self) -> Dict[Any, Any]:
        """Collect key-value pairs into a dict (later keys overwrite earlier)."""
        return dict(self.collect())

    def count(self) -> int:
        """Return the number of records."""
        partitions = self.ctx.run_job(self, count_partition,
                                      description=f"count {self.name}")
        return sum(partitions)

    def count_by_value(self) -> Dict[Any, int]:
        """Return a dict mapping each distinct record to its multiplicity."""
        def count_partition(iterator: Iterator[Any]) -> Dict[Any, int]:
            counts: Dict[Any, int] = {}
            for record in iterator:
                counts[record] = counts.get(record, 0) + 1
            return counts
        partials = self.ctx.run_job(self, count_partition,
                                    description=f"count_by_value {self.name}")
        merged: Dict[Any, int] = {}
        for partial in partials:
            for key, value in partial.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def count_by_key(self) -> Dict[Any, int]:
        """Count records per key of a key-value dataset."""
        return self.keys().count_by_value()

    def first(self) -> Any:
        """Return the first record (raises if the dataset is empty)."""
        taken = self.take(1)
        if not taken:
            raise PlanError(f"dataset {self.name} is empty")
        return taken[0]

    def take(self, n: int) -> List[Any]:
        """Return the first ``n`` records, scanning as few partitions as possible."""
        if n <= 0:
            return []
        collected: List[Any] = []
        for partition in range(self.num_partitions):
            needed = n - len(collected)
            if needed <= 0:
                break
            results = self.ctx.run_job(
                self, lambda it, needed=needed: list(itertools.islice(it, needed)),
                partitions=[partition], description=f"take {self.name}")
            collected.extend(results[0])
        return collected[:n]

    def top(self, n: int, key: Callable[[Any], Any] = None) -> List[Any]:
        """Return the ``n`` largest records according to ``key``."""
        def top_partition(iterator: Iterator[Any]) -> List[Any]:
            return heapq.nlargest(n, iterator, key=key)
        partials = self.ctx.run_job(self, top_partition,
                                    description=f"top {self.name}")
        return heapq.nlargest(n, itertools.chain.from_iterable(partials), key=key)

    def reduce(self, func: Callable[[Any, Any], Any]) -> Any:
        """Reduce all records with an associative binary function."""
        def reduce_partition(iterator: Iterator[Any]) -> List[Any]:
            accumulator = None
            empty = True
            for record in iterator:
                if empty:
                    accumulator = record
                    empty = False
                else:
                    accumulator = func(accumulator, record)
            return [] if empty else [accumulator]
        partials = self.ctx.run_job(self, reduce_partition,
                                    description=f"reduce {self.name}")
        flattened = list(itertools.chain.from_iterable(partials))
        if not flattened:
            raise PlanError(f"cannot reduce empty dataset {self.name}")
        accumulator = flattened[0]
        for value in flattened[1:]:
            accumulator = func(accumulator, value)
        return accumulator

    def fold(self, zero: Any, func: Callable[[Any, Any], Any]) -> Any:
        """Reduce with a neutral element (safe on empty datasets)."""
        def fold_partition(iterator: Iterator[Any]) -> Any:
            accumulator = zero
            for record in iterator:
                accumulator = func(accumulator, record)
            return accumulator
        partials = self.ctx.run_job(self, fold_partition,
                                    description=f"fold {self.name}")
        # combine the per-partition results without re-applying the zero value,
        # so fold(z, f) over an empty dataset returns z exactly once
        accumulator = partials[0]
        for value in partials[1:]:
            accumulator = func(accumulator, value)
        return accumulator

    def aggregate(self, zero: Any, seq_func: Callable[[Any, Any], Any],
                  comb_func: Callable[[Any, Any], Any]) -> Any:
        """Aggregate with different intra- and inter-partition functions."""
        def aggregate_partition(iterator: Iterator[Any]) -> Any:
            accumulator = zero
            for record in iterator:
                accumulator = seq_func(accumulator, record)
            return accumulator
        partials = self.ctx.run_job(self, aggregate_partition,
                                    description=f"aggregate {self.name}")
        accumulator = zero
        for value in partials:
            accumulator = comb_func(accumulator, value)
        return accumulator

    def sum(self) -> float:
        """Sum numeric records."""
        return self.fold(0, lambda acc, record: acc + record)

    def mean(self) -> float:
        """Arithmetic mean of numeric records."""
        total, count = self.aggregate(
            (0.0, 0),
            lambda acc, record: (acc[0] + record, acc[1] + 1),
            lambda left, right: (left[0] + right[0], left[1] + right[1]))
        if count == 0:
            raise PlanError(f"cannot take the mean of empty dataset {self.name}")
        return total / count

    def min(self, key: Callable[[Any], Any] = None) -> Any:
        """Smallest record."""
        key = key or (lambda value: value)
        return self.reduce(lambda left, right: left if key(left) <= key(right) else right)

    def max(self, key: Callable[[Any], Any] = None) -> Any:
        """Largest record."""
        key = key or (lambda value: value)
        return self.reduce(lambda left, right: left if key(left) >= key(right) else right)

    def stats(self) -> Dict[str, float]:
        """Count, mean, min, max, variance and stdev of numeric records."""
        def seq(acc, value):
            count, total, total_sq, minimum, maximum = acc
            return (count + 1, total + value, total_sq + value * value,
                    value if minimum is None else min(minimum, value),
                    value if maximum is None else max(maximum, value))

        def comb(left, right):
            if left[0] == 0:
                return right
            if right[0] == 0:
                return left
            return (left[0] + right[0], left[1] + right[1], left[2] + right[2],
                    min(left[3], right[3]), max(left[4], right[4]))

        count, total, total_sq, minimum, maximum = self.aggregate(
            (0, 0.0, 0.0, None, None), seq, comb)
        if count == 0:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "variance": 0.0, "stdev": 0.0, "sum": 0.0}
        mean = total / count
        variance = max(0.0, total_sq / count - mean * mean)
        return {"count": count, "mean": mean, "min": minimum, "max": maximum,
                "variance": variance, "stdev": variance ** 0.5, "sum": total}

    def lookup(self, key: Any) -> List[Any]:
        """Return every value associated with ``key`` in a key-value dataset."""
        return self.filter(lambda pair: pair[0] == key).values().collect()

    def foreach(self, func: Callable[[Any], None]) -> None:
        """Apply a side-effecting function to every record."""
        def run_partition(iterator: Iterator[Any]) -> int:
            count = 0
            for record in iterator:
                func(record)
                count += 1
            return count
        self.ctx.run_job(self, run_partition, description=f"foreach {self.name}")

    def to_local_iterator(self) -> Iterator[Any]:
        """Iterate over all records partition by partition."""
        for partition in range(self.num_partitions):
            results = self.ctx.run_job(self, list, partitions=[partition],
                                       description=f"to_local_iterator {self.name}")
            for record in results[0]:
                yield record

    def histogram(self, buckets: int) -> Tuple[List[float], List[int]]:
        """Histogram of numeric records over equally sized buckets."""
        if buckets < 1:
            raise PlanError("histogram needs at least one bucket")
        statistics = self.stats()
        if statistics["count"] == 0:
            return [], []
        low, high = statistics["min"], statistics["max"]
        if low == high:
            return [low, high], [int(statistics["count"])]
        width = (high - low) / buckets
        edges = [low + i * width for i in range(buckets + 1)]

        def bucket_of(value: float) -> int:
            index = int((value - low) / width)
            return min(buckets - 1, max(0, index))

        counts_by_bucket = self.map(bucket_of).count_by_value()
        counts = [counts_by_bucket.get(i, 0) for i in range(buckets)]
        return edges, counts

    # -- helpers -----------------------------------------------------------------

    def _estimated_size(self) -> int:
        """Cheap, possibly inaccurate estimate of the number of records."""
        node = self
        while node.dependencies:
            node = node.dependencies[0].parent
        return getattr(node, "_size_hint", 10_000)


class LineageStub(Dataset):
    """What a stage payload ships in place of lineage its tasks never read.

    The process backend replaces the parent behind a complete shuffle, a
    filled broadcast or a live checkpoint with one of these *in the shipped
    copy of the graph only* (:mod:`repro.engine.executor`); the driver keeps
    the full lineage, because every recovery path recomputes from it and
    republishes.  A stub keeps the identity a diagnostic needs and refuses
    to compute.
    """

    def __init__(self, original: Dataset):
        # not Dataset.__init__: a stub borrows an identity, it allocates none
        self.ctx = None
        self.id = original.id
        self.name = original.name
        self.num_partitions = original.num_partitions
        self.dependencies = []
        self.is_cached = False
        self._checkpoint = None
        self._share_key = None

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        raise PlanError(
            f"dataset '{self.name}' (id {self.id}) was cut from this stage's "
            f"payload: it sits behind a complete shuffle, a filled broadcast "
            f"or a checkpoint, and only the driver's lineage can recompute it")


# ---------------------------------------------------------------------------
# Concrete narrow datasets
# ---------------------------------------------------------------------------


class ParallelCollectionDataset(Dataset):
    """A dataset created from an in-memory Python sequence.

    The one dataset whose *data* is part of its lineage.  In the driver the
    sequence stays resident and partitions are slices of it.  It crosses to
    worker processes once, not once per stage: :meth:`publish` frames every
    partition into one transport file, the pickled state carries the
    per-partition spans instead of the records, and a worker loads only the
    span of the partition it computes.
    """

    def __init__(self, ctx, data: Iterable[Any], num_partitions: int):
        super().__init__(ctx, num_partitions, [], name="parallelize")
        self._data = list(data)
        self._size_hint = len(self._data)
        #: Spans of the published partitions (``None`` until the process
        #: backend first ships this dataset); the file is swept with the
        #: transport root when the context stops.
        self._spans: Optional[List[Span]] = None

    def __getstate__(self):
        state = super().__getstate__()
        if self._spans is not None:
            state["_data"] = None
        return state

    def share(self, origin: str = "") -> "Dataset":
        """Already resident in the driver: there is nothing to share."""
        return self

    def _bounds(self, partition: int) -> Tuple[int, int]:
        total = len(self._data)
        return ((partition * total) // self.num_partitions,
                ((partition + 1) * total) // self.num_partitions)

    def publish(self, transport) -> None:
        """Write every partition through the transport, once per context."""
        if self._spans is not None:
            return
        with transport.input_writer(self.id) as writer:
            self._spans = [writer.append(self._data[slice(*self._bounds(p))])
                           for p in range(self.num_partitions)]

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        if self._data is None:  # a worker: read the published span
            records = load_span(self._spans[partition])
        else:
            start, end = self._bounds(partition)
            records = self._data[start:end]
        for batch in chunk_list(records, batch_size):
            task_context.records_read += len(batch)
            yield batch


class SourceDataset(Dataset):
    """A dataset backed by a :class:`repro.data.sources.DataSource`.

    ``columns`` restricts the scan to the listed schema fields (a pruned,
    projection-aware scan lowered from a
    :class:`~repro.engine.plan.ProjectedScanNode`); ``None`` reads every
    field.  The batch representation follows the plan: only a pruned scan of
    a schema-bearing source yields :class:`~repro.engine.columnar.ColumnBatch`
    vectors; a full-width scan passes the source's own records through in row
    lists, since its first consumer (UDF, bucketer) would rebuild every dict.
    """

    def __init__(self, ctx, source, num_partitions: int,
                 columns: Optional[List[str]] = None):
        name = f"source({source.name})"
        if columns is not None:
            name = f"source({source.name})[{','.join(columns)}]"
        super().__init__(ctx, num_partitions, [], name=name)
        self._source = source
        self._columns = list(columns) if columns is not None else None
        self._size_hint = source.estimated_size()

    def _rows(self, partition: int) -> Iterator[Any]:
        records = self._source.read_partition(partition, self.num_partitions)
        if self._columns is None:
            return iter(records)
        names = self._columns
        return ({name: record.get(name) for name in names}
                for record in records)

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        columns = None
        if self._columns is not None:
            columns = self._source.read_partition_columns(
                partition, self.num_partitions, self._columns)
        if columns is not None:
            batches = (columns.slice(start, start + batch_size)
                       for start in range(0, len(columns), batch_size))
        else:
            batches = chunk_iterator(self._rows(partition), batch_size)
        for batch in batches:
            task_context.records_read += len(batch)
            yield batch


class MappedDataset(Dataset):
    """Result of :meth:`Dataset.map`."""

    def __init__(self, parent: Dataset, func: Callable[[Any], Any]):
        super().__init__(parent.ctx, parent.num_partitions,
                         [NarrowDependency(parent)], name="map")
        self._func = func

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        func = self._func
        fields = getattr(func, "projection_fields", None)
        parent = self.dependencies[0].parent
        for batch in parent.batch_iterator(partition, task_context):
            if fields is not None and isinstance(batch, ColumnBatch) and \
                    batch.has_fields(fields):
                # pure field selection over a columnar batch: select column
                # references instead of building a dict per record
                yield batch.project(fields)
            else:
                yield list(map(func, batch))


class FilteredDataset(Dataset):
    """Result of :meth:`Dataset.filter`."""

    def __init__(self, parent: Dataset, predicate: Callable[[Any], bool]):
        super().__init__(parent.ctx, parent.num_partitions,
                         [NarrowDependency(parent)], name="filter")
        self._predicate = predicate

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        predicate = self._predicate
        parent = self.dependencies[0].parent
        for batch in parent.batch_iterator(partition, task_context):
            kept = list(filter(predicate, batch))
            if kept:
                yield kept


class FlatMappedDataset(Dataset):
    """Result of :meth:`Dataset.flat_map`."""

    def __init__(self, parent: Dataset, func: Callable[[Any], Iterable[Any]]):
        super().__init__(parent.ctx, parent.num_partitions,
                         [NarrowDependency(parent)], name="flat_map")
        self._func = func

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        # expansion is streamed at C level and re-chunked: materialising a
        # whole input batch's expansion in one list trashes allocator
        # locality when records fan out (e.g. join emission after cogroup)
        parent = self.dependencies[0].parent
        records = itertools.chain.from_iterable(
            map(self._func, parent.iterator(partition, task_context)))
        return chunk_iterator(records, batch_size)


class MapPartitionsDataset(Dataset):
    """Result of :meth:`Dataset.map_partitions`."""

    def __init__(self, parent: Dataset,
                 func: Callable[..., Iterable[Any]], with_index: bool = False):
        super().__init__(parent.ctx, parent.num_partitions,
                         [NarrowDependency(parent)], name="map_partitions")
        self._func = func
        self._with_index = with_index

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        # the UDF owns the partition's record iterator; its output re-chunks
        records = self.dependencies[0].parent.iterator(partition, task_context)
        if self._with_index:
            produced = self._func(partition, records)
        else:
            produced = self._func(records)
        return chunk_iterator(produced, batch_size)


class FusedDataset(Dataset):
    """A chain of narrow operators evaluated as one physical operator.

    Built by the optimizer's ``fuse_narrow`` rule from a chain of logical
    map/filter/flat_map/project nodes.  ``stages`` is a list of
    ``(kind, func)`` pairs applied bottom-to-top over the parent iterator, so
    one task evaluates the whole pipeline without intermediate datasets.
    """

    _KINDS = ("map", "filter", "flat_map", "project")

    def __init__(self, parent: Dataset, stages: List[Tuple[str, Callable]],
                 name: str = ""):
        super().__init__(parent.ctx, parent.num_partitions,
                         [NarrowDependency(parent)],
                         name=name or f"fused({'+'.join(k for k, _ in stages)})")
        for kind, _ in stages:
            if kind not in self._KINDS:
                raise PlanError(f"cannot fuse operator kind {kind!r}")
        self._stages = list(stages)

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        parent = self.dependencies[0].parent
        stages = self._stages
        if any(kind == "flat_map" for kind, _ in stages):
            # expansions stream at C level and re-chunk (see
            # FlatMappedDataset.compute_batches); the parent still feeds
            # the chain batch-at-a-time
            iterator = parent.iterator(partition, task_context)
            for kind, func in stages:
                if kind in ("map", "project"):
                    iterator = map(func, iterator)
                elif kind == "filter":
                    iterator = filter(func, iterator)
                else:  # flat_map
                    iterator = itertools.chain.from_iterable(map(func, iterator))
            yield from chunk_iterator(iterator, batch_size)
            return
        # the whole fused chain is composed into one C-level map/filter
        # pipeline evaluated per batch: a single output list per batch, no
        # intermediate lists, no per-record generator resumptions
        for batch in parent.batch_iterator(partition, task_context):
            chain: Any = batch
            index = 0
            # leading projection stages over a columnar batch stay columnar:
            # each is a column-reference selection, no rows are built until
            # (unless) a non-projection stage needs them
            while index < len(stages) and isinstance(chain, ColumnBatch):
                fields = getattr(stages[index][1], "projection_fields", None)
                if fields is None or not chain.has_fields(fields):
                    break
                chain = chain.project(fields)
                index += 1
            if index == len(stages):
                if len(chain):
                    yield chain
                continue
            for kind, func in stages[index:]:
                chain = filter(func, chain) if kind == "filter" \
                    else map(func, chain)
            produced = list(chain)
            if produced:
                yield produced


class UnionDataset(Dataset):
    """Concatenation of several datasets."""

    def __init__(self, ctx, parents: List[Dataset]):
        if not parents:
            raise PlanError("union needs at least one parent")
        num_partitions = sum(parent.num_partitions for parent in parents)
        super().__init__(ctx, num_partitions,
                         [NarrowDependency(parent) for parent in parents],
                         name="union")
        #: Union partition -> (dependency index, parent partition).  Parents
        #: are reached through ``dependencies`` only, so a shipped copy of
        #: the graph reads exactly the parents it was given.
        self._offsets: List[Tuple[int, int]] = [
            (position, index)
            for position, parent in enumerate(parents)
            for index in range(parent.num_partitions)]

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        position, parent_partition = self._offsets[partition]
        return self.dependencies[position].parent.batch_iterator(
            parent_partition, task_context)


class SampleDataset(Dataset):
    """Bernoulli sample of a parent dataset."""

    def __init__(self, parent: Dataset, fraction: float, seed: int):
        super().__init__(parent.ctx, parent.num_partitions,
                         [NarrowDependency(parent)], name="sample")
        self._fraction = fraction
        self._seed = seed

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        # one rng seeded per partition, one draw per record in partition
        # order: the kept records do not depend on the batch size
        parent = self.dependencies[0].parent
        rand = random.Random(f"{self._seed}:{partition}").random
        fraction = self._fraction
        for batch in parent.batch_iterator(partition, task_context):
            kept = [record for record in batch if rand() < fraction]
            if kept:
                yield kept


class CoalescedDataset(Dataset):
    """Merge parent partitions into fewer child partitions without a shuffle."""

    def __init__(self, parent: Dataset, num_partitions: int):
        super().__init__(parent.ctx, num_partitions,
                         [NarrowDependency(parent)], name="coalesce")
        self._groups: List[List[int]] = [[] for _ in range(num_partitions)]
        for index in range(parent.num_partitions):
            self._groups[index % num_partitions].append(index)

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        parent = self.dependencies[0].parent
        for parent_partition in self._groups[partition]:
            yield from parent.batch_iterator(parent_partition, task_context)


# ---------------------------------------------------------------------------
# Wide datasets
# ---------------------------------------------------------------------------


class SplittableShuffleRead:
    """Skew-split plumbing shared by the shuffle-reading datasets.

    The ``split_skewed_shuffle`` rule stamps a *split plan* — per reduce
    partition, a list of ``(dependency_index, map_lo, map_hi)`` slice units —
    onto the physical dataset once actual map-output bytes identify a
    straggler partition.  The scheduler then runs one task per unit
    (:meth:`read_slice`), merges the per-slice partials back in unit order
    (:meth:`install_slice_result`) and the partition's normal compute
    consumes the merged records instead of re-reading the whole shuffle.
    Overrides are one-shot: each job's sub-read stage installs them fresh.
    """

    def _init_split_state(self) -> None:
        self._split_plan: Dict[int, List[Tuple[int, int, int]]] = {}
        self._slice_results: Dict[int, Any] = {}

    @property
    def split_plan(self) -> Dict[int, List[Tuple[int, int, int]]]:
        """Reduce partition -> slice units, empty when no skew was found."""
        return self._split_plan

    def set_split_plan(self, plan: Dict[int, List[Tuple[int, int, int]]]) -> None:
        """Record the per-reduce-partition split plan (rule-stamped)."""
        self._split_plan = {partition: list(units)
                            for partition, units in plan.items()}

    @property
    def supports_slice_reads(self) -> bool:
        """Whether this dataset can serve a partition as merged sub-reads."""
        raise NotImplementedError

    def read_slice(self, partition: int, unit: Tuple[int, int, int],
                   task_context: TaskContext) -> Any:
        """Read one map-output slice and apply the per-slice reduction."""
        raise NotImplementedError

    def install_slice_result(self, partition: int, partials: List[Any]) -> None:
        """Merge per-slice partials (in unit order) into the partition override."""
        raise NotImplementedError

    def _pop_override(self, partition: int):
        return self._slice_results.pop(partition, None)


class ShuffledDataset(Dataset, SplittableShuffleRead):
    """A dataset whose partitions are produced by a shuffle.

    ``slices`` optionally carries the ``(slice_reduce, merge_slices)`` pair
    (see the slice-semantics factories above) that lets a skewed reduce
    partition be computed as parallel sub-reads over disjoint map-output
    slices with results identical to the unsplit read.
    """

    def __init__(self, parent: Dataset, partitioner: Partitioner,
                 map_side: Callable[[Iterator[Any]], Dict[int, List[Any]]],
                 reduce_side: Optional[Callable[[List[Any]], Iterable[Any]]] = None,
                 name: str = "shuffle",
                 slices: Optional[Tuple[Callable, Callable]] = None):
        ctx = parent.ctx
        shuffle_id = ctx._next_shuffle_id()
        dependency = ShuffleDependency(parent, partitioner, map_side, shuffle_id)
        super().__init__(ctx, partitioner.num_partitions, [dependency], name=name)
        self._reduce_side = reduce_side
        self._slice_reduce, self._merge_slices = slices or (None, None)
        self._init_split_state()

    @property
    def shuffle_dependency(self) -> ShuffleDependency:
        """The single shuffle dependency feeding this dataset."""
        return self.dependencies[0]

    @property
    def supports_slice_reads(self) -> bool:
        # a reduce-side-less shuffle (repartition) splits by concatenation;
        # anything else needs explicit slice semantics
        return self._reduce_side is None or self._merge_slices is not None

    def read_slice(self, partition: int, unit: Tuple[int, int, int],
                   task_context: TaskContext) -> Any:
        _, map_lo, map_hi = unit
        records, size = self.ctx.shuffle_manager.read_reduce_input(
            self.shuffle_dependency.shuffle_id, partition,
            map_range=(map_lo, map_hi))
        task_context.shuffle_bytes_read += size
        _note_memory_peak(self.ctx, task_context)
        if self._slice_reduce is not None:
            return self._slice_reduce(records)
        return records

    def install_slice_result(self, partition: int, partials: List[Any]) -> None:
        if self._merge_slices is not None:
            merged = self._merge_slices(partials)
        else:
            merged = []
            for partial in partials:
                merged.extend(partial)
        self._slice_results[partition] = merged

    # -- memory-bounded external merge ----------------------------------------

    def _external_merge_enabled(self) -> bool:
        """Whether this partition read should run the spillable reduce.

        Requires a bounded memory manager and a spill directory on the
        context, plus per-operator slice-merge semantics (or no reduce side
        at all — plain repartitions merge by concatenation).  Operators
        without slice semantics (uncombined aggregations, whose combiner
        associativity the caller distrusts) always reduce resident.
        """
        memory = getattr(self.ctx, "memory_manager", None)
        if memory is None or not memory.bounded or \
                getattr(self.ctx, "spill_dir", None) is None:
            return False
        return self._reduce_side is None or self._merge_slices is not None

    def _compute_external(self, partition: int,
                          task_context: TaskContext) -> Iterable[Any]:
        """Memory-bounded reduce of one partition.

        Buckets are streamed in map order (spilled buckets loaded one at a
        time); records accumulate into an in-memory run whose estimated
        bytes are reserved with the memory manager.  When a run outgrows
        the per-task budget it is reduced with the operator's per-slice
        semantics and spilled; the final output is the slice merge of the
        spilled runs plus the resident tail — record-identical to the
        resident reduce, because runs are consecutive chunks of the very
        stream the resident path reduces in one pass.
        """
        ctx = self.ctx
        owner = ("task-merge", id(task_context), self.id, partition)
        accumulator = _ExternalRunAccumulator(ctx, task_context, owner)
        current: List[Any] = []

        def close_run():
            return self._slice_reduce(current) \
                if self._slice_reduce is not None else current

        try:
            for bucket, size in ctx.shuffle_manager.iter_reduce_input(
                    self.shuffle_dependency.shuffle_id, partition):
                task_context.shuffle_bytes_read += size
                current.extend(bucket)
                accumulator.add_bytes(size)
                if accumulator.maybe_spill(close_run):
                    current = []
            if not accumulator.runs:
                # everything fit: reduce exactly like the resident path
                accumulator.release()
                return self._reduce(current)
            tail = close_run()
        except BaseException:
            accumulator.cleanup()
            raise
        return self._drain_runs(accumulator, tail)

    def _drain_runs(self, accumulator: _ExternalRunAccumulator,
                    tail: Any) -> Iterator[Any]:
        """Stream the slice merge of spilled runs + the resident tail.

        Dict partials (grouping, combiner folds) are loaded one run at a
        time; list partials (sorted runs, distinct runs, raw records) are
        streamed frame by frame, which is what lets the sort's stable heap
        merge run with one bounded batch per run resident.  Run files are
        deleted — and the merge reservation released — when the stream is
        exhausted (or closed).
        """
        runs = accumulator.runs
        try:
            if self._merge_slices is None:
                merged: Iterable[Any] = itertools.chain(
                    itertools.chain.from_iterable(
                        run.iter_records() for run in runs),
                    tail)
            elif isinstance(tail, dict):
                partials = itertools.chain(
                    (run.load_dict() for run in runs), [tail])
                merged = self._merge_slices(partials)
            else:
                streams = [run.iter_records() for run in runs] + [iter(tail)]
                merged = self._merge_slices(streams)
            for record in merged:
                yield record
        finally:
            accumulator.cleanup()

    def _reduce(self, records: List[Any]) -> Iterable[Any]:
        return records if self._reduce_side is None \
            else self._reduce_side(records)

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        # a skew-split partition was already reduced by its sub-read tasks
        # (bytes were accounted there): serve the merged records as-is
        reduced = self._pop_override(partition)
        if reduced is None and self._external_merge_enabled():
            reduced = self._compute_external(partition, task_context)
        elif reduced is None:
            records, size = self.ctx.shuffle_manager.read_reduce_input(
                self.shuffle_dependency.shuffle_id, partition)
            task_context.shuffle_bytes_read += size
            _note_memory_peak(self.ctx, task_context)
            reduced = self._reduce(records)
        if isinstance(reduced, list):
            return chunk_list(reduced, batch_size)
        return chunk_iterator(reduced, batch_size)


def _merge_cogroup_partials(partials) -> Dict[Any, Tuple[List[Any], List[Any]]]:
    """Fold ``{key: ([left], [right])}`` partials, in order.

    Shared by the skew-split slice merge and the memory-bounded run merge:
    first-appearance key order and per-tag value order both reproduce what
    one single-pass grouping of the concatenated input would yield.
    """
    merged: Dict[Any, Tuple[List[Any], List[Any]]] = {}
    for partial in partials:
        for key, (left_values, right_values) in partial.items():
            slot = merged.get(key)
            if slot is None:
                merged[key] = (left_values, right_values)
            else:
                slot[0].extend(left_values)
                slot[1].extend(right_values)
    return merged


class CoGroupedDataset(Dataset, SplittableShuffleRead):
    """Shuffle-based cogroup of two key-value datasets."""

    def __init__(self, left: Dataset, right: Dataset, partitioner: Partitioner):
        ctx = left.ctx

        def tagged_map_side(tag: int):
            def map_side(batches: Iterable[List[Any]]) -> Dict[int, List[Any]]:
                partition_for = partitioner.task_partition_for()
                buckets: Dict[int, List[Any]] = {}
                setdefault = buckets.setdefault
                for batch in batches:
                    for key, value in batch:
                        setdefault(partition_for(key), []).append((key, tag, value))
                return buckets

            return map_side

        left_dep = ShuffleDependency(left, partitioner, tagged_map_side(0),
                                     ctx._next_shuffle_id())
        right_dep = ShuffleDependency(right, partitioner, tagged_map_side(1),
                                      ctx._next_shuffle_id())
        super().__init__(ctx, partitioner.num_partitions, [left_dep, right_dep],
                         name="cogroup")
        self._init_split_state()

    @property
    def supports_slice_reads(self) -> bool:
        return True

    def read_slice(self, partition: int, unit: Tuple[int, int, int],
                   task_context: TaskContext) -> Dict[Any, Tuple[List[Any], List[Any]]]:
        dep_index, map_lo, map_hi = unit
        dependency = self.dependencies[dep_index]
        records, size = self.ctx.shuffle_manager.read_reduce_input(
            dependency.shuffle_id, partition, map_range=(map_lo, map_hi))
        task_context.shuffle_bytes_read += size
        _note_memory_peak(self.ctx, task_context)
        grouped: Dict[Any, Tuple[List[Any], List[Any]]] = {}
        for key, tag, value in records:
            if key not in grouped:
                grouped[key] = ([], [])
            grouped[key][tag].append(value)
        return grouped

    def install_slice_result(self, partition: int, partials: List[Any]) -> None:
        # partials arrive in unit order (left slices first, then right), so
        # first-appearance key order and per-tag value order both match the
        # unsplit read exactly
        self._slice_results[partition] = _merge_cogroup_partials(partials)

    def _external_merge_enabled(self) -> bool:
        """Memory-bounded cogrouping needs a bounded manager + spill dir."""
        memory = getattr(self.ctx, "memory_manager", None)
        return memory is not None and memory.bounded and \
            getattr(self.ctx, "spill_dir", None) is not None

    def _compute_external(self, partition: int, task_context: TaskContext
                          ) -> Dict[Any, Tuple[List[Any], List[Any]]]:
        """Memory-bounded cogroup: bounded grouped partials, spilled runs.

        Buckets stream in dependency order (left slices first, then right),
        grouping into a bounded ``{key: ([left], [right])}`` partial that is
        spilled whenever its estimated input bytes outgrow the per-task
        budget; partials then re-merge in run order — first-appearance key
        order and per-tag value order both match the resident single-pass
        grouping exactly (the same argument as ``install_slice_result``).
        """
        ctx = self.ctx
        owner = ("task-merge", id(task_context), self.id, partition)
        accumulator = _ExternalRunAccumulator(ctx, task_context, owner)
        current: Dict[Any, Tuple[List[Any], List[Any]]] = {}
        try:
            for dependency in self.dependencies:
                for bucket, size in ctx.shuffle_manager.iter_reduce_input(
                        dependency.shuffle_id, partition):
                    task_context.shuffle_bytes_read += size
                    for key, tag, value in bucket:
                        slot = current.get(key)
                        if slot is None:
                            current[key] = slot = ([], [])
                        slot[tag].append(value)
                    accumulator.add_bytes(size)
                    if accumulator.maybe_spill(lambda: current):
                        current = {}
            if not accumulator.runs:
                return current
            return _merge_cogroup_partials(itertools.chain(
                (run.load_dict() for run in accumulator.runs), [current]))
        finally:
            accumulator.cleanup()

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        grouped = self._pop_override(partition)
        if grouped is None and self._external_merge_enabled():
            grouped = self._compute_external(partition, task_context)
        elif grouped is None:
            grouped = {}
            for dependency in self.dependencies:
                records, size = self.ctx.shuffle_manager.read_reduce_input(
                    dependency.shuffle_id, partition)
                task_context.shuffle_bytes_read += size
                for key, tag, value in records:
                    if key not in grouped:
                        grouped[key] = ([], [])
                    grouped[key][tag].append(value)
            _note_memory_peak(self.ctx, task_context)
        return chunk_iterator(grouped.items(), batch_size)


def broadcast_preserves_build(how: str, build_side: str) -> bool:
    """Whether a broadcast join must emit *unmatched build-side* rows.

    Outer joins preserve unmatched rows of specific sides; when the
    preserved side is the broadcast (build) side, the streamed pass over the
    other side never sees those rows and a dedicated unmatched pass is
    required (priced into the cost model by the ``broadcast_join`` rule).
    """
    if how == "full_outer":
        return True
    if build_side == "left":
        return how in ("left_outer", "subtract_by_key")
    return how == "right_outer"


class BroadcastJoinDataset(Dataset):
    """A join evaluated as a narrow broadcast hash join.

    The *build* side is collected into a ``{key: [values]}`` hash map by the
    scheduler (a :class:`BroadcastDependency`); each partition of the
    *stream* side is then joined against it locally, reusing the exact
    ``emit`` function of the shuffle-cogroup form so every join variant
    produces identical pairs.  When the join preserves unmatched build-side
    rows (see :func:`broadcast_preserves_build`), one extra partition emits
    them using a broadcast of the stream side's key set.
    """

    def __init__(self, stream: Dataset, build: Dataset, emit,
                 how: str, build_side: str):
        self._emit = emit
        self._how = how
        self._build_side = build_side
        self._build_holder = Broadcast()
        dependencies: List[Dependency] = [
            NarrowDependency(stream),
            BroadcastDependency(build, self._build_holder, "key_values"),
        ]
        self._emits_unmatched_build = broadcast_preserves_build(how, build_side)
        self._stream_keys_holder: Optional[Broadcast] = None
        if self._emits_unmatched_build:
            self._stream_keys_holder = Broadcast()
            dependencies.append(
                BroadcastDependency(stream, self._stream_keys_holder, "key_set"))
        num_partitions = stream.num_partitions + \
            (1 if self._emits_unmatched_build else 0)
        super().__init__(stream.ctx, num_partitions, dependencies,
                         name=f"broadcast_{join_display_name(how)}"
                              f"({build_side})")

    @property
    def _stream(self) -> Dataset:
        return self.dependencies[0].parent

    def _pair(self, key: Any, stream_values: List[Any],
              build_values: List[Any]) -> Any:
        """Orient one cogroup-shaped pair in the join's left/right order."""
        if self._build_side == "right":
            return (key, (stream_values, build_values))
        return (key, (build_values, stream_values))

    def _prepared(self, holder: Optional[Broadcast], what: str) -> Any:
        if holder is None or not holder.ready:
            raise PlanError(
                f"{what} of {self.name} was not prepared; "
                "broadcast joins must run through the DAG scheduler")
        return holder.value

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        build_map: Dict[Any, List[Any]] = self._prepared(
            self._build_holder, "broadcast input")
        stream = self._stream
        if partition >= stream.num_partitions:
            # the unmatched-build partition: build keys never seen by the
            # stream, bounded by the (small) broadcast build side
            stream_keys = self._prepared(self._stream_keys_holder,
                                         "stream key set")
            yield from chunk_iterator(itertools.chain.from_iterable(
                self._emit(self._pair(key, [], values))
                for key, values in build_map.items()
                if key not in stream_keys), batch_size)
            return
        # group the stream partition by key in first-appearance order
        grouped: Dict[Any, List[Any]] = {}
        setdefault = grouped.setdefault
        for batch in stream.batch_iterator(partition, task_context):
            for key, value in batch:
                setdefault(key, []).append(value)
        produced: List[Any] = []
        extend = produced.extend
        for key, values in grouped.items():
            extend(self._emit(self._pair(key, values, build_map.get(key, []))))
            if len(produced) >= batch_size:
                yield produced
                produced = []
                extend = produced.extend
        if produced:
            yield produced
