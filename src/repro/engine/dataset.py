"""Lazy, partitioned datasets with Spark-like semantics.

A :class:`Dataset` is an immutable description of a distributed collection:
it knows how many partitions it has, which parent datasets it derives from,
and how to compute one of its partitions given its parents.  Narrow
transformations are pipelined inside a single task: every ``map``,
``filter``, ``flat_map`` and ``project`` is a :class:`FusedDataset` (one
stage, or a chain the optimizer fused); wide transformations
(``group_by_key``, ``join``, ``sort_by`` ...) are declared in
:data:`repro.engine.wide.OPERATORS` and introduce a shuffle boundary handled
by the scheduler.

Nothing is computed until an *action* (``collect``, ``count``, ``reduce`` ...)
is invoked.  Each action is one row of :data:`repro.engine.wide.ACTIONS`,
run by :meth:`Dataset._run` as one job of its kernel through the owning
:class:`repro.engine.context.EngineContext` (its scheduler and executor), a
fold of its merge and its finish.
"""

from __future__ import annotations

import copy
import itertools
import math
import random
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from ..errors import PlanError
from . import plan as logical
from . import wide
from .columnar import ColumnBatch
from .fingerprint import dataset_fingerprint
from .memory import CODEC_NONE, Span, SpillRun, load_span
from .metrics import TaskContext
from .partitioner import HashPartitioner, Partitioner, RangePartitioner, RoundRobinPartitioner
from .wide import (batch_action, collect_partition, count_values_partition,  # noqa: F401
                   stats_partition, sum_partition)


# ---------------------------------------------------------------------------
# Batch plumbing
#
# Records move through the physical layer as batches: plain Python lists of
# at most ``EngineConfig.batch_size`` records (or, from a pruned scan,
# :class:`~repro.engine.columnar.ColumnBatch` vectors).  Every operator
# computes a partition one way, ``Dataset.compute_batches``; a consumer that
# wants records (a ``map_partitions`` UDF, a plain ``run_job`` function)
# gets the batches flattened by ``Dataset.iterator``.  Every action is a row
# of :data:`repro.engine.wide.ACTIONS` whose batch kernel gets the batches
# themselves (the kernels are re-exported here).
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


# ---------------------------------------------------------------------------
# Operator helpers
# ---------------------------------------------------------------------------


def join_display_name(how: str) -> str:
    """The dataset name of a join variant."""
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
    """Run-spilling protocol of the memory-bounded (external) reduce.

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
        #: Frame codec of the context's shuffle manager; spilled runs are
        #: compressed exactly like bucket spills.
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


def _whole_partition(batches: Iterator[List[Any]]) -> Dict[int, List[Any]]:
    """A one-bucket shuffle's map side (a checkpoint, a skew split, a
    broadcast build): the partition, whole, as bucket 0."""
    return {0: collect_partition(batches)}


class CheckpointDependency(ShuffleDependency):
    """A checkpoint: a shuffle with one bucket per map.

    Map ``p`` writes partition ``p`` of ``parent`` whole, as bucket 0, and
    the checkpointed dataset serves partition ``p`` as the read of map
    ``p`` alone.  The scheduler keeps every bucket of it a durable span
    under ``checkpoint_dir``; ``parent`` keeps the full lineage, so a lost
    span recomputes its one partition like any lost map output.
    """

    def __init__(self, parent: "Dataset", shuffle_id: int):
        super().__init__(parent, HashPartitioner(1), _whole_partition,
                         shuffle_id)


class SliceDependency(ShuffleDependency):
    """A skew split: a one-bucket shuffle with one map per slice unit.

    ``plan`` maps each split reduce partition to its slices
    ``(dependency index, map_lo, map_hi)``; the units are those slices in
    partition order.  Map ``u`` (:class:`SkewSlices`) folds unit ``u`` into
    its finished partial and writes that whole, as bucket 0.
    ``ranges[partition]`` is the map range of the partition's units, so the
    split dataset serves the partition as the merge of those partials in
    the task that reads it.  The shuffle id is the complement of the split
    dataset's first one: a split takes no id from its context, and a
    resumed run finds the same.
    """

    def __init__(self, dataset: "ShuffledDataset",
                 plan: Dict[int, List[Tuple[int, int, int]]]):
        shuffle_id = ~dataset.dependencies[0].shuffle_id
        units = [(partition, *unit) for partition, slices in plan.items()
                 for unit in slices]
        super().__init__(SkewSlices(dataset, units, shuffle_id),
                         HashPartitioner(1), _whole_partition, shuffle_id)
        ends = list(itertools.accumulate(map(len, plan.values())))
        self.ranges = {partition: (end - len(slices), end)
                       for (partition, slices), end in zip(plan.items(), ends)}


# ---------------------------------------------------------------------------
# Base dataset
# ---------------------------------------------------------------------------


class Dataset:
    """An immutable, lazily evaluated, partitioned collection of records."""

    #: The runtime skew split a :class:`ShuffledDataset` is served through
    #: (:class:`SliceDependency`); never one of ``dependencies``, so plan
    #: identity and ``explain()`` do not see it.
    split: Optional[SliceDependency] = None

    def __init__(self, ctx, num_partitions: int, dependencies: List[Dependency],
                 name: str = "", dataset_id: Optional[int] = None):
        if num_partitions < 1:
            raise PlanError("a dataset needs at least one partition")
        self.ctx = ctx
        self.id = ctx._next_dataset_id() if dataset_id is None else dataset_id
        self.num_partitions = int(num_partitions)
        self.dependencies = list(dependencies)
        self.name = name or type(self).__name__
        self.is_cached = False
        #: Logical plan node recorded by the API method that built this
        #: dataset (:meth:`_derive`); ``None`` for physical datasets built
        #: by plan lowering.
        self.plan: Optional[logical.LogicalNode] = None
        #: Memoised physical dataset actions execute (set by the context),
        #: valid while the context's cache epoch is unchanged.
        self._executable: Optional["Dataset"] = None
        self._executable_epoch = -1
        #: Lowered physical datasets that inherited this dataset's cache flag.
        self._cache_mirrors: List["Dataset"] = []
        #: Shuffle id of the checkpoint backing this dataset, once
        #: :meth:`checkpoint` wrote (or a resume adopted) it; partitions are
        #: then served from its spans and lineage truncates here.
        self._checkpoint: Optional[int] = None
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
        never evaluates.  Everything else ships as is; a stage payload
        has already cut the lineage behind complete shuffles
        (:mod:`repro.engine.executor`).
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
        miss — in the borrowed one (:meth:`share`) for the pieces the
        partition is kept as there (:meth:`_share_pieces`), and computes
        the missing ones, leaving each wherever it is wanted.  The partition
        is one hit however many of its pieces were stored.  ``None`` means
        nobody keeps any of it (a shared-only dataset whose keys the
        borrowed store declines): the caller streams it as if unmarked.
        """
        local = self.ctx.block_store if self.is_cached else None
        cached = local.get(self.id, partition) if local is not None else None
        if cached is not None:
            task_context.cache_hits += 1
            # records served from a store are reads, like source reads
            task_context.records_read += len(cached)
            return cached
        shared = self.ctx.shared_blocks if self._share_key is not None else None
        key, pieces = self._share_pieces(partition) if shared is not None \
            else (None, [partition])
        blocks = [shared.get(key, piece) if shared is not None else None
                  for piece in pieces]
        stored = [piece for piece, block in zip(pieces, blocks)
                  if block is not None]
        admitted = {piece for piece, block in zip(pieces, blocks)
                    if block is None and shared is not None
                    and shared.admits(key, piece)}
        if local is None and not stored and not admitted:
            return None
        if stored:
            task_context.cache_hits += 1
            self.ctx.note_shared_hit(key, shared.origin_of(key, stored[0]))
        written = 0
        for position, piece in enumerate(pieces):
            if blocks[position] is not None:
                task_context.records_read += len(blocks[position])
                continue
            blocks[position] = self._compute_piece(piece, task_context)
            if piece in admitted:
                shared.put(key, piece, blocks[position],
                           origin=self._share_origin)
            if piece in admitted or local is not None:
                # materialising into a store is written output
                written += len(blocks[position])
        records = blocks[0] if len(blocks) == 1 else \
            [record for block in blocks for record in block]
        if local is not None:
            local.put(self.id, partition, records)
        task_context.records_written += written
        return records

    def _share_pieces(self, partition: int) -> Tuple[Any, List[Any]]:
        """The borrowed store's key for this dataset and the pieces one
        partition is kept as there: by default the whole partition, under
        its number."""
        return self._share_key, [partition]

    def _compute_piece(self, piece: Any,
                       task_context: TaskContext) -> List[Any]:
        """Compute one piece (:meth:`_share_pieces`) as a list."""
        if self.has_checkpoint:
            return self._checkpoint_records(piece, task_context)
        return collect_partition(self.compute_batches(
            piece, task_context, self.ctx.config.batch_size))

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

    def _derive(self, node: logical.LogicalNode, *others: "Dataset") -> "Dataset":
        """The dataset of the logical ``node`` over this dataset and ``others``.

        Every API transformation records its node over its inputs' plans
        and builds it here, through :func:`build`.  The node becomes the
        new dataset's plan when none of its children is ``None``; over a
        dataset without a plan (one built by plan lowering) the plan stays
        ``None`` and actions run the physical form verbatim.  Datasets of
        two engine contexts never combine: one context's scheduler cannot
        run the other's shuffles.
        """
        for other in others:
            if other.ctx is not self.ctx:
                raise PlanError(f"cannot combine {self!r} with {other!r}: the "
                                f"datasets belong to different engine contexts")
        ds = build(node, [self, *others])
        if all(child is not None for child in node.children):
            node.dataset = node.origin_dataset = ds
            ds.plan = node
        return ds

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
        # the one-bucket shuffles broadcast joins read this dataset (or its
        # lowered mirrors) through are dropped with the cache
        for dataset_id in invalidated:
            for kind in BROADCAST_KINDS:
                self.ctx.shuffle_manager.remove_shuffle(
                    broadcast_shuffle_id(dataset_id, kind))
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
        """Materialise every partition durably and truncate lineage here.

        Requires ``EngineConfig.checkpoint_dir``.  Runs one job whose stage
        writes partition ``p`` of the dataset's executable as map output
        ``p`` of a one-bucket shuffle
        (:class:`CheckpointDependency`), where the partition is computed,
        then keeps every span of it durable under ``checkpoint_dir`` and
        journals it like any settled shuffle.  The dataset then takes its
        executable's partitioning and depends on that shuffle alone: later
        recomputation — stage retries, fault recovery, and jobs after a
        driver restart with ``recover_from`` — reads the spans instead of
        re-running everything upstream.  A resumed context adopts the
        journalled spans when they revalidate; a lineage without a
        fingerprint is written all the same but never journalled.  A span
        that later fails its checks is lost output: its one partition is
        recomputed from lineage and re-recorded.  Idempotent while the
        checkpoint is live.
        """
        self.ctx.checkpoint_dataset(self)
        return self

    def _lineage_copy(self) -> "Dataset":
        """This dataset under a fresh id, computed from its own lineage and
        unmarked: what a checkpoint's map stage runs when no rewrite
        stands in for the dataset."""
        twin = object.__new__(type(self))  # not __getstate__: keeps all data
        twin.__dict__.update(self.__dict__, id=self.ctx._next_dataset_id(),
                             plan=None, is_cached=False, _share_key=None,
                             _executable=None, _cache_mirrors=[])
        return twin

    def _checkpoint_records(self, partition: int,
                            task_context: TaskContext) -> List[Any]:
        """Serve one partition from its checkpoint: the one bucket of map
        ``partition``, verified; a rotten span raises the
        :class:`~repro.errors.FetchFailedError` that heals it."""
        records, _ = self.ctx.shuffle_manager.read_reduce_input(
            self._checkpoint, 0, map_range=(partition, partition + 1))
        task_context.records_read += len(records)
        return records

    # -- narrow transformations --------------------------------------------------

    def map(self, func: Callable[[Any], Any]) -> "Dataset":
        """Apply ``func`` to every record."""
        return self._derive(logical.MapNode(self.plan, func))

    def filter(self, predicate: Callable[[Any], bool]) -> "Dataset":
        """Keep only the records for which ``predicate`` is true."""
        return self._derive(logical.FilterNode(self.plan, predicate))

    def flat_map(self, func: Callable[[Any], Iterable[Any]]) -> "Dataset":
        """Apply ``func`` to every record and flatten the resulting iterables."""
        return self._derive(logical.FlatMapNode(self.plan, func))

    def project(self, fields: Iterable[str]) -> "Dataset":
        """Keep only the listed fields of dict records.

        Unlike a plain :meth:`map`, a projection is transparent to the
        optimizer, which can push it below shuffle boundaries.
        """
        return self._derive(logical.ProjectNode(self.plan, fields))

    def map_partitions(self, func: Callable[[Iterator[Any]], Iterable[Any]]) -> "Dataset":
        """Apply ``func`` to the whole iterator of each partition."""
        return self._derive(logical.MapPartitionsNode(self.plan, func))

    def map_partitions_with_index(
            self, func: Callable[[int, Iterator[Any]], Iterable[Any]]) -> "Dataset":
        """Like :meth:`map_partitions` but ``func`` also receives the partition index."""
        return self._derive(logical.MapPartitionsNode(self.plan, func,
                                                      with_index=True))

    def union(self, other: "Dataset") -> "Dataset":
        """Concatenate two datasets (partitions are appended, not merged)."""
        return self._derive(logical.UnionNode([self.plan, other.plan]), other)

    def sample(self, fraction: float, seed: int = 0) -> "Dataset":
        """Return a random sample of approximately ``fraction`` of the records."""
        if not 0.0 <= fraction <= 1.0:
            raise PlanError("sample fraction must be in [0, 1]")
        return self._derive(logical.SampleNode(self.plan, fraction, seed))

    def zip_with_index(self) -> "Dataset":
        """Pair each record with its global index (triggers a size job).

        The offsets are baked from the physical plan that ran the size job,
        so the result is pinned to that exact plan: a later re-planning of
        the input (e.g. after ``cache()`` changes which rewrites apply)
        must not shift records between partitions under the offsets.
        """
        pinned = self.ctx._executable_for(self)
        sizes = self._run("zip_with_index")
        offsets = [0, *itertools.accumulate(sizes[:-1])]

        def add_index(index: int, iterator: Iterator[Any]) -> Iterator[Any]:
            for position, record in enumerate(iterator):
                yield (record, offsets[index] + position)

        return pinned._derive(logical.MapPartitionsNode(
            logical.PhysicalScanNode(pinned), add_index,
            with_index=True)).set_name("zip_with_index")

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
        return self._derive(logical.CoalesceNode(self.plan, num_partitions))

    def glom(self) -> "Dataset":
        """Turn each partition into a single list record."""
        return self.map_partitions(lambda iterator: [list(iterator)])

    # -- wide transformations -------------------------------------------------------

    def repartition(self, num_partitions: int) -> "Dataset":
        """Redistribute records evenly over ``num_partitions`` via a shuffle."""
        return self._derive(logical.RepartitionNode(self.plan, RoundRobinPartitioner(
            num_partitions, seed=self.ctx.config.seed)))

    def distinct(self, num_partitions: Optional[int] = None) -> "Dataset":
        """Remove duplicate records (records must be hashable)."""
        return self._derive(logical.DistinctNode(self.plan, HashPartitioner(
            num_partitions or self.num_partitions)))

    def group_by_key(self, num_partitions: Optional[int] = None) -> "Dataset":
        """Group values sharing a key: ``(k, v) -> (k, [v, ...])``."""
        return self._derive(logical.GroupByKeyNode(self.plan, HashPartitioner(
            num_partitions or self.num_partitions)))

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
        return self._derive(logical.AggregateNode(
            self.plan, create_combiner, merge_value, merge_combiners,
            HashPartitioner(num_partitions or self.num_partitions)))

    def reduce_by_key(self, func: Callable[[Any, Any], Any],
                      num_partitions: Optional[int] = None) -> "Dataset":
        """Merge the values of each key with an associative function."""
        return self.combine_by_key(lambda value: value, func, func, num_partitions)

    def aggregate_by_key(self, zero: Any, seq_func: Callable[[Any, Any], Any],
                         comb_func: Callable[[Any, Any], Any],
                         num_partitions: Optional[int] = None) -> "Dataset":
        """Aggregate the values of each key starting from a neutral element.

        Every key starts from its own deep copy of ``zero``, so a mutable
        zero is never shared between keys.
        """
        return self.combine_by_key(
            lambda value: seq_func(copy.deepcopy(zero), value),
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
        return self._derive(logical.SortNode(self.plan, key_func, ascending,
                                           partitioner, key_fields=key_fields))

    def sort_by_key(self, ascending: bool = True,
                    num_partitions: Optional[int] = None) -> "Dataset":
        """Sort key-value pairs by key."""
        return self.sort_by(lambda pair: pair[0], ascending, num_partitions)

    def cogroup(self, other: "Dataset",
                num_partitions: Optional[int] = None) -> "Dataset":
        """Group both datasets by key: ``(k, ([self values], [other values]))``."""
        num_partitions = num_partitions or max(self.num_partitions, other.num_partitions)
        return self._derive(logical.CoGroupNode(
            [self.plan, other.plan], HashPartitioner(num_partitions)), other)

    def _join_with(self, other: "Dataset", emit, how: str,
                   num_partitions: Optional[int]) -> "Dataset":
        """Common shape of every join: cogroup, then emit matched pairs."""
        cogrouped = self.cogroup(other, num_partitions)
        return cogrouped._derive(logical.JoinNode(cogrouped.plan, emit, how))

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

    def _run(self, action: str, *args: Any,
             partitions: Optional[List[int]] = None) -> Any:
        """The one action runner: the row ``action`` of
        :data:`~repro.engine.wide.ACTIONS`, declared with ``args``, run as
        one job of its kernel, a fold of its merge and its finish."""
        return wide.ACTIONS[action](*args).run(self.ctx.run_job, self,
                                               partitions)

    def collect(self) -> List[Any]:
        """Return every record as a local list."""
        return self._run("collect")

    def collect_as_map(self) -> Dict[Any, Any]:
        """Collect key-value pairs into a dict (later keys overwrite earlier)."""
        return dict(self.collect())

    def count(self) -> int:
        """Return the number of records."""
        return self._run("count")

    def count_by_value(self) -> Dict[Any, int]:
        """Return a dict mapping each distinct record to its multiplicity."""
        return self._run("count_by_value")

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
        collected: List[Any] = []
        # a job's partitions are its executable's: a rewrite (a coalesced
        # shuffle, a broadcast join) may give it another number of them
        for partition in range(self.ctx._executable_for(self).num_partitions):
            if len(collected) >= n:
                break
            collected += self._run("take", n - len(collected),
                                   partitions=[partition])
        return collected

    def top(self, n: int, key: Callable[[Any], Any] = None) -> List[Any]:
        """Return the ``n`` largest records according to ``key``."""
        return self._run("top", n, key)

    def reduce(self, func: Callable[[Any, Any], Any]) -> Any:
        """Reduce all records with an associative binary function."""
        return self._run("reduce", func)

    def fold(self, zero: Any, func: Callable[[Any, Any], Any]) -> Any:
        """Reduce with a neutral element (safe on empty datasets).

        Each partition folds into its own deep copy of ``zero``; the
        partition results are combined without re-applying it, so over an
        empty dataset the answer is the zero exactly once.
        """
        return self._run("fold", zero, func)

    def aggregate(self, zero: Any, seq_func: Callable[[Any, Any], Any],
                  comb_func: Callable[[Any, Any], Any]) -> Any:
        """Aggregate with different intra- and inter-partition functions.

        Each partition, and the driver's combination of the partition
        results, starts from its own deep copy of ``zero``.
        """
        return self._run("aggregate", zero, seq_func, comb_func)

    def sum(self) -> float:
        """Sum numeric records."""
        return self._run("sum")

    def mean(self) -> float:
        """Arithmetic mean of numeric records."""
        return self._run("mean")

    def min(self, key: Callable[[Any], Any] = None) -> Any:
        """Smallest record: the first of equal ones, or, like ``stats()``,
        the first record whose key is NaN when there is one."""
        return self._run("min", key)

    def max(self, key: Callable[[Any], Any] = None) -> Any:
        """Largest record: the first of equal ones, or, like ``stats()``,
        the first record whose key is NaN when there is one."""
        return self._run("max", key)

    def stats(self) -> Dict[str, float]:
        """Count, mean, min, max, variance, stdev and sum of numeric records.

        Non-finite input never yields a finite-looking answer: one NaN
        record makes every statistic but ``count`` NaN, and an infinite
        record (with no NaN) leaves ``variance`` and ``stdev`` NaN.
        """
        return self._run("stats")

    def lookup(self, key: Any) -> List[Any]:
        """Return every value associated with ``key`` in a key-value dataset."""
        return self.filter(lambda pair: pair[0] == key).values().collect()

    def foreach(self, func: Callable[[Any], None]) -> None:
        """Apply a side-effecting function to every record."""
        self._run("foreach", func)

    def to_local_iterator(self) -> Iterator[Any]:
        """Iterate over all records partition by partition."""
        for partition in range(self.ctx._executable_for(self).num_partitions):
            yield from self._run("to_local_iterator", partitions=[partition])

    def histogram(self, buckets: int) -> Tuple[List[float], List[int]]:
        """Histogram of numeric records over equally sized buckets.

        Returns ``buckets + 1`` edges from ``min`` to ``max`` and one count
        per bucket, the last bucket closed (``[min, max], [count]`` when
        every record is equal).  Two jobs: ``stats`` for the
        range, then one counting the raw bucket index of every record,
        clamped to ``[0, buckets - 1]`` once per distinct index.  A range
        that is not finite (a NaN or infinite record, or ``max - min``
        overflowing) or too narrow to split into non-zero bucket widths is
        a ``PlanError``, raised before the counting job.
        """
        if buckets < 1:
            raise PlanError("histogram needs at least one bucket")
        statistics = self.stats()
        if statistics["count"] == 0:
            return [], []
        low, high = statistics["min"], statistics["max"]
        width = (high - low) / buckets
        if not (width < math.inf and (width or low == high)):
            raise PlanError(f"histogram of dataset {self.name} needs a finite "
                            f"range {buckets} buckets can split, got min "
                            f"{low} and max {high}")
        if low == high:
            return [low, high], [int(statistics["count"])]
        edges = [low + i * width for i in range(buckets + 1)]
        return edges, self._run("histogram", low, width, buckets)

    # -- helpers -----------------------------------------------------------------

    def _estimated_size(self) -> int:
        """Cheap, possibly inaccurate estimate of the number of records."""
        node = self
        while node.dependencies:
            node = node.dependencies[0].parent
        return getattr(node, "_size_hint", 10_000)


class LineageStub(Dataset):
    """What a stage payload ships in place of lineage its tasks never read.

    The process backend replaces the parent behind a complete shuffle (a
    checkpoint's, a skew split's and a broadcast build's included) with one
    of these *in the shipped copy of the graph only*
    (:mod:`repro.engine.executor`); the driver keeps the full lineage,
    because every recovery path recomputes from it and republishes.  A stub
    keeps the identity a diagnostic needs and refuses to compute.
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
            f"payload: it sits behind a complete shuffle, and only the "
            f"driver's lineage can recompute it")


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

    def _share_pieces(self, partition: int) -> Tuple[Any, List[Any]]:
        """A full-width scan of a range-addressable source is kept as pieces
        ``(lo, hi)`` under the source's ``range_identity()``
        (``DataSource.pieces``), so another record count or partition count
        of the same generator is served the range they have in common."""
        identity = self._source.range_identity() \
            if self._columns is None else None
        if identity is None:
            return super()._share_pieces(partition)
        return identity, self._source.pieces(partition, self.num_partitions)

    def _compute_piece(self, piece: Any,
                       task_context: TaskContext) -> List[Any]:
        if not isinstance(piece, tuple):
            return super()._compute_piece(piece, task_context)
        records = list(self._source.read_range(*piece))
        task_context.records_read += len(records)
        return records

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


#: How one narrow stage of a :class:`FusedDataset` applies to records.
_STAGE = {"map": map, "project": map, "filter": filter,
          "flat_map": lambda func, records: itertools.chain.from_iterable(
              map(func, records))}


class FusedDataset(Dataset):
    """Narrow per-record operators evaluated as one physical operator.

    Every ``map``, ``filter``, ``flat_map`` and ``project`` is one: a single
    stage, named after its kind, when the API builds it or a lone logical
    node lowers, and a chain named ``fused(...)`` when the optimizer's
    ``fuse_narrow`` rule collapsed several nodes.  ``stages`` is a list of
    ``(kind, func)`` pairs applied bottom-to-top over the parent's batches,
    so one task evaluates the whole pipeline without intermediate datasets.
    """

    def __init__(self, parent: Dataset, stages: List[Tuple[str, Callable]],
                 name: str = ""):
        kinds = [kind for kind, _ in stages]
        super().__init__(parent.ctx, parent.num_partitions,
                         [NarrowDependency(parent)],
                         name=name or (kinds[0] if len(kinds) == 1
                                       else f"fused({'+'.join(kinds)})"))
        self._stages = list(stages)

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        parent = self.dependencies[0].parent
        stages = self._stages
        if any(kind == "flat_map" for kind, _ in stages):
            # expansions stream at C level and re-chunk: materialising a
            # whole input batch's expansion in one list trashes allocator
            # locality when records fan out (e.g. join emission after
            # cogroup); the parent still feeds the chain batch-at-a-time
            records = parent.iterator(partition, task_context)
            for kind, func in stages:
                records = _STAGE[kind](func, records)
            yield from chunk_iterator(records, batch_size)
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
            for kind, func in stages[index:]:
                chain = _STAGE[kind](func, chain)
            produced = chain if index == len(stages) else list(chain)
            if len(produced):
                yield produced


class UnionDataset(Dataset):
    """Concatenation of several datasets."""

    def __init__(self, parents: List[Dataset]):
        num_partitions = sum(parent.num_partitions for parent in parents)
        super().__init__(parents[0].ctx, num_partitions,
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
#
# Each wide transformation — repartition, sort, distinct, group, aggregate,
# cogroup — is one declaration in the table of :mod:`repro.engine.wide`: a
# fold over one run of records, an associative merge of partials in
# map-range order and a finish.  :func:`build` makes it a
# :class:`ShuffledDataset`, whose map side, reduce, skew split and external
# merge are all derived from that declaration, or its narrow local form;
# the broadcast join groups with the same group fold and merge.
# ---------------------------------------------------------------------------


def _shuffle_buckets(ctx, partition: int, task_context: TaskContext,
                     dependencies: List[ShuffleDependency],
                     map_range: Optional[Tuple[int, int]] = None
                     ) -> List[List[Any]]:
    """Every bucket ``dependencies`` address to ``partition``, in
    dependency and map order."""
    buckets = []
    for dependency in dependencies:
        for records, size in ctx.shuffle_manager.iter_reduce_input(
                dependency.shuffle_id, partition, map_range=map_range):
            task_context.shuffle_bytes_read += size
            buckets.append(records)
    _note_memory_peak(ctx, task_context)
    return buckets


class ShuffledDataset(Dataset):
    """A wide operator's partitions, read back from its shuffles and reduced.

    One shuffle dependency per parent (a cogroup has two; dependency ``i``
    tags its records with ``i``), all reduced by the operator's declaration
    ``op`` (:class:`~repro.engine.wide.WideOperator`).  A partition is
    reduced resident (one fold), memory-bounded (a fold per spilled run,
    then the merge) or skew-split.  For the split, the
    ``split_skewed_shuffle`` rule gives the dataset a ``split``
    (:class:`SliceDependency`) once actual map-output bytes identify a
    straggler: a one-bucket shuffle whose map ``u`` writes the partial of
    slice unit ``u``.  The scheduler runs it like any shuffle, and while it
    is complete a split partition is the merge of its units' partials,
    read in the task that reads the partition.  Without a declared merge
    an operator is never split or merged externally.
    """

    def __init__(self, parents: List[Dataset], partitioner: Partitioner,
                 op: wide.WideOperator, name: str):
        ctx = parents[0].ctx
        dependencies = [
            ShuffleDependency(parent, partitioner,
                              wide.map_side(op, partitioner, tag),
                              ctx._next_shuffle_id())
            for tag, parent in enumerate(parents)]
        super().__init__(ctx, partitioner.num_partitions, dependencies,
                         name=name)
        self._op = op
        #: Folds one slice of reduce input — a map range, a spilled run or
        #: the whole partition — into a partial.
        self._slice_reduce = wide.slice_fold(op)

    @property
    def supports_slice_reads(self) -> bool:
        """Whether a partition can be split into slices whose partials
        merge back to its read."""
        return self._op.merge is not None

    def _external_merge_enabled(self) -> bool:
        """A bounded memory manager, a spill directory and a merge."""
        memory = getattr(self.ctx, "memory_manager", None)
        return self.supports_slice_reads and memory is not None and \
            memory.bounded and getattr(self.ctx, "spill_dir", None) is not None

    def _compute_external(self, partition: int,
                          task_context: TaskContext) -> Iterable[Any]:
        """Memory-bounded reduce of one partition.

        Buckets are streamed in dependency and map order (spilled buckets
        loaded one at a time); records accumulate into an in-memory run
        whose estimated bytes are reserved with the memory manager.  When a
        run outgrows the per-task budget it is folded and spilled; the
        output is the merge of the spilled runs plus the resident tail —
        record-identical to the resident reduce, because runs are
        consecutive chunks of the very stream the resident path folds in
        one pass.
        """
        ctx = self.ctx
        owner = ("task-merge", id(task_context), self.id, partition)
        accumulator = _ExternalRunAccumulator(ctx, task_context, owner)
        finish, fold = self._op.finish, self._slice_reduce
        current: List[Any] = []
        try:
            for dependency in self.dependencies:
                for bucket, size in ctx.shuffle_manager.iter_reduce_input(
                        dependency.shuffle_id, partition):
                    task_context.shuffle_bytes_read += size
                    current.extend(bucket)
                    accumulator.add_bytes(size)
                    if accumulator.maybe_spill(lambda: finish(fold(current))):
                        current = []
            tail = finish(fold(current))
        except BaseException:
            accumulator.cleanup()
            raise
        if not accumulator.runs:
            # everything fit: reduced exactly like the resident path
            accumulator.release()
            return tail
        return self._drain_runs(accumulator, tail)

    def _drain_runs(self, accumulator: _ExternalRunAccumulator,
                    tail: Iterable[Any]) -> Iterator[Any]:
        """Stream the merge of the spilled runs and the resident tail.

        Every run streams back frame by frame.  The record-shaped merges
        (sort's stable heap merge, distinct, concatenation) are lazy, so
        they hold one frame per run; the keyed merges fold the runs into
        one dict, a frame at a time.  The run streams are closed, the run
        files deleted and the reservation released when the output is
        exhausted or closed.
        """
        streams = [run.iter_records() for run in accumulator.runs]
        try:
            yield from self._op.finish(self._op.merge(streams + [tail]))
        finally:
            for stream in streams:
                stream.close()
            accumulator.cleanup()

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        split = self.split
        if split is not None and partition in split.ranges and \
                self.ctx.shuffle_manager.is_complete(split.shuffle_id):
            # a split partition: the merge of its slices' stored partials
            reduced = self._op.finish(wide.stored_merge(self._op)(
                _shuffle_buckets(self.ctx, 0, task_context, [split],
                                 split.ranges[partition])))
        elif self._external_merge_enabled():
            reduced = self._compute_external(partition, task_context)
        else:
            reduced = self._op.finish(self._slice_reduce(
                itertools.chain.from_iterable(_shuffle_buckets(
                    self.ctx, partition, task_context, self.dependencies))))
        if isinstance(reduced, list):
            return chunk_list(reduced, batch_size)
        return chunk_iterator(reduced, batch_size)


class SkewSlices(Dataset):
    """The map side of a skew split: partition ``u`` is the partial of
    slice unit ``u`` (:class:`SliceDependency`).

    Its dependencies are the split dataset's own shuffle dependencies, so
    a rotten span of theirs heals like any shuffle read; of that dataset
    it keeps only the operator.  Its id is its shuffle's: it allocates no
    dataset id of its context.
    """

    def __init__(self, dataset: ShuffledDataset,
                 units: List[Tuple[int, int, int, int]], dataset_id: int):
        super().__init__(dataset.ctx, len(units), dataset.dependencies,
                         name=f"skew-split:{dataset.name}",
                         dataset_id=dataset_id)
        self.units = units
        self._op = dataset._op

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        reduce_partition, dep_index, map_lo, map_hi = self.units[partition]
        records = itertools.chain.from_iterable(_shuffle_buckets(
            self.ctx, reduce_partition, task_context,
            [self.dependencies[dep_index]], (map_lo, map_hi)))
        partial = self._op.finish(wide.slice_fold(self._op)(records))
        return chunk_list(list(partial), batch_size)


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


def broadcast_shuffle_id(dataset_id: int, kind: str) -> str:
    """The id of the one-bucket shuffle a broadcast join reads dataset
    ``dataset_id`` through, of one of :data:`BROADCAST_KINDS`.

    Taken from no counter, so every join over one physical dataset reads
    one shuffle and ids allocated later do not move; a string, so it never
    meets a context shuffle id or a skew split's (both integers).
    """
    return f"{kind}-{dataset_id}"


def _distinct_keys(batches: Iterator[List[Any]]) -> Dict[int, List[Any]]:
    """A stream key-set shuffle's map side: the partition's distinct keys,
    as bucket 0."""
    return {0: list(dict.fromkeys(
        key for key, _ in itertools.chain.from_iterable(batches)))}


#: What a broadcast join reads through a one-bucket shuffle: a build
#: side's pairs, and a stream side's distinct keys.
BROADCAST_KINDS = {"build": _whole_partition, "keys": _distinct_keys}


class BroadcastJoinDataset(Dataset):
    """A join evaluated as a narrow broadcast hash join.

    The *build* side is a one-bucket shuffle: map ``p`` writes build
    partition ``p``'s pairs as they are, and each partition of the
    *stream* side folds every map's bucket, in map order, into the
    ``{key: [values]}`` table it probes — where it is read, so no build
    table travels in a stage payload.  The stream partition is joined
    against it locally, reusing the exact ``emit`` function of the
    shuffle-cogroup form so every join variant produces identical pairs.
    When the join preserves unmatched build-side rows (see
    :func:`broadcast_preserves_build`), a second one-bucket shuffle holds
    each stream partition's distinct keys, and one extra partition emits
    the build rows whose key none of them holds.
    """

    def __init__(self, stream: Dataset, build: Dataset, emit,
                 how: str, build_side: str):
        self._emit = emit
        self._how = how
        self._build_side = build_side
        # the unmatched build rows need the stream's key set and a
        # partition of their own
        unmatched = broadcast_preserves_build(how, build_side)
        reads = [(build, "build")] + [(stream, "keys")] * unmatched
        dependencies: List[Dependency] = [NarrowDependency(stream)] + [
            ShuffleDependency(parent, HashPartitioner(1), BROADCAST_KINDS[kind],
                              broadcast_shuffle_id(parent.id, kind))
            for parent, kind in reads]
        super().__init__(stream.ctx, stream.num_partitions + unmatched,
                         dependencies,
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

    def _read(self, index: int, task_context: TaskContext
              ) -> Iterator[Any]:
        """Every record of the one-bucket shuffle ``dependencies[index]``,
        in map order."""
        return itertools.chain.from_iterable(_shuffle_buckets(
            self.ctx, 0, task_context, [self.dependencies[index]]))

    def compute_batches(self, partition: int, task_context: TaskContext,
                        batch_size: int) -> Iterator[List[Any]]:
        # the group fold builds fresh value lists: the stored buckets stay
        # as they are for every other reader
        build_map = wide.GROUP.fold(self._read(1, task_context))
        stream = self._stream
        if partition >= stream.num_partitions:
            # the unmatched-build partition: build keys never seen by the
            # stream, bounded by the (small) broadcast build side
            stream_keys = set(self._read(2, task_context))
            yield from chunk_iterator(itertools.chain.from_iterable(
                self._emit(self._pair(key, [], values))
                for key, values in build_map.items()
                if key not in stream_keys), batch_size)
            return
        # the group fold of the stream partition: first-appearance order
        grouped = wide.GROUP.fold(stream.iterator(partition, task_context))
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


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------


def build(node: logical.LogicalNode, parents: List[Dataset]) -> Dataset:
    """The physical dataset of the logical ``node`` over ``parents``.

    The one place a logical node becomes a physical dataset: the API
    methods build every transformation through it (:meth:`Dataset._derive`)
    and plan lowering every rewritten node.  ``parents`` are the physical
    datasets of the node's children, in order.  Narrow per-record nodes
    and fused chains are one :class:`FusedDataset`, a shuffle join's
    emission too; wide nodes come from their declaration in
    :data:`repro.engine.wide.OPERATORS`, shuffled or — for a node the
    ``shuffle_elim`` rule marked ``local`` — as the narrow per-partition
    fold.
    """
    if node.op in wide.OPERATORS:
        name, op = wide.OPERATORS[node.op](node)
        if getattr(node, "local", False):
            return MapPartitionsDataset(parents[0], wide.local_form(op)) \
                .set_name(f"{name}(local)")
        return ShuffledDataset(parents, node.partitioner, op, name)
    if node.op in _STAGE or isinstance(node, logical.FusedNode):
        return FusedDataset(parents[0], [
            (stage.op, stage.func) for stage in getattr(node, "stages", [node])])
    if isinstance(node, logical.JoinNode):
        return FusedDataset(parents[0], [("flat_map", node.emit)],
                            join_display_name(node.how))
    if isinstance(node, logical.BroadcastJoinNode):
        stream, broadcast = parents if node.broadcast_side == "right" \
            else parents[::-1]
        return BroadcastJoinDataset(stream, broadcast, node.emit, node.how,
                                    node.broadcast_side)
    if isinstance(node, logical.MapPartitionsNode):
        return MapPartitionsDataset(parents[0], node.func,
                                    with_index=node.with_index)
    if isinstance(node, logical.SampleNode):
        return SampleDataset(parents[0], node.fraction, node.seed)
    if isinstance(node, logical.CoalesceNode):
        return CoalescedDataset(parents[0], node.num_partitions)
    if isinstance(node, logical.UnionNode):
        return UnionDataset(parents)
    raise PlanError(f"cannot build logical node {node.op!r} without a "
                    f"physical dataset")
