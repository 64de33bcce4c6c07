"""Logical plan IR sitting between the Dataset API and the DAG scheduler.

Every :class:`~repro.engine.dataset.Dataset` transformation records a
:class:`LogicalNode` describing *what* was asked for, independently of *how*
it will execute.  When an action runs, the owning engine context hands the
logical plan to the rule-based :class:`~repro.engine.optimizer.PlanOptimizer`,
lowers the optimized plan back to physical datasets and only then schedules
stages.  This is the same three-stage shape production declarative engines
use (logical plan -> optimizer -> physical plan) and is what lets deployment
hints (partitions, map-side combining, streaming micro-batches) steer
execution without touching user code.

Nodes form an immutable tree: rewrite rules never mutate a node in place but
produce copies via :meth:`LogicalNode.copy_with`.  Original nodes keep a
reference to the physical dataset the API eagerly built (``dataset``); a node
returned unchanged by the optimizer therefore lowers to that exact physical
object, preserving shuffle and cache reuse across jobs.
"""

from __future__ import annotations

import copy
import itertools
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

#: Monotonic identity for logical nodes.  Copies produced by rewrite rules
#: keep the origin id of the node they derive from, so that structurally
#: identical rewrites of the same lineage share one lowered physical dataset.
_ORIGIN_COUNTER = itertools.count()


class LogicalNode:
    """One operator of the logical plan."""

    op = "node"
    #: True when lowering this node introduces a shuffle boundary.
    is_shuffle = False

    def __init__(self, children: Sequence["LogicalNode"], dataset=None):
        self.children: List[LogicalNode] = list(children)
        #: The physical dataset the API built for this node; ``None`` on
        #: copies produced by rewrite rules.
        self.dataset = dataset
        #: The API dataset this node (or the node it was copied from)
        #: originated at; survives copies so cache flags can be propagated
        #: onto rewritten physical plans.
        self.origin_dataset = dataset
        self.origin_id = next(_ORIGIN_COUNTER)
        #: Rewrite tag ("", "combine", "local", ...) distinguishing variants
        #: of the same origin in lowering signatures.
        self.variant = ""
        #: :class:`repro.engine.stats.StatsEstimate` annotation, written by
        #: the statistics layer on every optimizer run; ``None`` before the
        #: first estimation (and on operators with unknown cardinality).
        self.stats = None
        #: :class:`repro.engine.stats.KeyDistribution` annotation of the
        #: operator's key-bearing input (distinct keys, heavy-hitter
        #: shares), sampled from sources and completed shuffles; ``None``
        #: when no key distribution could be observed.
        self.key_stats = None
        #: Runtime skew-split decision: ``{reduce_partition: sub_reads}``
        #: stamped by the ``split_skewed_shuffle`` rule once actual
        #: map-output bytes mark a partition as skewed; ``None`` otherwise.
        self.skew_split = None

    # -- structure ----------------------------------------------------------

    @property
    def child(self) -> "LogicalNode":
        """The single input of a unary node."""
        return self.children[0]

    def copy_with(self, children: Optional[Sequence["LogicalNode"]] = None,
                  **attrs: Any) -> "LogicalNode":
        """Return a rewritten copy; it keeps the origin but drops ``dataset``."""
        clone = copy.copy(self)
        clone.children = list(self.children if children is None else children)
        clone.dataset = None
        for name, value in attrs.items():
            setattr(clone, name, value)
        return clone

    def signature(self) -> Tuple[Any, ...]:
        """Structural identity used to share lowered physical datasets."""
        return (self.op, self.variant, self.origin_id,
                tuple(child.signature() for child in self.children))

    @property
    def is_cached(self) -> bool:
        """True when the API dataset this node originated at is a
        materialisation point: cached, or shared across contexts."""
        origin = self.origin_dataset
        return origin is not None and \
            (origin.is_cached or origin._share_key is not None)

    # -- display ------------------------------------------------------------

    def details(self) -> str:
        """Operator-specific attributes shown by ``explain()``."""
        return ""

    def label(self) -> str:
        """One-line rendering of this node."""
        parts = [self.op.capitalize() if self.op.islower() else self.op]
        details = self.details()
        attrs = [details] if details else []
        if self.is_cached:
            attrs.append("cached")
        if attrs:
            parts.append(f"[{', '.join(attrs)}]")
        if self.stats is not None:
            parts.append(f"  ({self.stats.render()})")
        if self.key_stats is not None:
            parts.append(f"  ({self.key_stats.render()})")
        if self.skew_split:
            splits = ", ".join(f"p{partition}->{sub_reads} sub-reads"
                               for partition, sub_reads
                               in sorted(self.skew_split.items()))
            parts.append(f"  (skew split: {splits})")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} op={self.op} variant={self.variant!r}>"


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class SourceNode(LogicalNode):
    """A leaf: an in-memory collection or an external data source."""

    op = "source"

    def __init__(self, dataset):
        super().__init__([], dataset=dataset)

    def details(self) -> str:
        if self.dataset is None:
            return ""
        return f"{self.dataset.name}, partitions={self.dataset.num_partitions}"


class PhysicalScanNode(LogicalNode):
    """A leaf wrapping an already materialised physical dataset.

    Inserted by the cache-pruning rule: the whole subtree below a fully
    cached dataset is replaced by a direct scan of its cached blocks.
    """

    op = "cached_scan"

    def __init__(self, dataset):
        super().__init__([], dataset=dataset)

    def signature(self) -> Tuple[Any, ...]:
        """Keyed by the scanned dataset, not the origin counter.

        Scan nodes are built fresh on every optimizer run; a counter-based
        identity would make every run's plan look new, defeating the lowered
        -plan memo (and causing adaptive re-optimization to re-execute
        shuffles above a cached dataset on every re-plan).
        """
        ds_id = self.dataset.id if self.dataset is not None else self.origin_id
        return (self.op, self.variant, ("scan", ds_id), ())

    def details(self) -> str:
        if self.dataset is None:
            return ""
        return f"{self.dataset.name}, partitions={self.dataset.num_partitions}"


class CheckpointScanNode(LogicalNode):
    """A leaf scanning a dataset's durable checkpoint.

    Inserted by the optimizer, before any rule, when a dataset has a
    checkpoint (:meth:`~repro.engine.dataset.Dataset.checkpoint`): the
    whole subtree below it is replaced by a scan of the checkpoint's
    spans, so stage-retry recomputation and recovery replay stop at the
    checkpoint instead of walking the lineage back to the sources.
    ``dataset`` is the checkpointed dataset itself — it serves each
    partition from its span, and a span that fails its checks is lost
    output, recomputed from the lineage behind the checkpoint, so this
    truncation can never produce a wrong answer.
    """

    op = "checkpoint_scan"

    def __init__(self, dataset):
        super().__init__([], dataset=dataset)

    def signature(self) -> Tuple[Any, ...]:
        """Keyed by the checkpointed dataset, not the origin counter.

        Same reasoning as :class:`PhysicalScanNode`: the node is rebuilt on
        every optimizer run and a counter identity would defeat the
        lowered-plan memo.
        """
        ds_id = self.dataset.id if self.dataset is not None else self.origin_id
        return (self.op, self.variant, ("checkpoint", ds_id), ())

    def details(self) -> str:
        if self.dataset is None:
            return ""
        return f"{self.dataset.name}, partitions={self.dataset.num_partitions}"


class ProjectedScanNode(LogicalNode):
    """A leaf scanning only some fields of a schema-bearing source.

    Produced by the pushdown rule when a projection reaches a
    :class:`SourceNode` whose source declares a schema covering the
    projected fields: the project folds *into* the scan, which then
    materialises only the surviving columns
    (``SourceDataset(columns=...)``).  ``source_dataset`` is the original
    full-width physical scan; lowering builds the pruned dataset fresh.
    """

    op = "pruned_scan"

    def __init__(self, source_dataset, fields: Sequence[str]):
        super().__init__([], dataset=None)
        self.source_dataset = source_dataset
        self.fields = list(fields)

    def signature(self) -> Tuple[Any, ...]:
        """Keyed by the scanned dataset and field set, not the origin counter.

        Like :class:`PhysicalScanNode`: the node is rebuilt on every
        optimizer run, so a counter-based identity would defeat the
        lowered-plan memo and re-create the pruned physical dataset (and
        everything above it) per action.
        """
        return (self.op, self.variant,
                ("scan", self.source_dataset.id, tuple(self.fields)), ())

    def details(self) -> str:
        return (f"{self.source_dataset.name}, fields={self.fields}, "
                f"partitions={self.source_dataset.num_partitions}")


# ---------------------------------------------------------------------------
# Narrow unary operators
#
# ``map``, ``filter``, ``flat_map`` and ``project`` each carry the record
# function ``func`` of the one stage they lower to.
# ---------------------------------------------------------------------------


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


class MapNode(LogicalNode):
    op = "map"

    def __init__(self, child: LogicalNode, func: Callable[[Any], Any], dataset=None):
        super().__init__([child], dataset=dataset)
        self.func = func


class FilterNode(LogicalNode):
    op = "filter"

    def __init__(self, child: LogicalNode, predicate: Callable[[Any], bool],
                 dataset=None):
        super().__init__([child], dataset=dataset)
        self.predicate = predicate

    @property
    def func(self) -> Callable[[Any], bool]:
        """The record function of the stage: the predicate."""
        return self.predicate


class FlatMapNode(LogicalNode):
    op = "flat_map"

    def __init__(self, child: LogicalNode, func: Callable[[Any], Iterable[Any]],
                 dataset=None):
        super().__init__([child], dataset=dataset)
        self.func = func


class ProjectNode(LogicalNode):
    """Keep a subset of the fields of dict records."""

    op = "project"

    def __init__(self, child: LogicalNode, fields: Sequence[str], dataset=None):
        super().__init__([child], dataset=dataset)
        self.fields = list(fields)
        #: The record function of the stage (:func:`field_projector`).
        self.func = field_projector(self.fields)

    def details(self) -> str:
        return f"fields={self.fields}"


class MapPartitionsNode(LogicalNode):
    op = "map_partitions"

    def __init__(self, child: LogicalNode, func: Callable[..., Iterable[Any]],
                 with_index: bool = False, dataset=None):
        super().__init__([child], dataset=dataset)
        self.func = func
        self.with_index = with_index


class SampleNode(LogicalNode):
    op = "sample"

    def __init__(self, child: LogicalNode, fraction: float, seed: int, dataset=None):
        super().__init__([child], dataset=dataset)
        self.fraction = fraction
        self.seed = seed

    def details(self) -> str:
        return f"fraction={self.fraction}"


class CoalesceNode(LogicalNode):
    op = "coalesce"

    def __init__(self, child: LogicalNode, num_partitions: int, dataset=None):
        super().__init__([child], dataset=dataset)
        self.num_partitions = num_partitions

    def details(self) -> str:
        return f"partitions={self.num_partitions}"


class FusedNode(LogicalNode):
    """A pipeline of narrow operators fused into one physical operator.

    ``stages`` holds the original narrow nodes bottom-to-top; lowering turns
    them into a single :class:`~repro.engine.dataset.FusedDataset` so one task
    evaluates the whole chain without intermediate dataset objects.  A lone
    map, filter, flat_map or project node lowers to a ``FusedDataset`` too,
    with one stage: the fused form differs only in having several.
    """

    op = "fused"

    def __init__(self, child: LogicalNode, stages: Sequence[LogicalNode]):
        super().__init__([child], dataset=None)
        self.stages = list(stages)
        self.origin_dataset = self.stages[-1].origin_dataset
        self.origin_id = self.stages[-1].origin_id
        self.variant = "fused:" + ",".join(str(s.origin_id) for s in self.stages)

    def details(self) -> str:
        return "+".join(stage.op for stage in self.stages)


# ---------------------------------------------------------------------------
# Wide (shuffle) operators
# ---------------------------------------------------------------------------


class RepartitionNode(LogicalNode):
    op = "repartition"
    is_shuffle = True

    def __init__(self, child: LogicalNode, partitioner, dataset=None):
        super().__init__([child], dataset=dataset)
        self.partitioner = partitioner

    def details(self) -> str:
        return f"partitions={self.partitioner.num_partitions}"


class SortNode(LogicalNode):
    op = "sort"
    is_shuffle = True

    def __init__(self, child: LogicalNode, key_func, ascending: bool,
                 partitioner, dataset=None, key_fields=None):
        super().__init__([child], dataset=dataset)
        self.key_func = key_func
        self.ascending = ascending
        self.partitioner = partitioner
        #: Optional declaration of the record fields ``key_func`` reads
        #: (``sort_by(..., key_fields=[...])``).  Key-preservation analysis:
        #: a projection that keeps every key field may sink below the sort,
        #: because both the range routing and the local sort observe only
        #: those fields.  ``None`` means the key function is opaque and
        #: projections must stay above.
        self.key_fields = list(key_fields) if key_fields is not None else None

    def details(self) -> str:
        text = (f"partitions={self.partitioner.num_partitions}, "
                f"ascending={self.ascending}")
        if self.key_fields is not None:
            text += f", key_fields={self.key_fields}"
        return text


class LocalizableNode(LogicalNode):
    """A keyed wide operator the ``shuffle_elim`` rule may run narrow.

    ``local`` marks the shuffle-eliminated form: the input is already
    partitioned by ``partitioner`` on what this operator routes by
    (``partitioned_by``: the pair's key, or the whole record), so one fold
    per partition suffices and no shuffle runs.
    """

    partitioned_by = "key"

    def __init__(self, child: LogicalNode, partitioner, dataset=None,
                 local: bool = False):
        super().__init__([child], dataset=dataset)
        self.partitioner = partitioner
        self.local = local

    @property
    def is_shuffle(self) -> bool:  # type: ignore[override]
        return not self.local

    def details(self) -> str:
        mode = "local" if self.local else "shuffle"
        return f"partitions={self.partitioner.num_partitions}, {mode}"


class DistinctNode(LocalizableNode):
    op = "distinct"
    partitioned_by = "record"


class GroupByKeyNode(LocalizableNode):
    op = "group_by_key"


class AggregateNode(LocalizableNode):
    """Per-key aggregation (``combine_by_key`` and everything built on it)."""

    op = "aggregate"

    def __init__(self, child: LogicalNode, create_combiner, merge_value,
                 merge_combiners, partitioner, name: str = "combine_by_key",
                 dataset=None, map_side_combine: bool = False,
                 local: bool = False):
        super().__init__(child, partitioner, dataset=dataset, local=local)
        self.create_combiner = create_combiner
        self.merge_value = merge_value
        self.merge_combiners = merge_combiners
        self.name = name
        self.map_side_combine = map_side_combine

    def details(self) -> str:
        attrs = [self.name, f"partitions={self.partitioner.num_partitions}"]
        if self.local:
            attrs.append("local")
        elif self.map_side_combine:
            attrs.append("map_side_combine")
        return ", ".join(attrs)


class CoGroupNode(LogicalNode):
    op = "cogroup"
    is_shuffle = True

    def __init__(self, children: Sequence[LogicalNode], partitioner,
                 dataset=None):
        super().__init__(children, dataset=dataset)
        self.partitioner = partitioner

    def details(self) -> str:
        return f"partitions={self.partitioner.num_partitions}"


class JoinNode(LogicalNode):
    """The pair-emitting stage of a join over a cogroup."""

    op = "join"

    def __init__(self, child: LogicalNode, emit, how: str = "inner", dataset=None):
        super().__init__([child], dataset=dataset)
        self.emit = emit
        self.how = how

    def details(self) -> str:
        return self.how


class BroadcastJoinNode(LogicalNode):
    """A join lowered to a broadcast hash join instead of a shuffle cogroup.

    Produced by the cost-based ``broadcast_join`` rule when one side's
    estimated size falls below the broadcast threshold: the small (*build*)
    side is collected into a hash map once, and the large (*stream*) side is
    joined against it with a narrow per-partition pass — no shuffle at all.
    ``children`` keeps the join's ``[left, right]`` inputs in API order.
    """

    op = "broadcast_join"

    def __init__(self, children: Sequence[LogicalNode], emit, how: str,
                 broadcast_side: str, origin: LogicalNode,
                 parallelism: int = 1):
        super().__init__(children, dataset=None)
        self.emit = emit
        self.how = how
        #: Which input ("left" or "right") is collected and broadcast.
        self.broadcast_side = broadcast_side
        #: Stream-side task count the build side is replicated to; cost-model
        #: input recorded by the rewrite that produced this node.
        self.parallelism = parallelism
        self.origin_dataset = origin.origin_dataset
        self.origin_id = origin.origin_id
        self.variant = f"broadcast:{broadcast_side}"

    def details(self) -> str:
        return f"{self.how}, broadcast={self.broadcast_side}"


class UnionNode(LogicalNode):
    op = "union"

    def __init__(self, children: Sequence[LogicalNode], dataset=None):
        super().__init__(children, dataset=dataset)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def output_partitioning(node: LogicalNode) -> Optional[Tuple[str, Any]]:
    """How the records produced by ``node`` are partitioned, if known.

    Returns ``("key", partitioner)`` when key-value records are co-located by
    the key of the pair, ``("record", partitioner)`` when whole records are,
    and ``None`` when nothing can be guaranteed.  Local (shuffle-eliminated)
    aggregations preserve the partitioning of their input.
    """
    if not isinstance(node, LocalizableNode):
        return None
    if node.local:
        return output_partitioning(node.child)
    return (node.partitioned_by, node.partitioner)


def render_plan(node: LogicalNode, indent: int = 0) -> List[str]:
    """Render a logical plan as indented lines (used by ``explain()``)."""
    lines = ["  " * indent + node.label()]
    for child in node.children:
        lines.extend(render_plan(child, indent + 1))
    return lines


def count_nodes(node: LogicalNode, predicate: Callable[[LogicalNode], bool]) -> int:
    """Count the nodes of a plan satisfying ``predicate`` (used by tests)."""
    total = 1 if predicate(node) else 0
    return total + sum(count_nodes(child, predicate) for child in node.children)


def count_shuffles(node: LogicalNode) -> int:
    """Number of shuffle boundaries a plan will execute."""
    return count_nodes(node, lambda n: bool(n.is_shuffle))
