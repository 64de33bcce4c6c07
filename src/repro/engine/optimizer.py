"""Rule-based optimizer, cost model and physical lowering for logical plans.

The optimizer rewrites the logical plan a :class:`~repro.engine.dataset.Dataset`
recorded, then :func:`lower_plan` turns the optimized plan back into physical
datasets the DAG scheduler can run.  Every rule is one row of :data:`RULES`,
in application order: its phase (structural rules reshape the plan,
cost-based ones decide on the statistics the estimator writes onto it), the
knob condition that arms it, and its rewrite, whose docstring says what the
rule does.  :data:`repro.config.KNOWN_OPTIMIZER_RULES` lists the same names
and this module fails at import when the two disagree.

Before any rule runs, every checkpointed subtree is truncated to a scan of
its checkpoint.  That step is not a rule: no rule set may re-run the
lineage above a checkpoint.

The cost-based rules read the :class:`~repro.engine.stats.StatsEstimate`
annotations a :class:`~repro.engine.stats.StatsEstimator` writes onto the
plan right before they run; re-running the optimizer after a shuffle-map
stage completes therefore folds *actual* sizes into the decisions (adaptive
re-optimization, driven by the DAG scheduler).

The cost model is deliberately simple and documented in
docs/architecture.md::

    cost(plan) = Σ_node  bytes(node)                      # pipelined scan
               + Σ_shuffle 2 × bytes(shuffle input)       # write + read
               + Σ_broadcast bytes(build) × partitions    # replication
               + Σ_unmatched-pass bytes(stream)           # extra key-set scan
               + Σ_skewed-shuffle (max − balanced partition bytes)
                                  × idle reduce slots     # straggler price

Rewrites never mutate nodes: a rule returns copies (``copy_with``) for the
parts it changes and the untouched originals elsewhere.  Lowering exploits
that: an original node lowers to the physical dataset the API already built
(preserving shuffle/cache reuse), and rewritten nodes are lowered at most
once per context thanks to a structural-signature memo.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..config import KNOWN_OPTIMIZER_RULES, EngineConfig
from . import dataset as physical
from .partitioner import HashPartitioner, RoundRobinPartitioner
from .plan import (AggregateNode, BroadcastJoinNode, CheckpointScanNode,
                   CoGroupNode, FilterNode, FlatMapNode, FusedNode, JoinNode,
                   LocalizableNode, LogicalNode, MapNode, PhysicalScanNode,
                   ProjectedScanNode, ProjectNode, RepartitionNode, SortNode,
                   SourceNode, output_partitioning)
from .stats import StatsEstimator, stamp_shuffle_hints

#: Narrow per-record operators the ``fuse_narrow`` rule may collapse.
_FUSABLE = (MapNode, FilterNode, FlatMapNode, ProjectNode)

#: Upper bound on pushdown fixpoint iterations (a filter can sink through at
#: most this many shuffle boundaries; real plans have a handful).
_MAX_PUSHDOWN_PASSES = 10

#: A reduce partition counts as skewed when its map-output bytes exceed this
#: multiple of the shuffle's median partition size (and the configured
#: ``skew_min_partition_bytes`` floor), mirroring the classic AQE detection.
SKEW_MEDIAN_FACTOR = 2.0

#: Cap on the context-wide lowered-plan memo.  Long-running contexts (e.g.
#: streaming, one fresh plan per micro-batch) would otherwise pin every
#: batch's physical lineage forever; evicting oldest entries only costs
#: re-lowering if an old plan resurfaces.
_LOWERED_MEMO_LIMIT = 512

# -- cost model weights ------------------------------------------------------

#: Every shuffled byte is written to and read back from the shuffle store.
SHUFFLE_WEIGHT = 2.0
#: Every byte an operator outputs is scanned once by its consumer.
SCAN_WEIGHT = 1.0
#: A broadcast build side is (conceptually) replicated to every stream task.
BROADCAST_WEIGHT = 1.0
#: Weight of the skew surcharge priced onto shuffles with a sampled hot key:
#: the bytes by which the predicted *largest* reduce partition exceeds the
#: balanced share, charged once per reduce slot left idle behind the
#: straggler.  On a real cluster a stage finishes no earlier than its
#: slowest task, so the straggler — not the average — is what the shuffle
#: actually costs.
SKEW_STRAGGLER_WEIGHT = 1.0


def skew_surcharge(node: LogicalNode) -> float:
    """Straggler price of a shuffle whose key distribution is skewed.

    Uses the sampled :class:`~repro.engine.stats.KeyDistribution` stamped on
    key-bearing shuffle nodes (``key_stats``) to predict the largest reduce
    partition's byte share; the surcharge is the excess over a balanced
    partition, multiplied by the reduce slots idling while it runs.  Nodes
    without a sampled distribution (or without skew) price to zero, keeping
    the model unchanged for uniform data.
    """
    distribution = getattr(node, "key_stats", None)
    partitioner = getattr(node, "partitioner", None)
    if distribution is None or partitioner is None:
        return 0.0
    parallelism = partitioner.num_partitions
    if parallelism <= 1:
        return 0.0
    input_bytes = sum(child.stats.size_bytes for child in node.children
                      if child.stats is not None)
    if input_bytes <= 0:
        return 0.0
    hot = distribution.predicted_max_partition_share(parallelism)
    balanced = 1.0 / parallelism
    if hot <= balanced:
        return 0.0
    return input_bytes * (hot - balanced) * (parallelism - 1) * \
        SKEW_STRAGGLER_WEIGHT


def plan_cost(plan: LogicalNode) -> float:
    """Estimated cost of an (annotated) plan under the documented model.

    Nodes without statistics contribute nothing, so the value is a lower
    bound; it is meant for *comparing* alternative shapes of the same plan,
    which share the same unknown parts.
    """
    total = 0.0
    for node in _iter_nodes(plan):
        if node.stats is not None:
            total += node.stats.size_bytes * SCAN_WEIGHT
        if node.is_shuffle:
            for child in node.children:
                if child.stats is not None:
                    total += child.stats.size_bytes * SHUFFLE_WEIGHT
            total += skew_surcharge(node)
        if isinstance(node, BroadcastJoinNode):
            build = node.children[1] if node.broadcast_side == "right" \
                else node.children[0]
            stream = node.children[0] if node.broadcast_side == "right" \
                else node.children[1]
            if build.stats is not None:
                total += build.stats.size_bytes * BROADCAST_WEIGHT * \
                    node.parallelism
            if physical.broadcast_preserves_build(node.how, node.broadcast_side) \
                    and stream.stats is not None:
                total += stream.stats.size_bytes * SCAN_WEIGHT
    return total


def _iter_nodes(node: LogicalNode):
    yield node
    for child in node.children:
        yield from _iter_nodes(child)


def _replace_topmost(node: LogicalNode,
                     scan: Callable[[LogicalNode], Optional[LogicalNode]]
                     ) -> LogicalNode:
    """Replace each topmost inner node ``scan`` maps to a leaf by the leaf."""
    leaf = scan(node) if node.children else None
    return leaf if leaf is not None else _with_children(
        node, lambda child: _replace_topmost(child, scan))


def _with_children(node: LogicalNode,
                   rewrite: Callable[[LogicalNode], LogicalNode]
                   ) -> LogicalNode:
    """``node`` over its rewritten children: a copy when any changed."""
    new_children = [rewrite(child) for child in node.children]
    if any(new is not old for new, old in zip(new_children, node.children)):
        node = node.copy_with(children=new_children)
    return node


def _checkpoint_scan(node: LogicalNode) -> Optional[CheckpointScanNode]:
    """Lineage truncation at a durable checkpoint: the scan serves
    verified spans that also survive restarts, so recomputation and
    recovery stop here."""
    ds = node.dataset
    return CheckpointScanNode(ds) if ds is not None and ds.has_checkpoint \
        else None


def _balanced_ranges(map_bytes: List[Tuple[int, int]],
                     wanted: int) -> List[Tuple[int, int]]:
    """Cut the map-partition index space into byte-balanced contiguous ranges.

    ``map_bytes`` lists ``(map_partition, bytes)`` in index order for every
    expected map partition.  The returned ``[lo, hi)`` ranges are disjoint,
    cover the whole index space, and each carries roughly ``total/wanted``
    bytes; at most ``wanted`` ranges are produced (fewer when single map
    buckets dominate — a split never cuts inside one map's bucket).
    """
    if not map_bytes:
        return [(0, 0)]
    lo = map_bytes[0][0]
    hi = map_bytes[-1][0] + 1
    total = sum(size for _, size in map_bytes)
    if wanted <= 1 or total <= 0:
        return [(lo, hi)]
    ranges: List[Tuple[int, int]] = []
    start, accumulated, remaining = lo, 0, total
    for index, (map_partition, size) in enumerate(map_bytes):
        accumulated += size
        if len(ranges) >= wanted - 1 or map_partition + 1 >= hi:
            continue
        # cut where the range is closest to its fair share of what's left:
        # extending past the midpoint of the next bucket would overshoot
        # more than cutting here undershoots (keeps byte-estimate jitter
        # from merging ranges and re-creating a straggler sub-read)
        slots_left = wanted - len(ranges)
        next_size = map_bytes[index + 1][1] if index + 1 < len(map_bytes) else 0
        if accumulated + next_size / 2 > remaining / slots_left:
            ranges.append((start, map_partition + 1))
            start = map_partition + 1
            remaining -= accumulated
            accumulated = 0
    ranges.append((start, hi))
    return ranges


def projection_preserves_keys(project: ProjectNode,
                              shuffle: LogicalNode) -> bool:
    """True when sinking ``project`` below ``shuffle`` cannot change routing.

    A projection may only cross a shuffle whose record routing is provably
    independent of the fields it drops:

    * a round-robin repartition routes by an internal counter — any
      projection is safe;
    * a hash/range repartition routes by record content — dropping a field
      changes the hash, so projections must stay above;
    * a sort routes (and orders) through its key function; only when the
      sort declares ``key_fields`` and the projection keeps them all is
      the key function guaranteed to observe identical values.
    """
    if isinstance(shuffle, RepartitionNode):
        return isinstance(shuffle.partitioner, RoundRobinPartitioner)
    if isinstance(shuffle, SortNode):
        return shuffle.key_fields is not None and \
            set(shuffle.key_fields) <= set(project.fields)
    return False


#: The rule phases, in the order ``optimize`` runs them.
STRUCTURAL, COST = "structural", "cost"


class Rule(NamedTuple):
    """One optimizer rule: a row of :data:`RULES`."""

    phase: str
    #: Whether the configuration's knobs let the rule fire at all.
    armed: Callable[[EngineConfig], bool]
    #: ``rewrite(optimizer, plan, applied) -> plan``; appends the rule's
    #: name to ``applied`` each time it fires.
    rewrite: Callable[..., LogicalNode]


def _always(config: EngineConfig) -> bool:
    return True


class OptimizationResult:
    """The outcome of one optimizer run over a logical plan."""

    def __init__(self, plan: LogicalNode, applied: List[str],
                 cost: Optional[float] = None, truncated: bool = False):
        self.plan = plan
        #: Rule names, one entry per rewrite that fired, in application order.
        self.applied = applied
        #: Estimated cost of the optimized plan (cost-model lower bound),
        #: ``None`` when no statistics layer was available.
        self.cost = cost
        #: Whether a checkpointed subtree was truncated to its scan.
        self.truncated = truncated

    @property
    def changed(self) -> bool:
        """True when a rewrite fired or a checkpoint truncated the plan.

        A checkpoint takes its executable's partitioning, so what the API
        built over it earlier may count other partitions: it is rebuilt.
        """
        return bool(self.applied) or self.truncated


class PlanOptimizer:
    """Applies the enabled rewrite rules to logical plans."""

    def __init__(self, config: EngineConfig, block_store,
                 shuffle_manager=None, lowered_plans=None):
        self.config = config
        self.block_store = block_store
        #: Statistics layer shared by the cost-based rules and ``explain()``.
        self.estimator = StatsEstimator(config, block_store, shuffle_manager,
                                        lowered_plans)

    # -- public API ---------------------------------------------------------

    def optimize(self, plan: LogicalNode) -> OptimizationResult:
        """Rewrite ``plan`` with every enabled, armed rule, phase by phase.

        Checkpointed subtrees are truncated first, under every rule set.
        The plan is annotated with statistics (folding in any *actual*
        sizes of already-completed shuffle map stages) after the structural
        rules, so the cost-based rules decide on it, and again at the end.
        Fusion is the last structural rule: the annotated plan then has the
        exact shape (and structural signatures) of the plan that executes,
        so actual sizes of its completed shuffles resolve on re-planning.
        """
        applied: List[str] = []
        node = truncated = _replace_topmost(plan, _checkpoint_scan)
        for phase in (STRUCTURAL, COST):
            for name in self.armed(phase):
                node = RULES[name].rewrite(self, node, applied)
            self.estimator.annotate(node)
        return OptimizationResult(node, applied, cost=plan_cost(node),
                                  truncated=truncated is not plan)

    def armed(self, phase: str) -> List[str]:
        """The enabled rules of ``phase`` their knobs arm, in order."""
        enabled = self.config.optimizer_rules
        return [name for name, rule in RULES.items()
                if rule.phase == phase and name in enabled
                and rule.armed(self.config)]

    # -- generic bottom-up rewriting ----------------------------------------

    def _transform(self, node: LogicalNode,
                   rule: Callable[[LogicalNode], LogicalNode]) -> LogicalNode:
        """Apply ``rule`` to every node, children first.

        A node whose children were rewritten is itself copied, so any node
        returned unchanged is guaranteed to head a fully original subtree.
        """
        return rule(_with_children(
            node, lambda child: self._transform(child, rule)))

    # -- rule: cache pruning ------------------------------------------------

    def _materialized_physical(self, node: LogicalNode):
        """The fully cached physical dataset behind ``node``, if any.

        Read through the node's origin: the only copies this rule meets
        are ancestors of truncated checkpoints, which keep their records.
        """
        ds = node.origin_dataset
        if ds is None or not ds.is_cached:
            return None
        for candidate in (ds._executable, ds):
            if candidate is None or not candidate.is_cached:
                continue
            if self.block_store.contains_all(candidate.id,
                                             candidate.num_partitions):
                return candidate
        return None

    def _prune_cached(self, node: LogicalNode, applied: List[str]) -> LogicalNode:
        """Replace a subtree whose root is fully materialised in the block
        store by a direct scan of the cached blocks, so nothing below it is
        re-planned or re-executed."""
        def scan(n: LogicalNode) -> Optional[LogicalNode]:
            materialized = self._materialized_physical(n)
            if materialized is None:
                return None
            applied.append("cache_prune")
            return PhysicalScanNode(materialized)

        return _replace_topmost(node, scan)

    # -- rule: filter / projection pushdown ---------------------------------

    def _push_down(self, node: LogicalNode, applied: List[str]) -> LogicalNode:
        """Move filters below repartition and sort boundaries, and
        projections below shuffles that provably route records
        independently of the projected-away fields
        (:func:`projection_preserves_keys`), so fewer/narrower records
        cross the shuffle.  Projections reaching a schema-bearing source
        fold into the scan itself (:class:`ProjectedScanNode`), which then
        materialises only the surviving columns; adjacent projections
        collapse."""
        for _ in range(_MAX_PUSHDOWN_PASSES):
            fired = len(applied)

            def rule(n: LogicalNode) -> LogicalNode:
                pushed = self._push_down_step(n)
                if pushed is None:
                    return n
                applied.append("pushdown")
                return pushed

            node = self._transform(node, rule)
            if len(applied) == fired:
                break
        return node

    def _push_down_step(self, n: LogicalNode) -> Optional[LogicalNode]:
        """One pushdown step at ``n`` (sink, collapse or fold), if any."""
        if not isinstance(n, (FilterNode, ProjectNode)) or n.is_cached or \
                n.child.is_cached:
            return None
        child = n.child
        if isinstance(child, (RepartitionNode, SortNode)) and \
                (isinstance(n, FilterNode) or
                 projection_preserves_keys(n, child)):
            return child.copy_with(children=[n.copy_with(
                children=[child.child])])
        if isinstance(n, FilterNode):
            return None
        if isinstance(child, ProjectNode) and \
                set(n.fields) <= set(child.fields):
            # the outer field set survives the inner projection unchanged,
            # so one projection suffices (fields outside the inner set
            # would have been nulled and must NOT collapse)
            return n.copy_with(children=[child.child])
        if isinstance(child, ProjectedScanNode) and \
                set(n.fields) <= set(child.fields):
            return self._projected_scan(child.source_dataset, n)
        if isinstance(child, SourceNode):
            return self._fold_projected_scan(n, child)
        return None

    def _fold_projected_scan(self, n: ProjectNode,
                             child: SourceNode) -> Optional[ProjectedScanNode]:
        """Fold ``Project(Source)`` into a pruned scan, when provably safe.

        Requires a schema declaring every projected field: projecting a
        field the schema does not know must materialise it as ``None``
        (``record.get`` semantics), which a pruned scan of schema columns
        could not reproduce.  Hand-pruned scans are left alone.
        """
        ds = child.dataset
        source = getattr(ds, "_source", None) if ds is not None else None
        schema = getattr(source, "schema", None) if source is not None else None
        if schema is None or getattr(ds, "_columns", None) is not None:
            return None
        if not all(schema.has_field(field) for field in n.fields):
            return None
        return self._projected_scan(ds, n)

    @staticmethod
    def _projected_scan(source_dataset, n: ProjectNode) -> ProjectedScanNode:
        scan = ProjectedScanNode(source_dataset, n.fields)
        # the pruned scan produces exactly the projection's records: inherit
        # its origin so cache flags propagate to the right lineage
        scan.origin_dataset = n.origin_dataset
        scan.origin_id = n.origin_id
        return scan

    # -- rule: shuffle elimination ------------------------------------------

    def _eliminate_shuffles(self, node: LogicalNode,
                            applied: List[str]) -> LogicalNode:
        """Drop the shuffle of an aggregation whose input is already
        partitioned by the same partitioner (e.g.
        ``reduce_by_key(n).group_by_key(n)``): the keys are co-located, so
        a narrow per-partition pass suffices."""
        def rule(n: LogicalNode) -> LogicalNode:
            if isinstance(n, LocalizableNode) and not n.local and \
                    output_partitioning(n.child) == (n.partitioned_by,
                                                     n.partitioner):
                applied.append("shuffle_elim")
                return n.copy_with(local=True, variant=n.variant + "|local")
            return n

        return self._transform(node, rule)

    # -- rule: map-side combining -------------------------------------------

    def _insert_combines(self, node: LogicalNode,
                         applied: List[str]) -> LogicalNode:
        """Pre-combine per-key aggregations on the map side, shrinking the
        bytes written to the shuffle."""
        def rule(n: LogicalNode) -> LogicalNode:
            if isinstance(n, AggregateNode) and not n.local and \
                    not n.map_side_combine:
                applied.append("map_side_combine")
                return n.copy_with(map_side_combine=True,
                                   variant=n.variant + "|combine")
            return n

        return self._transform(node, rule)

    # -- rule: cost-based broadcast join selection ---------------------------

    def _broadcast_joins(self, node: LogicalNode,
                         applied: List[str]) -> LogicalNode:
        """Join strategy selection: when one join input's estimated size is
        below ``EngineConfig.broadcast_threshold_bytes``, replace the
        shuffle cogroup with a narrow broadcast hash join (every join
        variant)."""
        threshold = self.config.broadcast_threshold_bytes

        def rule(n: LogicalNode) -> LogicalNode:
            if not isinstance(n, JoinNode) or not isinstance(n.child, CoGroupNode):
                return n
            cogroup = n.child
            if n.is_cached or cogroup.is_cached:
                return n
            if self._shuffle_already_ran(cogroup):
                return n  # both map stages are done; keep reusing their output
            side = self._choose_broadcast_side(n, cogroup, threshold)
            if side is None:
                return n
            applied.append("broadcast_join")
            rewritten = BroadcastJoinNode(
                list(cogroup.children), n.emit, n.how, side, origin=n,
                parallelism=cogroup.partitioner.num_partitions)
            rewritten.stats = n.stats
            return rewritten

        return self._transform(node, rule)

    def _choose_broadcast_side(self, join: JoinNode, cogroup: CoGroupNode,
                               threshold: int) -> Optional[str]:
        """Pick the cheapest eligible build side, or ``None`` to keep the shuffle.

        A side is eligible when its estimated size is known and below the
        broadcast threshold.  Sides whose unmatched rows the join preserves
        (e.g. the right side of a ``right_outer``) additionally need an extra
        pass collecting the stream side's key set, so they are only chosen
        when the cost model still beats the shuffle cogroup.
        """
        side_stats = {"left": cogroup.children[0].stats,
                      "right": cogroup.children[1].stats}
        parallelism = cogroup.partitioner.num_partitions
        shuffle_cost = None
        if side_stats["left"] is not None and side_stats["right"] is not None:
            # a hot key makes the shuffle cogroup pay for its straggler
            # partition, not just total bytes — skew pricing is what flips
            # hot-key joins to broadcast that balanced pricing would keep
            shuffle_cost = (side_stats["left"].size_bytes +
                            side_stats["right"].size_bytes) * SHUFFLE_WEIGHT + \
                skew_surcharge(cogroup)
        candidates = []
        for side in ("right", "left"):  # conventional build side wins ties
            build = side_stats[side]
            if build is None or build.size_bytes > threshold:
                continue
            stream = side_stats["left" if side == "right" else "right"]
            needs_unmatched = physical.broadcast_preserves_build(join.how, side)
            cost = build.size_bytes * BROADCAST_WEIGHT * parallelism
            if needs_unmatched:
                if stream is None or shuffle_cost is None:
                    continue  # cannot price the extra stream key-set pass
                cost += stream.size_bytes * SCAN_WEIGHT
                if cost >= shuffle_cost:
                    continue
            candidates.append((cost, side))
        if not candidates:
            return None
        return min(candidates, key=lambda pair: pair[0])[1]

    def _shuffle_already_ran(self, node: LogicalNode) -> bool:
        """True when every map stage feeding this node's shuffle completed.

        Rewriting such a node would throw away work that is already done and
        re-execute it under a new shuffle id, so the cost-based rules leave
        it alone (the shuffle outputs keep being reused instead).
        """
        manager = self.estimator.shuffle_manager
        if manager is None:
            return False
        ds = self.estimator._physical_of(node)
        return isinstance(ds, physical.ShuffledDataset) and \
            all(manager.map_output_stats(dep.shuffle_id) is not None
                for dep in ds.dependencies)

    # -- rule: cost-based shuffle coalescing ---------------------------------

    def _coalesce_shuffles(self, node: LogicalNode,
                           applied: List[str]) -> LogicalNode:
        """Partition sizing: shrink a shuffle's reduce partition count when
        its estimated output divided by the partition count falls below
        ``EngineConfig.target_partition_bytes``."""
        target = self.config.target_partition_bytes

        def rule(n: LogicalNode) -> LogicalNode:
            if not n.is_shuffle or n.is_cached or isinstance(n, SortNode):
                return n
            partitioner = getattr(n, "partitioner", None)
            if not isinstance(partitioner, (HashPartitioner,
                                            RoundRobinPartitioner)):
                return n
            if n.stats is None or self._shuffle_already_ran(n):
                return n
            current = partitioner.num_partitions
            wanted = max(1, math.ceil(n.stats.size_bytes / target))
            if wanted >= current:
                return n
            replacement = RoundRobinPartitioner(wanted, seed=self.config.seed) \
                if isinstance(partitioner, RoundRobinPartitioner) else \
                HashPartitioner(wanted)
            applied.append("coalesce_shuffle")
            return n.copy_with(partitioner=replacement,
                               variant=n.variant + f"|coalesce{wanted}")

        return self._transform(node, rule)

    # -- rule: runtime skew splitting ----------------------------------------

    def _split_skewed_shuffles(self, node: LogicalNode,
                               applied: List[str]) -> LogicalNode:
        """Annotate completed shuffles whose reduce partitions are skewed.

        The AQE counterpart of ``coalesce_shuffle``: where coalescing
        shrinks many small partitions, this rule fans one fat partition out
        over disjoint map-output slices, each served as its own parallel
        sub-read task.  It only fires once the shuffle's map stages have
        completed — i.e. during adaptive re-plans (or follow-up actions on
        the same lineage), when *actual* per-partition bytes are known — and
        never rewrites the plan structurally: the split plan is stamped onto
        the existing physical dataset, so the completed shuffle output keeps
        being reused.  Splits fall only between map slices, never inside one
        map task's combined run for a key, and the per-slice partials
        re-merge through the operator's combiner, so results are identical
        to the unsplit read.
        """
        factor = self.config.skew_split_factor
        if self.estimator.shuffle_manager is None:
            return node
        min_bytes = self.config.skew_min_partition_bytes
        for n in _iter_nodes(node):
            if not n.is_shuffle or n.is_cached:
                continue
            ds = self.estimator._physical_of(n)
            if not isinstance(ds, physical.ShuffledDataset) or \
                    not ds.supports_slice_reads or \
                    not self._shuffle_already_ran(n):
                continue
            plan = self._skew_split_plan(ds, ds.dependencies, factor, min_bytes)
            if not plan:
                continue
            n.skew_split = {partition: len(units)
                            for partition, units in plan.items()}
            if plan != ds.split_plan:
                ds.split_plan = plan
                applied.append("split_skewed_shuffle")
        return node

    def _skew_split_plan(self, ds, dependencies, factor: int, min_bytes: int
                         ) -> Dict[int, List[Tuple[int, int, int]]]:
        """Compute ``{reduce_partition: [(dep_index, map_lo, map_hi), ...]}``.

        A partition is skewed when its bytes reach the configured floor and
        :data:`SKEW_MEDIAN_FACTOR` times the shuffle's median partition (the
        median gate is waived for single-partition shuffles, which have no
        siblings to compare against).  Each dependency's map range is then
        cut into contiguous slices balanced by actual bucket bytes, the fat
        side getting proportionally more slices.
        """
        manager = self.estimator.shuffle_manager
        per_dep = [manager.reduce_partition_bytes(dep.shuffle_id)
                   for dep in dependencies]
        totals = [sum(sizes.get(partition, 0) for sizes in per_dep)
                  for partition in range(ds.num_partitions)]
        median = statistics.median(totals)
        plan: Dict[int, List[Tuple[int, int, int]]] = {}
        for partition, total in enumerate(totals):
            if total < max(1, min_bytes):
                continue
            if ds.num_partitions > 1 and total < SKEW_MEDIAN_FACTOR * median:
                continue
            target = total / factor
            units: List[Tuple[int, int, int]] = []
            for dep_index, dep in enumerate(dependencies):
                dep_bytes = per_dep[dep_index].get(partition, 0)
                wanted = min(factor, max(1, round(dep_bytes / target))) \
                    if target > 0 else 1
                slices = manager.reduce_partition_map_bytes(dep.shuffle_id,
                                                            partition)
                units.extend((dep_index, lo, hi)
                             for lo, hi in _balanced_ranges(slices, wanted))
            if len(units) > len(dependencies):  # something actually split
                plan[partition] = units
        return plan

    # -- rule: narrow-operator fusion ---------------------------------------

    def _fuse_narrow(self, node: LogicalNode, applied: List[str]) -> LogicalNode:
        """Collapse chains of narrow operators (map/filter/flat_map/project)
        into a single pipelined physical operator."""
        def fusable(n: LogicalNode) -> bool:
            return isinstance(n, _FUSABLE) and not n.is_cached

        def rule(n: LogicalNode) -> LogicalNode:
            if not fusable(n):
                return n
            child = n.child
            if isinstance(child, FusedNode):
                applied.append("fuse_narrow")
                return FusedNode(child.child, child.stages + [n])
            if fusable(child):
                applied.append("fuse_narrow")
                return FusedNode(child.child, [child, n])
            return n

        return self._transform(node, rule)


#: Every optimizer rule, in application order.
RULES: Dict[str, Rule] = {
    "cache_prune": Rule(STRUCTURAL, _always, PlanOptimizer._prune_cached),
    "pushdown": Rule(STRUCTURAL, _always, PlanOptimizer._push_down),
    "shuffle_elim": Rule(STRUCTURAL, _always,
                         PlanOptimizer._eliminate_shuffles),
    "map_side_combine": Rule(STRUCTURAL, _always,
                             PlanOptimizer._insert_combines),
    "fuse_narrow": Rule(STRUCTURAL, _always, PlanOptimizer._fuse_narrow),
    "broadcast_join": Rule(
        COST, lambda config: config.broadcast_threshold_bytes > 0,
        PlanOptimizer._broadcast_joins),
    "coalesce_shuffle": Rule(
        COST, lambda config: config.target_partition_bytes > 0,
        PlanOptimizer._coalesce_shuffles),
    "split_skewed_shuffle": Rule(
        COST, lambda config: config.skew_split_factor > 1,
        PlanOptimizer._split_skewed_shuffles),
}
if tuple(RULES) != KNOWN_OPTIMIZER_RULES:
    raise ImportError("RULES and config.KNOWN_OPTIMIZER_RULES disagree")


# ---------------------------------------------------------------------------
# Lowering: optimized logical plan -> physical datasets
# ---------------------------------------------------------------------------


def lower_plan(node: LogicalNode, ctx) -> "physical.Dataset":
    """Turn an optimized logical plan into a runnable physical dataset.

    Original (unrewritten) nodes lower to the physical dataset the API built.
    A rewritten node is built by :func:`~repro.engine.dataset.build` over
    its lowered children (a pruned scan straight from its source), gets its
    shuffle-size hints, and is shared across plans via its structural
    signature, so repeated actions — and sibling datasets sharing a lineage
    prefix — reuse the same shuffles and caches.
    """
    if node.dataset is not None:
        return node.dataset
    signature = node.signature()
    built = ctx._lowered_plans.get(signature)
    if built is None:
        if isinstance(node, ProjectedScanNode):
            origin = node.source_dataset
            built = physical.SourceDataset(ctx, origin._source,
                                           origin.num_partitions,
                                           columns=node.fields)
        else:
            built = physical.build(node, [lower_plan(child, ctx)
                                          for child in node.children])
        stamp_shuffle_hints(node, built)
        ctx._lowered_plans[signature] = built
        if len(ctx._lowered_plans) > _LOWERED_MEMO_LIMIT:
            # drop the oldest half (dict preserves insertion order)
            for stale in list(ctx._lowered_plans)[:_LOWERED_MEMO_LIMIT // 2]:
                del ctx._lowered_plans[stale]
    origin = node.origin_dataset
    if origin is not None and origin.is_cached and not built.is_cached:
        # the rewritten physical stands in for a cached API dataset: cache it
        # too and remember the mirror so unpersist() can evict it
        built.is_cached = True
        origin._cache_mirrors.append(built)
    if origin is not None and origin._share_key is not None \
            and built._share_key is None:
        # likewise for a shared API dataset: same content, same key
        built._share_key = origin._share_key
        built._share_origin = origin._share_origin
        origin._cache_mirrors.append(built)
    return built
