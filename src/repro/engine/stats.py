"""Statistics layer: per-node row/byte estimates feeding the cost model.

Production engines decide execution shape (broadcast vs shuffle joins,
partition counts) from *statistics*: source sizes, selectivity heuristics and
— at runtime — the actual sizes of completed shuffle map outputs.  This
module supplies that layer for the logical plan IR:

* :class:`StatsEstimate` — the per-node annotation (`rows`, `size_bytes`,
  and whether the numbers were *observed* rather than guessed).
* :class:`StatsEstimator` — walks a logical plan bottom-up and annotates
  every node, combining three sources in decreasing order of trust:

  1. **actuals** — completed shuffle map outputs (via
     :meth:`repro.engine.shuffle.ShuffleManager.map_output_stats`) and fully
     cached block-store datasets;
  2. **source sampling** — in-memory collections are stride-sampled with the
     same :func:`repro.engine.shuffle.estimate_bytes` accounting the shuffle
     uses, so estimates and actuals are directly comparable;
  3. **selectivity heuristics** — fixed per-operator factors (filters keep
     half their input, aggregations one fifth, ...), the classic textbook
     defaults.

Each narrow kind's heuristic is one entry of :data:`NARROW_ESTIMATES`.
:func:`stamp_shuffle_hints` copies the estimates onto the
``estimated_bytes`` of built :class:`~repro.engine.dataset.ShuffleDependency`
objects (for the estimator and for plan lowering), which lets the DAG
scheduler run the cheapest pending shuffle-map stage first — exactly the
ordering that gives adaptive re-optimization the best chance to cancel the
expensive stages it makes redundant.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..config import EngineConfig
from . import dataset as physical
from .plan import (BroadcastJoinNode, CheckpointScanNode, CoGroupNode,
                   DistinctNode, FusedNode, GroupByKeyNode, LocalizableNode,
                   LogicalNode, PhysicalScanNode, ProjectedScanNode,
                   SourceNode, UnionNode)
from .memory import resolve_codec
from .shuffle import KEY_SAMPLE_SIZE, estimate_bytes

# -- selectivity heuristics (applied when no actuals are available) ----------

#: Fraction of records assumed to survive a filter.
FILTER_SELECTIVITY = 0.5
#: Rows-out / rows-in assumed for a flat_map (neutral by default).
FLAT_MAP_GROWTH = 1.0
#: Byte shrink assumed for a field projection.
PROJECT_BYTES_RATIO = 0.6
#: Fraction of records assumed to survive de-duplication.
DISTINCT_RATIO = 0.5
#: Output rows / input rows assumed for per-key aggregation and grouping.
AGGREGATE_RATIO = 0.2
#: Serialised bytes assumed per record of an external data source.
DEFAULT_RECORD_BYTES = 64

# -- key-distribution sampling ----------------------------------------------

#: Heavy hitters tracked per distribution (the top-k keys by share).
TOP_KEY_COUNT = 5
#: When the sample's distinct share is at most this, keys repeat often
#: enough that the sample has very likely seen (nearly) every key and the
#: sampled distinct count is taken as the population's.
KEY_REPEAT_CONFIDENCE = 0.5


@dataclass(frozen=True)
class KeyDistribution:
    """Sampled key distribution of a key-bearing source or shuffle input.

    ``distinct_keys`` estimates the number of distinct keys in the whole
    input (exact when the sample covered every record); ``top_shares`` holds
    the ``(key, share_of_sampled_records)`` of the heaviest keys.  The
    distribution feeds two consumers: aggregate/group/distinct output
    cardinality (rows out ≈ distinct keys) and skew prediction (a dominant
    ``max_share`` announces the straggler the runtime split rule will
    confirm against actual partition bytes).
    """

    distinct_keys: float
    top_shares: Tuple[Tuple[Any, float], ...]
    sampled_records: int
    exact: bool = False

    @property
    def max_share(self) -> float:
        """Share of the heaviest key among the sampled records."""
        return self.top_shares[0][1] if self.top_shares else 0.0

    def predicted_max_partition_share(self, num_partitions: int) -> float:
        """Predicted share of the *largest* reduce partition after hashing.

        The heaviest key lands whole in one partition; the remaining
        records spread roughly uniformly over all partitions.  The hot
        partition therefore carries about ``max_share`` plus its uniform
        share of the rest — the signal the cost model uses to price the
        straggler of a skewed shuffle instead of assuming balance.
        """
        if num_partitions <= 1:
            return 1.0
        uniform = 1.0 / num_partitions
        if self.max_share <= 0.0:
            return uniform
        return min(1.0, self.max_share + (1.0 - self.max_share) * uniform)

    def render(self) -> str:
        """Compact rendering used by plan labels: ``keys ~12, hot 80%``."""
        marker = "" if self.exact else "~"
        text = f"keys {marker}{self.distinct_keys:,.0f}"
        if self.max_share > 0:
            text += f", hot {self.max_share:.0%}"
        return text


def format_bytes(size: float) -> str:
    """Render a byte count the way ``explain()`` shows it (``1.5KiB`` ...)."""
    size = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            if unit == "B":
                return f"{int(size)}B"
            return f"{size:.1f}{unit}"
        size /= 1024
    return f"{size:.1f}GiB"  # pragma: no cover - unreachable


@dataclass(frozen=True)
class StatsEstimate:
    """Estimated output of one logical operator."""

    rows: float
    size_bytes: float
    #: True when the numbers were observed (cached blocks, completed shuffle
    #: map outputs, in-memory collections), False for heuristic propagation.
    exact: bool = False

    def scaled(self, row_factor: float,
               byte_factor: Optional[float] = None) -> "StatsEstimate":
        """Derive a downstream estimate; derived numbers are never exact."""
        if byte_factor is None:
            byte_factor = row_factor
        return StatsEstimate(rows=self.rows * row_factor,
                             size_bytes=self.size_bytes * byte_factor,
                             exact=False)

    def render(self) -> str:
        """Compact rendering used by plan labels: ``~120 rows, ~3.4KiB``."""
        marker = "" if self.exact else "~"
        return f"{marker}{self.rows:,.0f} rows, {marker}{format_bytes(self.size_bytes)}"


def _unchanged(node: LogicalNode, stats: StatsEstimate) -> StatsEstimate:
    return stats


#: How each narrow kind derives its output estimate from its input's, the
#: one place each selectivity heuristic is applied.  A fused chain folds
#: its stages' entries; a map, a coalesce, a join's emission and a
#: repartition or sort pass the input's estimate on as is (``exact``
#: included).
NARROW_ESTIMATES: Dict[str, Callable[[LogicalNode, StatsEstimate],
                                     StatsEstimate]] = {
    "filter": lambda node, stats: stats.scaled(FILTER_SELECTIVITY),
    "flat_map": lambda node, stats: stats.scaled(FLAT_MAP_GROWTH),
    "project": lambda node, stats: stats.scaled(1.0, PROJECT_BYTES_RATIO),
    "sample": lambda node, stats: stats.scaled(node.fraction),
    **dict.fromkeys(("map", "coalesce", "join", "repartition", "sort"),
                    _unchanged),
}


def stamp_shuffle_hints(node: LogicalNode, ds) -> None:
    """Record each shuffle input's estimated size on ``ds``'s dependency.

    The one writer of ``ShuffleDependency.estimated_bytes``: the estimator
    calls it for every shuffle node whose dataset is built, and lowering
    for every dataset it builds.  The scheduler runs cheaper pending
    shuffle-map stages first, so adaptive re-optimization learns actual
    sizes before the expensive stages.
    """
    if isinstance(ds, physical.ShuffledDataset):
        for child, dependency in zip(node.children, ds.dependencies):
            if child.stats is not None:
                dependency.estimated_bytes = child.stats.size_bytes


class StatsEstimator:
    """Annotates logical plans with :class:`StatsEstimate` per node."""

    def __init__(self, config: EngineConfig, block_store=None,
                 shuffle_manager=None, lowered_plans=None):
        self.config = config
        self.block_store = block_store
        self.shuffle_manager = shuffle_manager
        #: Resolved frame codec id, so leaf sampling measures the same
        #: compression ratio the shuffle manager's accounting uses.
        self._codec = resolve_codec(config.spill_codec)
        #: The context's structural-signature -> physical dataset memo; lets
        #: the estimator resolve the physical form of *rewritten* nodes so
        #: their completed shuffles feed back into later optimizer runs.
        self.lowered_plans = lowered_plans if lowered_plans is not None else {}
        #: Dataset id -> leaf estimate.  Sampling an in-memory source pickles
        #: a stride sample, and adaptive re-optimization re-annotates the
        #: plan after every shuffle-map stage; source data is immutable, so
        #: its estimate is measured exactly once per dataset.
        self._leaf_cache: dict = {}
        #: Memoised :class:`KeyDistribution` per sampled input (source data
        #: and completed shuffle map outputs are both immutable).
        self._key_cache: dict = {}

    # -- public API ---------------------------------------------------------

    def annotate(self, plan: LogicalNode) -> Optional[StatsEstimate]:
        """Annotate ``plan`` bottom-up; returns the root estimate."""
        return self._estimate(plan)

    # -- resolution helpers -------------------------------------------------

    def _physical_of(self, node: LogicalNode):
        """The physical dataset this node lowers to, when already built."""
        if node.dataset is not None:
            return node.dataset
        return self.lowered_plans.get(node.signature())

    def _shuffled(self, node: LogicalNode):
        """The built :class:`~repro.engine.dataset.ShuffledDataset` of
        ``node`` when a shuffle manager can report on its map outputs."""
        if self.shuffle_manager is None:
            return None
        ds = self._physical_of(node)
        # a checkpointed one reads its checkpoint, not its own shuffles
        return ds if isinstance(ds, physical.ShuffledDataset) and \
            not ds.has_checkpoint else None

    def _map_actual(self, dependency) -> Optional[StatsEstimate]:
        """Actual output of one shuffle's map stage, once it completed."""
        actual = self.shuffle_manager.map_output_stats(dependency.shuffle_id)
        if actual is None:
            return None
        records, size = actual
        return StatsEstimate(rows=float(records), size_bytes=float(size),
                             exact=True)

    def _cached_actual(self, node: LogicalNode) -> Optional[StatsEstimate]:
        """Actual stats of a node whose physical dataset is fully cached."""
        if self.block_store is None:
            return None
        ds = node.dataset
        if ds is None or not ds.is_cached:
            return None
        actual = self.block_store.dataset_stats(ds.id, ds.num_partitions)
        if actual is None:
            return None
        rows, size = actual
        return StatsEstimate(rows=float(rows), size_bytes=float(size),
                             exact=True)

    # -- key distributions ---------------------------------------------------

    def _distribution_from_sample(self, sample, total_rows: float, key_of
                                  ) -> Optional[KeyDistribution]:
        """Build a :class:`KeyDistribution` from sampled records.

        The distinct-count extrapolation is deliberately crude: a sample
        whose keys repeat has very likely seen (nearly) every key, while an
        all-distinct sample scales linearly with the population — the two
        regimes that matter for aggregate cardinality and skew prediction.
        """
        try:
            counts = Counter(key_of(record) for record in sample)
        except (TypeError, IndexError, KeyError):
            return None  # records are not key-bearing / keys unhashable
        sampled = len(sample)
        if not counts or sampled == 0:
            return None
        distinct = len(counts)
        if sampled >= total_rows:
            estimate, exact = float(distinct), True
        elif distinct <= sampled * KEY_REPEAT_CONFIDENCE:
            estimate, exact = float(distinct), False
        else:
            estimate = min(float(total_rows), distinct * total_rows / sampled)
            exact = False
        top = tuple((key, count / sampled)
                    for key, count in counts.most_common(TOP_KEY_COUNT))
        return KeyDistribution(distinct_keys=estimate, top_shares=top,
                               sampled_records=sampled, exact=exact)

    def key_distribution(self, node: LogicalNode) -> Optional[KeyDistribution]:
        """Sampled key distribution of ``node``'s key-bearing input.

        Prefers the *actual* map output of the node's completed shuffle(s);
        before the shuffle runs, in-memory pair sources directly below the
        node are sampled instead.  Returns ``None`` when neither is
        observable (e.g. a UDF map sits between the source and the shuffle).
        """
        if isinstance(node, DistinctNode):
            def key_of(record):
                return record
        elif isinstance(node, (LocalizableNode, CoGroupNode)):
            def key_of(record):
                return record[0]
        else:
            return None
        distribution = self._shuffle_key_distribution(node, key_of)
        if distribution is not None:
            return distribution
        return self._source_key_distribution(node, key_of)

    def _shuffle_key_distribution(self, node: LogicalNode, key_of
                                  ) -> Optional[KeyDistribution]:
        ds = self._shuffled(node)
        if ds is None:
            return None
        actuals = [self._map_actual(dep) for dep in ds.dependencies]
        if any(actual is None for actual in actuals):
            return None
        shuffle_ids = tuple(dep.shuffle_id for dep in ds.dependencies)
        cache_key = ("shuffle",) + shuffle_ids
        if cache_key not in self._key_cache:
            # one stratified draw over every map of every side: each side
            # is represented by its record count, so a hot key on a big
            # side is not diluted by a tiny one
            sample = self.shuffle_manager.sample_records(shuffle_ids,
                                                         KEY_SAMPLE_SIZE)
            self._key_cache[cache_key] = self._distribution_from_sample(
                sample, sum(actual.rows for actual in actuals), key_of)
        return self._key_cache[cache_key]

    def _source_key_distribution(self, node: LogicalNode, key_of
                                 ) -> Optional[KeyDistribution]:
        """Plan-time key distribution of a node fed by in-memory sources.

        Every input must be a directly observable collection — of pairs,
        unless the node is a distinct — since a UDF map in between makes
        the keys unobservable.  Each input contributes samples in
        proportion to its row count (a seeded random draw, not a stride:
        striding aliases badly onto periodically repeating keys), so a hot
        key on either side of a cogroup surfaces in the combined
        distribution — the signal that lets the cost model price a skewed
        join's straggler *before* its shuffles run (once they have run, the
        actual map outputs take over via :meth:`_shuffle_key_distribution`).
        """
        inputs = []
        for child in node.children:
            ds = child.dataset
            data = getattr(ds, "_data", None) if ds is not None else None
            if not data:
                return None
            probe = data[0]
            if not isinstance(node, DistinctNode) and \
                    not (isinstance(probe, tuple) and len(probe) == 2):
                return None
            inputs.append((ds.id, data))
        cache_key = ("source", type(node).__name__) + \
            tuple(ds_id for ds_id, _ in inputs)
        if cache_key not in self._key_cache:
            total = sum(len(data) for _, data in inputs)
            sample: list = []
            for ds_id, data in inputs:
                wanted = max(1, round(KEY_SAMPLE_SIZE * len(data) / total))
                if len(data) <= wanted:
                    sample.extend(data)
                else:
                    rng = random.Random(f"source-sample:{ds_id}")
                    sample.extend(rng.sample(data, wanted))
            self._key_cache[cache_key] = self._distribution_from_sample(
                sample, total, key_of)
        return self._key_cache[cache_key]

    # -- estimation ---------------------------------------------------------

    def _estimate(self, node: LogicalNode) -> Optional[StatsEstimate]:
        children = [self._estimate(child) for child in node.children]
        if isinstance(node, CoGroupNode):
            self._override_cogroup_inputs(node, children)
        if node.is_shuffle:
            stamp_shuffle_hints(node, self._physical_of(node))
        node.stats = self._node_stats(node, children)
        return node.stats

    def _override_cogroup_inputs(self, node: CoGroupNode, children) -> None:
        """Feed actual per-side map-output sizes back into a cogroup's inputs.

        A cogroup shuffles each side independently; once a side's map stage
        has run, its actual output size *is* the size of that input — the
        signal that lets adaptive re-optimization flip a mis-estimated join
        to broadcast mid-job.
        """
        ds = self._shuffled(node)
        if ds is None:
            return
        for index, dependency in enumerate(ds.dependencies):
            actual = self._map_actual(dependency)
            if actual is not None:
                children[index] = node.children[index].stats = actual

    def _node_stats(self, node: LogicalNode,
                    children) -> Optional[StatsEstimate]:
        child = children[0] if children else None

        if isinstance(node, (SourceNode, PhysicalScanNode)):
            return self._leaf_stats(node)
        if isinstance(node, CheckpointScanNode):
            # a checkpoint is a complete shuffle: its map output is exact
            actual = self._map_actual(node.dataset.dependencies[0]) \
                if self.shuffle_manager is not None else None
            return actual if actual is not None else self._leaf_stats(node)
        if isinstance(node, ProjectedScanNode):
            # a pruned scan is its source leaf shrunk by the projection it
            # replaced
            base = self._dataset_stats(node.source_dataset)
            return NARROW_ESTIMATES["project"](node, base) \
                if base is not None else None

        # repartition, sort and keyed shuffles: prefer the actual map output
        # once it exists
        if node.is_shuffle and not isinstance(node, CoGroupNode):
            if isinstance(node, LocalizableNode):
                node.key_stats = self.key_distribution(node)
            ds = self._shuffled(node)
            actual = self._map_actual(ds.dependencies[0]) \
                if ds is not None else None
            if actual is not None:
                if node.key_stats is None or actual.rows <= 0:
                    return actual
                return self._keyed_output(node, actual,
                                          actual.exact and node.key_stats.exact)

        if node.op in NARROW_ESTIMATES or isinstance(node, FusedNode):
            for stage in getattr(node, "stages", [node]):
                if child is not None:
                    child = NARROW_ESTIMATES[stage.op](stage, child)
            return child
        if isinstance(node, LocalizableNode):
            if child is None:
                return None
            if node.key_stats is not None and child.rows > 0 and \
                    node.is_shuffle:
                # local (shuffle-eliminated) variants merge keys per
                # partition only; the whole-input distinct count does not
                # bound their output, so the heuristics stay in charge
                return self._keyed_output(node, child, False)
            return child.scaled(DISTINCT_RATIO if isinstance(node, DistinctNode)
                                else AGGREGATE_RATIO)
        if isinstance(node, CoGroupNode):
            node.key_stats = self.key_distribution(node)
        if any(c is None for c in children) or not isinstance(
                node, (CoGroupNode, BroadcastJoinNode, UnionNode)):
            return None  # e.g. map_partitions: an arbitrary function
        if isinstance(node, CoGroupNode):
            rows = max(c.rows for c in children)
        elif isinstance(node, UnionNode):
            rows = sum(c.rows for c in children)
        else:  # a broadcast join emits about one row per stream row
            rows = children[0 if node.broadcast_side == "right" else 1].rows
        return StatsEstimate(rows=rows,
                             size_bytes=sum(c.size_bytes for c in children))

    def _keyed_output(self, node: LocalizableNode, base: StatsEstimate,
                      exact: bool) -> StatsEstimate:
        """One output record per distinct key of ``base``, the keyed input.

        The sampled key distribution bounds a grouping, aggregation or
        distinct output's cardinality.  Grouping keeps every value, so its
        output bytes stay at the input's; aggregations and distinct shrink
        proportionally to the key ratio.
        """
        rows = min(base.rows, node.key_stats.distinct_keys)
        size = base.size_bytes if isinstance(node, GroupByKeyNode) \
            else base.size_bytes * (rows / base.rows)
        return StatsEstimate(rows=rows, size_bytes=size, exact=exact)

    def _leaf_stats(self, node: LogicalNode) -> Optional[StatsEstimate]:
        cached = self._cached_actual(node)
        if cached is not None:
            return cached
        return self._dataset_stats(node.dataset)

    def _dataset_stats(self, ds) -> Optional[StatsEstimate]:
        if ds is None:
            return None
        data = getattr(ds, "_data", None)
        if data is not None:
            memo = self._leaf_cache.get(ds.id)
            if memo is None:
                memo = StatsEstimate(
                    rows=float(len(data)),
                    size_bytes=float(estimate_bytes(data, self._codec)),
                    exact=True)
                self._leaf_cache[ds.id] = memo
            return memo
        size_hint = getattr(ds, "_size_hint", None)
        if size_hint is not None:
            return StatsEstimate(rows=float(size_hint),
                                 size_bytes=float(size_hint) * DEFAULT_RECORD_BYTES)
        return None
