"""Logical-plan IR and rule-based optimizer: plan shape and result parity.

One test class per rewrite rule asserts the *shape* of the optimized plan
(fusion count, shuffle count, combine insertion, pruning) and that the
optimized pipeline returns exactly what the unoptimized one does; a
property-style section runs generated pipelines under every rule set and
compares results with an optimizer-disabled engine.
"""

from __future__ import annotations

import pytest

from repro.config import KNOWN_OPTIMIZER_RULES, EngineConfig
from repro.data.schemas import Field, Schema
from repro.data.sources import InMemorySource
from repro.engine import EngineContext
from repro.engine.partitioner import HashPartitioner
from repro.engine.plan import (AggregateNode, FusedNode, PhysicalScanNode,
                               ProjectedScanNode, ProjectNode,
                               RepartitionNode, count_nodes, count_shuffles)
from repro.errors import ConfigurationError


def make_engine(*rules: str, workers: int = 2, **overrides) -> EngineContext:
    return EngineContext(EngineConfig(num_workers=workers,
                                      default_parallelism=4, seed=1,
                                      optimizer_rules=tuple(rules),
                                      **overrides))


def optimized_plan(engine, dataset):
    return engine.optimizer.optimize(dataset.plan)


@pytest.fixture()
def plain_engine():
    ctx = make_engine()  # optimizer fully disabled
    yield ctx
    ctx.stop()


# ---------------------------------------------------------------------------
# Plan recording
# ---------------------------------------------------------------------------


class TestPlanRecording:
    def test_transformations_record_logical_nodes(self, engine):
        ds = (engine.range(10, num_partitions=2)
              .map(lambda x: (x % 2, x))
              .filter(lambda kv: kv[1] > 2)
              .reduce_by_key(lambda a, b: a + b))
        assert ds.plan is not None
        ops = []

        def walk(node):
            ops.append(node.op)
            for child in node.children:
                walk(child)

        walk(ds.plan)
        assert ops == ["aggregate", "filter", "map", "source"]

    def test_join_records_join_node(self, engine):
        left = engine.parallelize([(1, "a")], 2)
        right = engine.parallelize([(1, "b")], 2)
        joined = left.join(right)
        assert joined.plan.op == "join"
        assert joined.plan.child.op == "cogroup"

    def test_explain_shows_three_distinct_sections(self, engine):
        ds = (engine.range(100, num_partitions=4)
              .map(lambda x: (x % 5, x))
              .filter(lambda kv: kv[1] % 2 == 0)
              .reduce_by_key(lambda a, b: a + b))
        text = ds.explain()
        assert "== Logical Plan ==" in text
        assert "== Optimized Plan ==" in text
        assert "== Physical Plan ==" in text
        logical, rest = text.split("== Optimized Plan ==")
        optimized, physical = rest.split("== Physical Plan ==")
        # the optimizer changed the plan, so all three renderings differ
        assert "map_side_combine" in optimized and "map_side_combine" not in logical
        assert "(shuffle)" in physical and "(shuffle)" not in optimized


# ---------------------------------------------------------------------------
# Rule: fuse_narrow
# ---------------------------------------------------------------------------


class TestFuseNarrow:
    def test_narrow_chain_fuses_into_one_operator(self):
        with make_engine("fuse_narrow") as ctx:
            ds = (ctx.range(100, num_partitions=4)
                  .map(lambda x: x + 1)
                  .filter(lambda x: x % 2 == 0)
                  .map(lambda x: x * 10))
            result = optimized_plan(ctx, ds)
            fused = [n for n in iter_nodes(result.plan) if isinstance(n, FusedNode)]
            assert len(fused) == 1
            assert [s.op for s in fused[0].stages] == ["map", "filter", "map"]
            assert ds.collect() == [(x + 1) * 10 for x in range(100) if (x + 1) % 2 == 0]

    def test_single_narrow_op_not_rewritten(self):
        with make_engine("fuse_narrow") as ctx:
            ds = ctx.range(10, num_partitions=2).map(lambda x: x + 1)
            result = optimized_plan(ctx, ds)
            assert not result.changed
            # unchanged plans execute the exact dataset the API built
            assert ctx._executable_for(ds) is ds

    def test_cached_dataset_is_a_fusion_barrier(self):
        with make_engine("fuse_narrow") as ctx:
            mid = ctx.range(10, num_partitions=2).map(lambda x: x + 1).cache()
            top = mid.map(lambda x: x * 2)
            result = optimized_plan(ctx, top)
            assert not any(isinstance(n, FusedNode) for n in iter_nodes(result.plan))


# ---------------------------------------------------------------------------
# Rule: pushdown
# ---------------------------------------------------------------------------


class TestPushdown:
    def test_filter_moves_below_repartition(self):
        with make_engine("pushdown") as ctx:
            ds = (ctx.range(100, num_partitions=2)
                  .repartition(8)
                  .filter(lambda x: x < 10))
            result = optimized_plan(ctx, ds)
            assert result.plan.op == "repartition"
            assert result.plan.child.op == "filter"
            assert sorted(ds.collect()) == list(range(10))

    def test_filter_moves_below_sort(self):
        with make_engine("pushdown") as ctx:
            ds = (ctx.parallelize([5, 3, 8, 1, 9, 2, 7], 3)
                  .sort_by(lambda x: x)
                  .filter(lambda x: x % 2 == 1))
            result = optimized_plan(ctx, ds)
            assert result.plan.op == "sort"
            assert result.plan.child.op == "filter"
            assert ds.collect() == [1, 3, 5, 7, 9]

    def test_pushdown_reduces_shuffle_bytes(self):
        def pipeline(ctx):
            return (ctx.range(2000, num_partitions=4)
                    .repartition(8)
                    .filter(lambda x: x % 100 == 0))

        with make_engine("pushdown") as ctx:
            optimized = sorted(pipeline(ctx).collect())
            optimized_bytes = ctx.metrics.jobs[-1].shuffle_bytes
        with make_engine() as ctx:
            plain = sorted(pipeline(ctx).collect())
            plain_bytes = ctx.metrics.jobs[-1].shuffle_bytes
        assert optimized == plain
        assert optimized_bytes < plain_bytes / 10

    def test_filter_does_not_cross_aggregations(self):
        with make_engine("pushdown") as ctx:
            ds = (ctx.range(100, num_partitions=4)
                  .map(lambda x: (x % 3, x))
                  .reduce_by_key(lambda a, b: a + b)
                  .filter(lambda kv: kv[1] > 100))
            result = optimized_plan(ctx, ds)
            assert not result.changed


# ---------------------------------------------------------------------------
# Rule: pushdown (projections)
# ---------------------------------------------------------------------------


EVENT_SCHEMA = Schema(name="events",
                      fields=(Field("a", "int"), Field("b", "int"),
                              Field("c", "str")))

EVENT_ROWS = [{"a": i, "b": i * 2, "c": f"payload-{i:06d}-" * 4}
              for i in range(100)]


def schema_scan(ctx, partitions: int = 4):
    source = InMemorySource("events", EVENT_ROWS, schema=EVENT_SCHEMA)
    return ctx.from_source(source, num_partitions=partitions)


class TestProjectionPushdown:
    def test_project_folds_into_pruned_scan(self):
        with make_engine("pushdown") as ctx:
            ds = schema_scan(ctx).project(["a", "c"])
            result = optimized_plan(ctx, ds)
            assert isinstance(result.plan, ProjectedScanNode)
            assert result.plan.fields == ["a", "c"]
            assert ds.collect() == \
                [{"a": row["a"], "c": row["c"]} for row in EVENT_ROWS]

    def test_unknown_field_blocks_fold(self):
        # "z" is outside the schema; ``record.get`` semantics materialise it
        # as None, which a scan of schema columns alone could not reproduce.
        with make_engine("pushdown") as ctx:
            ds = schema_scan(ctx).project(["a", "z"])
            result = optimized_plan(ctx, ds)
            assert result.plan.op == "project"
            assert ds.collect()[0] == {"a": 0, "z": None}

    def test_schemaless_source_not_folded(self):
        with make_engine("pushdown") as ctx:
            ds = ctx.parallelize(EVENT_ROWS, 4).project(["a"])
            result = optimized_plan(ctx, ds)
            assert result.plan.op == "project"

    def test_project_sinks_below_round_robin_repartition(self):
        with make_engine("pushdown") as ctx:
            ds = schema_scan(ctx).repartition(8).project(["b"])
            result = optimized_plan(ctx, ds)
            assert result.plan.op == "repartition"
            assert isinstance(result.plan.child, ProjectedScanNode)
            assert sorted(row["b"] for row in ds.collect()) == \
                sorted(row["b"] for row in EVENT_ROWS)

    def test_project_stays_above_hash_repartition(self):
        # Hash routing reads record content: dropping fields before the
        # shuffle could change which reducer a record lands on, so
        # key-preservation analysis refuses the swap.
        with make_engine("pushdown") as ctx:
            shuffled = RepartitionNode(schema_scan(ctx).plan,
                                       HashPartitioner(4))
            plan = ProjectNode(shuffled, ["a"])
            result = ctx.optimizer.optimize(plan)
            assert result.plan.op == "project"
            assert result.plan.child.op == "repartition"

    def test_project_sinks_below_sort_with_declared_keys(self):
        with make_engine("pushdown") as ctx:
            ds = (schema_scan(ctx)
                  .sort_by(lambda row: row["b"], key_fields=["b"])
                  .project(["b"]))
            result = optimized_plan(ctx, ds)
            assert result.plan.op == "sort"
            assert isinstance(result.plan.child, ProjectedScanNode)
            assert ds.collect() == [{"b": row["b"]} for row in EVENT_ROWS]

    def test_project_stays_above_sort_with_opaque_key(self):
        with make_engine("pushdown") as ctx:
            ds = (schema_scan(ctx)
                  .sort_by(lambda row: row["b"])
                  .project(["b"]))
            result = optimized_plan(ctx, ds)
            assert result.plan.op == "project"
            assert result.plan.child.op == "sort"

    def test_project_not_sunk_when_sort_keys_dropped(self):
        with make_engine("pushdown") as ctx:
            ds = (schema_scan(ctx)
                  .sort_by(lambda row: row["b"], key_fields=["b"])
                  .project(["a"]))
            result = optimized_plan(ctx, ds)
            assert result.plan.op == "project"
            assert result.plan.child.op == "sort"

    def test_adjacent_projections_collapse(self):
        with make_engine("pushdown") as ctx:
            ds = schema_scan(ctx).project(["a", "b"]).project(["a"])
            result = optimized_plan(ctx, ds)
            assert isinstance(result.plan, ProjectedScanNode)
            assert result.plan.fields == ["a"]

    def test_widening_projections_keep_null_semantics(self):
        # The inner projection nulls "c"; collapsing project(["a","c"]) over
        # project(["a","b"]) would resurrect it.
        with make_engine("pushdown") as ctx:
            ds = schema_scan(ctx).project(["a", "b"]).project(["a", "c"])
            assert ds.collect()[1] == {"a": 1, "c": None}

    def test_cached_projection_not_rewritten(self):
        with make_engine("pushdown") as ctx:
            ds = schema_scan(ctx).project(["a"]).cache()
            result = optimized_plan(ctx, ds)
            assert result.plan.op == "project"

    def test_pruned_scans_share_one_physical_dataset(self):
        with make_engine("pushdown") as ctx:
            base = schema_scan(ctx)
            first = base.project(["a"])
            second = base.project(["a"])
            assert ctx._executable_for(first) is ctx._executable_for(second)

    def test_projection_pushdown_reduces_shuffle_bytes(self):
        def pipeline(ctx):
            return schema_scan(ctx).repartition(8).project(["a"])

        with make_engine("pushdown") as ctx:
            optimized = pipeline(ctx).collect()
            optimized_bytes = ctx.metrics.jobs[-1].shuffle_bytes
        with make_engine() as ctx:
            plain = pipeline(ctx).collect()
            plain_bytes = ctx.metrics.jobs[-1].shuffle_bytes
        assert optimized == plain
        assert optimized_bytes < plain_bytes / 2


# ---------------------------------------------------------------------------
# Rule: map_side_combine
# ---------------------------------------------------------------------------


class TestMapSideCombine:
    def test_combine_inserted_into_aggregations(self):
        with make_engine("map_side_combine") as ctx:
            ds = (ctx.range(100, num_partitions=4)
                  .map(lambda x: (x % 5, 1))
                  .reduce_by_key(lambda a, b: a + b))
            result = optimized_plan(ctx, ds)
            aggregates = [n for n in iter_nodes(result.plan)
                          if isinstance(n, AggregateNode)]
            assert len(aggregates) == 1
            assert aggregates[0].map_side_combine

    def test_combine_reduces_shuffle_bytes_with_identical_results(self):
        """Acceptance: reduce_by_key over a filter shuffles measurably less.

        Compression is disabled so the comparison measures record
        reduction: the uncombined stream's 2500 near-identical pairs
        compress far better than 40 combiners, and the measured codec
        ratio would otherwise flatter the unoptimized plan.
        """
        def pipeline(ctx):
            return (ctx.range(5000, num_partitions=4)
                    .filter(lambda x: x % 2 == 0)
                    .map(lambda x: (x % 10, 1))
                    .reduce_by_key(lambda a, b: a + b))

        with make_engine(*KNOWN_OPTIMIZER_RULES, spill_codec="none") as ctx:
            optimized = sorted(pipeline(ctx).collect())
            optimized_bytes = ctx.metrics.jobs[-1].shuffle_bytes
        with make_engine(spill_codec="none") as ctx:
            plain = sorted(pipeline(ctx).collect())
            plain_bytes = ctx.metrics.jobs[-1].shuffle_bytes
        assert optimized == plain
        # 2500 surviving records shrink to <= 10 keys x 4 map partitions
        assert optimized_bytes < plain_bytes / 5

    def test_group_by_key_is_not_combined(self):
        with make_engine("map_side_combine") as ctx:
            ds = (ctx.range(100, num_partitions=4)
                  .map(lambda x: (x % 5, x))
                  .group_by_key())
            assert not optimized_plan(ctx, ds).changed


# ---------------------------------------------------------------------------
# Rule: shuffle_elim
# ---------------------------------------------------------------------------


class TestShuffleElimination:
    def test_matching_partitioner_drops_second_shuffle(self):
        with make_engine("shuffle_elim") as ctx:
            ds = (ctx.range(100, num_partitions=4)
                  .map(lambda x: (x % 7, x))
                  .reduce_by_key(lambda a, b: a + b, 4)
                  .group_by_key(4))
            result = optimized_plan(ctx, ds)
            assert count_shuffles(ds.plan) == 2
            assert count_shuffles(result.plan) == 1
            expected = {k: [v] for k, v in
                        (make_collect(lambda c: (c.range(100, num_partitions=4)
                                                 .map(lambda x: (x % 7, x))
                                                 .reduce_by_key(lambda a, b: a + b, 4))))}
            assert {k: v for k, v in ds.collect()} == expected
            job = ctx.metrics.jobs[-1]
            assert sum(1 for s in job.stages if s.is_shuffle_map) == 1

    def test_mismatched_partition_count_keeps_shuffle(self):
        with make_engine("shuffle_elim") as ctx:
            ds = (ctx.range(100, num_partitions=4)
                  .map(lambda x: (x % 7, x))
                  .reduce_by_key(lambda a, b: a + b, 4)
                  .group_by_key(8))
            assert not optimized_plan(ctx, ds).changed

    def test_distinct_over_distinct_eliminated(self):
        with make_engine("shuffle_elim") as ctx:
            ds = ctx.parallelize([1, 2, 2, 3, 3, 3], 3).distinct(4).distinct(4)
            result = optimized_plan(ctx, ds)
            assert count_shuffles(result.plan) == 1
            assert sorted(ds.collect()) == [1, 2, 3]


# ---------------------------------------------------------------------------
# Rule: cache_prune
# ---------------------------------------------------------------------------


class TestCachePrune:
    def test_fully_cached_subtree_becomes_scan(self):
        with make_engine(*KNOWN_OPTIMIZER_RULES) as ctx:
            mid = (ctx.range(60, num_partitions=3)
                   .map(lambda x: (x % 3, x))
                   .reduce_by_key(lambda a, b: a + b)
                   .cache())
            mid.count()  # materialise the cache
            top = mid.map(lambda kv: kv[1])
            result = optimized_plan(ctx, top)
            assert any(isinstance(n, PhysicalScanNode)
                       for n in iter_nodes(result.plan))
            assert count_shuffles(result.plan) == 0
            top.sum()
            assert ctx.metrics.jobs[-1].num_stages == 1

    def test_uncached_subtree_not_pruned(self):
        with make_engine("cache_prune") as ctx:
            ds = ctx.range(10, num_partitions=2).map(lambda x: x + 1)
            assert not optimized_plan(ctx, ds).changed

    def test_zip_with_index_pinned_against_replanning(self):
        """Re-planning after cache() must not shift records under the baked
        offsets: indices stay unique and dense."""
        with make_engine(*KNOWN_OPTIMIZER_RULES) as ctx:
            filtered = (ctx.range(100, num_partitions=4)
                        .repartition(4)
                        .filter(lambda x: x < 25))
            zipped = filtered.zip_with_index()
            filtered.cache()  # bumps the epoch; pushdown now blocked
            pairs = zipped.collect()
            assert sorted(r for r, _ in pairs) == list(range(25))
            assert sorted(i for _, i in pairs) == list(range(25))

    def test_caching_after_planning_invalidates_memoised_executables(self):
        """cache() must re-plan datasets optimized before the flag was set."""
        calls = []

        def trace(x):
            calls.append(x)
            return x * 2

        with make_engine(*KNOWN_OPTIMIZER_RULES) as ctx:
            mapped = ctx.range(10, num_partitions=2).map(trace)
            result = mapped.filter(lambda x: x > 5)
            result.collect()          # memoises a fused executable
            first_calls = len(calls)
            mapped.cache()
            mapped.collect()          # materialises the cache
            mid_calls = len(calls)
            result.collect()          # must read the cache, not re-run trace
            assert first_calls == 10
            assert mid_calls == 20
            assert len(calls) == 20
            assert ctx.metrics.jobs[-1].cache_hits == 2


# ---------------------------------------------------------------------------
# Result parity: optimized and unoptimized plans agree on generated data
# ---------------------------------------------------------------------------


PIPELINES = {
    "fused-narrow": lambda ds: ds.map(lambda x: x * 3).filter(
        lambda x: x % 2 == 0).map(lambda x: x - 1),
    "aggregate": lambda ds: ds.map(lambda x: (x % 13, x)).reduce_by_key(
        lambda a, b: a + b),
    "aggregate-chain": lambda ds: ds.map(lambda x: (x % 5, x)).reduce_by_key(
        lambda a, b: a + b, 4).group_by_key(4).map_values(sorted),
    "repartition-filter": lambda ds: ds.repartition(6).filter(
        lambda x: x % 3 == 0),
    "sort-filter": lambda ds: ds.sort_by(lambda x: -x).filter(
        lambda x: x % 2 == 1),
    "distinct-twice": lambda ds: ds.map(lambda x: x % 17).distinct(4).distinct(4),
    "mixed": lambda ds: ds.filter(lambda x: x % 2 == 0).map(
        lambda x: (x % 7, 1)).reduce_by_key(lambda a, b: a + b, 3),
}


@pytest.mark.parametrize("pipeline_name", sorted(PIPELINES))
@pytest.mark.parametrize("seed", [0, 1])
def test_property_optimized_matches_unoptimized(pipeline_name, seed):
    import random

    rng = random.Random(seed)
    data = [rng.randrange(200) for _ in range(rng.randrange(1, 400))]
    build = PIPELINES[pipeline_name]
    with make_engine(*KNOWN_OPTIMIZER_RULES) as ctx:
        optimized = build(ctx.parallelize(data, 4)).collect()
    with make_engine() as ctx:
        plain = build(ctx.parallelize(data, 4)).collect()
    assert sorted(map(repr, optimized)) == sorted(map(repr, plain))


@pytest.mark.parametrize("rule", sorted(KNOWN_OPTIMIZER_RULES))
def test_property_each_rule_alone_preserves_results(rule):
    import random

    rng = random.Random(hash(rule) & 0xFFFF)
    data = [rng.randrange(100) for _ in range(300)]
    for build in PIPELINES.values():
        with make_engine(rule) as ctx:
            with_rule = build(ctx.parallelize(data, 4)).collect()
        with make_engine() as ctx:
            without = build(ctx.parallelize(data, 4)).collect()
        assert sorted(map(repr, with_rule)) == sorted(map(repr, without))


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


class TestSkewPricedCost:
    """The cost model prices the predicted max reduce partition, so the
    straggler — not the average — drives join strategy selection."""

    LEFT_ROWS = 20_000
    RIGHT = [(k % 51, ("dim", k)) for k in range(12_000)]

    @staticmethod
    def _left(hot: bool):
        if hot:
            return [(0 if i % 10 < 8 else i % 50 + 1, i) for i in range(20_000)]
        return [(i % 50, i) for i in range(20_000)]

    def _strategy(self, hot: bool) -> str:
        # threshold sized between the two inputs: only the right (build)
        # side is broadcast-eligible, and a right_outer join's preserved
        # build side forces the cost comparison against the shuffle cogroup
        config = EngineConfig(num_workers=2, default_parallelism=4, seed=1,
                              broadcast_threshold_bytes=60_000,
                              adaptive_enabled=False)
        with EngineContext(config) as ctx:
            left = ctx.parallelize(self._left(hot), 4)
            right = ctx.parallelize(self.RIGHT, 2)
            join = left.right_outer_join(right, 4)
            result = ctx.optimizer.optimize(join.plan)
            return "broadcast" if "broadcast_join" in result.applied \
                else "shuffle"

    def test_hot_key_join_flips_to_broadcast(self):
        assert self._strategy(hot=False) == "shuffle"
        assert self._strategy(hot=True) == "broadcast"

    def test_flip_is_driven_by_the_straggler_surcharge(self, monkeypatch):
        from repro.engine import optimizer as optimizer_module
        monkeypatch.setattr(optimizer_module, "SKEW_STRAGGLER_WEIGHT", 0.0)
        assert self._strategy(hot=True) == "shuffle"

    def test_surcharge_scales_with_the_hot_key(self):
        from repro.engine.optimizer import skew_surcharge
        config = EngineConfig(num_workers=2, default_parallelism=4, seed=1)
        with EngineContext(config) as ctx:
            uniform = ctx.parallelize(self._left(hot=False), 4).group_by_key(4)
            hot = ctx.parallelize(self._left(hot=True), 4).group_by_key(4)
            for ds in (uniform, hot):
                ctx.optimizer.estimator.annotate(ds.plan)
            # near-uniform keys price a near-zero surcharge; the 80%-hot
            # key pays for the straggler partition it predicts
            assert skew_surcharge(hot.plan) > \
                10 * skew_surcharge(uniform.plan)
            input_bytes = hot.plan.children[0].stats.size_bytes
            assert skew_surcharge(hot.plan) > input_bytes

    def test_predicted_max_partition_share(self):
        from repro.engine.stats import KeyDistribution
        uniform = KeyDistribution(distinct_keys=100, top_shares=((7, 0.01),),
                                  sampled_records=100)
        skewed = KeyDistribution(distinct_keys=10, top_shares=((0, 0.8),),
                                 sampled_records=100)
        assert uniform.predicted_max_partition_share(4) == pytest.approx(
            0.01 + 0.99 * 0.25)
        assert skewed.predicted_max_partition_share(4) == pytest.approx(
            0.8 + 0.2 * 0.25)
        assert skewed.predicted_max_partition_share(1) == 1.0


class TestOptimizerConfig:
    def test_unknown_rule_rejected(self):
        # a bare string would otherwise explode into one-letter rules
        for rules in (("definitely_not_a_rule",), "pushdown"):
            with pytest.raises(ConfigurationError, match="optimizer_rules"):
                EngineConfig(optimizer_rules=rules)

    def test_rules_normalised_to_tuple(self):
        config = EngineConfig(optimizer_rules=["fuse_narrow"])
        assert config.optimizer_rules == ("fuse_narrow",)

    def test_disabled_optimizer_runs_api_dataset(self, plain_engine):
        ds = (plain_engine.range(50, num_partitions=2)
              .map(lambda x: (x % 3, 1)).reduce_by_key(lambda a, b: a + b))
        assert plain_engine._executable_for(ds) is ds
        assert dict(ds.collect()) == {0: 17, 1: 17, 2: 16}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def iter_nodes(node):
    yield node
    for child in node.children:
        yield from iter_nodes(child)


def make_collect(build):
    with make_engine() as ctx:
        return build(ctx).collect()
