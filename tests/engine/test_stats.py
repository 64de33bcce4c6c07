"""The statistics layer: byte-estimate sampling, per-node plan annotations,
actual-size feedback from caches and completed shuffles, and the cost model.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import EngineConfig
from repro.engine import EngineContext, plan_cost
from repro.engine.memory import CODEC_NONE
from repro.engine.shuffle import estimate_bytes
from repro.engine.stats import (AGGREGATE_RATIO, FILTER_SELECTIVITY,
                                KeyDistribution, StatsEstimate, format_bytes)


def make_engine(**overrides) -> EngineContext:
    return EngineContext(EngineConfig(num_workers=2, default_parallelism=4,
                                      seed=1, **overrides))


def annotated_plan(ctx, dataset):
    result = ctx.optimizer.optimize(dataset.plan)
    return result.plan


# ---------------------------------------------------------------------------
# estimate_bytes sampling (regression: head sampling skewed sorted data)
# ---------------------------------------------------------------------------


class TestEstimateBytes:
    def test_empty_is_zero(self):
        assert estimate_bytes([]) == 0

    def test_small_list_uses_every_record(self):
        records = ["x" * 50] * 5
        actual = len(pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL))
        assert estimate_bytes(records, CODEC_NONE) == pytest.approx(
            actual, rel=0.5)

    def test_stride_sampling_not_biased_by_sorted_data(self):
        """Head sampling saw only the tiny records of this size-sorted list
        and under-estimated ~100x; the stride sample must stay within 2x."""
        records = [i for i in range(1000)] + \
            [("y%04d" % i) * 250 for i in range(1000)]  # distinct 2000-char rows
        actual = len(pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL))
        estimated = estimate_bytes(records, CODEC_NONE)
        head_biased = estimate_bytes(records[:20], CODEC_NONE) // len(
            records[:20]) * len(records)
        assert head_biased < actual / 50  # what the old sampling reported
        assert actual / 2 <= estimated <= actual * 2

    def test_stride_sampling_covers_heterogeneous_tail(self):
        # wide records in the last tenth of the bucket must show up in the
        # sample; the estimate stays in the right order of magnitude
        records = [1] * 900 + [("z%03d" % i) * 250 for i in range(100)]
        actual = len(pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL))
        estimated = estimate_bytes(records, CODEC_NONE)
        assert actual / 3 <= estimated <= actual * 3

    def test_compression_ratio_applied(self):
        records = list(range(1000))
        assert estimate_bytes(records) < estimate_bytes(records, CODEC_NONE)


# ---------------------------------------------------------------------------
# StatsEstimate plumbing
# ---------------------------------------------------------------------------


class TestStatsEstimate:
    def test_scaled_loses_exactness(self):
        exact = StatsEstimate(rows=100, size_bytes=1000, exact=True)
        derived = exact.scaled(0.5)
        assert derived.rows == 50 and derived.size_bytes == 500
        assert not derived.exact

    def test_render_marks_estimates_with_tilde(self):
        assert StatsEstimate(10, 100, exact=True).render() == "10 rows, 100B"
        assert StatsEstimate(10, 100).render().startswith("~10 rows")

    def test_format_bytes_units(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(2048) == "2.0KiB"
        assert format_bytes(3 * 1024 * 1024) == "3.0MiB"


# ---------------------------------------------------------------------------
# Plan annotation
# ---------------------------------------------------------------------------


class TestPlanAnnotation:
    def test_source_rows_are_exact(self):
        with make_engine() as ctx:
            ds = ctx.range(500, num_partitions=4)
            ctx.optimizer.estimator.annotate(ds.plan)
            assert ds.plan.stats is not None
            assert ds.plan.stats.exact
            assert ds.plan.stats.rows == 500

    def test_filter_applies_selectivity(self):
        with make_engine() as ctx:
            ds = ctx.range(1000, num_partitions=4).filter(lambda x: x < 10)
            ctx.optimizer.estimator.annotate(ds.plan)
            source = ds.plan.child
            assert ds.plan.stats.rows == pytest.approx(
                source.stats.rows * FILTER_SELECTIVITY)
            assert not ds.plan.stats.exact

    def test_aggregate_applies_key_ratio(self):
        with make_engine() as ctx:
            ds = (ctx.range(1000, num_partitions=4)
                  .map(lambda x: (x % 5, x)).reduce_by_key(lambda a, b: a + b))
            ctx.optimizer.estimator.annotate(ds.plan)
            assert ds.plan.stats.rows == pytest.approx(1000 * AGGREGATE_RATIO)

    def test_map_partitions_output_is_unknown(self):
        with make_engine() as ctx:
            ds = ctx.range(100, num_partitions=2).map_partitions(
                lambda it: [sum(it)])
            ctx.optimizer.estimator.annotate(ds.plan)
            assert ds.plan.stats is None

    def test_cached_dataset_reports_actual_sizes(self):
        with make_engine() as ctx:
            cached = (ctx.range(300, num_partitions=3)
                      .map(lambda x: (x % 4, x))
                      .reduce_by_key(lambda a, b: a + b).cache())
            cached.count()  # materialise
            top = cached.map(lambda kv: kv[1])
            plan = annotated_plan(ctx, top)
            scan = plan.child  # cache_prune replaced the subtree by a scan
            assert scan.op == "cached_scan"
            assert scan.stats.exact
            assert scan.stats.rows == 4

    def test_completed_shuffle_feeds_actual_sizes_back(self):
        with make_engine() as ctx:
            reduced = (ctx.range(400, num_partitions=4)
                       .map(lambda x: (x % 3, 1))
                       .reduce_by_key(lambda a, b: a + b))
            reduced.collect()  # runs the (combined) shuffle
            plan = annotated_plan(ctx, reduced)
            # the aggregate node now reports the actual combined map output:
            # at most 3 keys x 4 map partitions, known exactly
            assert plan.stats.exact
            assert plan.stats.rows <= 12

    def test_explain_renders_row_and_byte_estimates(self):
        with make_engine() as ctx:
            ds = ctx.range(200, num_partitions=2).filter(lambda x: x % 2 == 0)
            text = ds.explain()
            assert "rows" in text
            assert "200 rows" in text
            assert "estimated cost:" in text


# ---------------------------------------------------------------------------
# Key distributions: distinct keys, heavy hitters, cardinality refinement
# ---------------------------------------------------------------------------


class TestKeyDistributions:
    def test_pair_source_distribution_sampled(self):
        pairs = [(i % 4, i) for i in range(200)]
        with make_engine() as ctx:
            ds = ctx.parallelize(pairs, 4).group_by_key(4)
            ctx.optimizer.estimator.annotate(ds.plan)
            distribution = ds.plan.key_stats
            assert distribution is not None
            assert distribution.distinct_keys == 4
            # 4 keys in uniform rotation: the top key holds ~25%
            assert distribution.max_share == pytest.approx(0.25, abs=0.05)

    def test_heavy_hitter_share_detected(self):
        pairs = [(0 if i % 10 < 8 else i % 7 + 1, i) for i in range(500)]
        with make_engine() as ctx:
            ds = ctx.parallelize(pairs, 4).group_by_key(4)
            ctx.optimizer.estimator.annotate(ds.plan)
            distribution = ds.plan.key_stats
            assert distribution.top_shares[0][0] == 0
            assert distribution.max_share == pytest.approx(0.8, abs=0.1)

    def test_group_by_cardinality_uses_distinct_keys(self):
        """Direct pair source: rows out ≈ distinct keys, not 20% of input."""
        pairs = [(i % 6, i) for i in range(600)]
        with make_engine() as ctx:
            ds = ctx.parallelize(pairs, 4).group_by_key(4)
            ctx.optimizer.estimator.annotate(ds.plan)
            assert ds.plan.stats.rows == 6

    def test_udf_map_blocks_source_sampling(self):
        """A UDF between source and shuffle: heuristics stay in charge."""
        with make_engine() as ctx:
            ds = (ctx.range(1000, num_partitions=4)
                  .map(lambda x: (x % 5, x)).group_by_key(4))
            ctx.optimizer.estimator.annotate(ds.plan)
            assert ds.plan.key_stats is None
            assert ds.plan.stats.rows == pytest.approx(1000 * AGGREGATE_RATIO)

    def test_completed_shuffle_distribution_is_exact_on_small_data(self):
        with make_engine() as ctx:
            ds = (ctx.range(200, num_partitions=4)
                  .map(lambda x: (x % 3, x)).group_by_key(4))
            ds.collect()
            ctx.optimizer.estimator.annotate(ds.plan)
            distribution = ds.plan.key_stats
            assert distribution is not None and distribution.exact
            assert distribution.distinct_keys == 3
            # and the group_by output cardinality follows the key count
            assert ds.plan.stats.rows == 3

    def test_completed_cogroup_samples_sides_by_record_count(self):
        """A 20-row side must not take half the sample from a 10k-row side.

        Splitting the sample evenly across sides gave the small side's
        one key 20 of 276 sampled records (7%, true share 0.2%) and diluted
        the big side's hot key; slots now follow each side's records.
        """
        big = [(0 if i % 10 < 8 else i, i) for i in range(10_000)]
        small = [(-1, "s")] * 20
        with make_engine() as ctx:
            # the UDF maps hide the sources: only the shuffles can be sampled
            cogrouped = ctx.parallelize(big, 4).map(lambda kv: kv).cogroup(
                ctx.parallelize(small, 2).map(lambda kv: kv), 4)
            cogrouped.count()
            ctx.optimizer.estimator.annotate(cogrouped.plan)
            distribution = cogrouped.plan.key_stats
        shares = dict(distribution.top_shares)
        assert distribution.top_shares[0][0] == 0
        assert distribution.max_share == pytest.approx(
            0.8 * 10_000 / 10_020, abs=0.03)
        assert shares.get(-1, 0.0) < 0.01

    def test_non_pair_source_yields_no_distribution(self):
        with make_engine() as ctx:
            ds = ctx.range(100, num_partitions=2).group_by_key(2)
            # records are ints, not pairs: sampling must bail gracefully
            ctx.optimizer.estimator.annotate(ds.plan)
            assert ds.plan.key_stats is None

    def test_render(self):
        distribution = KeyDistribution(distinct_keys=12, top_shares=((0, 0.8),),
                                       sampled_records=100, exact=True)
        assert distribution.render() == "keys 12, hot 80%"
        estimated = KeyDistribution(distinct_keys=40, top_shares=((1, 0.1),),
                                    sampled_records=100)
        assert estimated.render().startswith("keys ~40")


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_shuffle_plans_cost_more_than_narrow_plans(self):
        with make_engine() as ctx:
            narrow = ctx.range(1000, num_partitions=4).map(lambda x: x + 1)
            wide = (ctx.range(1000, num_partitions=4)
                    .map(lambda x: (x % 7, x)).group_by_key())
            narrow_cost = ctx.optimizer.optimize(narrow.plan).cost
            wide_cost = ctx.optimizer.optimize(wide.plan).cost
            assert wide_cost > narrow_cost > 0

    def test_broadcast_plan_costs_less_than_shuffle_plan(self):
        data_big = [(i % 50, i) for i in range(5000)]
        data_small = [(i, "s") for i in range(20)]
        with make_engine() as ctx:
            joined = ctx.parallelize(data_big, 4).join(
                ctx.parallelize(data_small, 2))
            broadcast_cost = ctx.optimizer.optimize(joined.plan).cost
        with make_engine(broadcast_threshold_bytes=0) as ctx:
            joined = ctx.parallelize(data_big, 4).join(
                ctx.parallelize(data_small, 2))
            shuffle_cost = ctx.optimizer.optimize(joined.plan).cost
        assert broadcast_cost < shuffle_cost

    def test_unannotated_plan_costs_nothing(self):
        with make_engine() as ctx:
            ds = ctx.range(10, num_partitions=2).map_partitions(lambda it: it)
            ctx.optimizer.estimator.annotate(ds.plan)
            assert plan_cost(ds.plan) > 0  # the source below is known
