"""Skew-aware adaptive execution: runtime reduce-partition splitting.

The ``split_skewed_shuffle`` rule stamps a per-reduce-partition split plan
onto completed shuffles whose actual map-output bytes mark a partition as a
straggler; the scheduler then serves those partitions as parallel sub-reads
over disjoint map-output slices and re-merges the partials.  The contract
under test everywhere: split and unsplit plans return *identical* results
(same records, same order) and identical record counts, for every wide
operator, every batch size and every nasty key distribution.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.engine.context import EngineContext
from repro.engine import wide
from repro.engine.optimizer import _balanced_ranges
from repro.engine.partitioner import HashPartitioner
from repro.engine.plan import (AggregateNode, DistinctNode, GroupByKeyNode,
                               SortNode)


def split_engine(batch_size: int = 1024, **overrides) -> EngineContext:
    """An engine with skew splitting armed aggressively (tiny byte floor)."""
    overrides.setdefault("skew_split_factor", 4)
    overrides.setdefault("skew_min_partition_bytes", 1)
    return EngineContext(EngineConfig(num_workers=2, default_parallelism=4,
                                      seed=1, batch_size=batch_size,
                                      **overrides))


def plain_engine(batch_size: int = 1024, **overrides) -> EngineContext:
    """The same engine with skew splitting disabled."""
    return EngineContext(EngineConfig(num_workers=2, default_parallelism=4,
                                      seed=1, batch_size=batch_size,
                                      skew_split_factor=0, **overrides))


# -- datasets exercising the skew corners ------------------------------------

DATASETS = {
    # one key holds ~85% of all records
    "extreme-skew": [(0 if i % 20 < 17 else i % 7 + 1, i) for i in range(600)],
    # literally a single key: the hot partition is the only non-empty one
    "single-hot-key": [(42, i) for i in range(400)],
    # duplicate (key, value) pairs everywhere
    "duplicate-pairs": [(i % 3, i % 5) for i in range(500)],
    # most partitions empty: keys hash to one reduce partition
    "empty-partitions": [(4, i) for i in range(300)] + [(8, i) for i in range(50)],
}

PIPELINES = {
    "group_by_key": lambda ds, other: ds.group_by_key(4),
    "reduce_by_key": lambda ds, other: ds.reduce_by_key(lambda a, b: a + b, 4),
    "combine_by_key": lambda ds, other: ds.combine_by_key(
        lambda v: [v], lambda acc, v: acc + [v], lambda a, b: a + b, 4),
    "distinct": lambda ds, other: ds.distinct(4),
    "sort_by": lambda ds, other: ds.sort_by(lambda pair: pair[0], True, 4),
    "repartition": lambda ds, other: ds.repartition(4),
    "join": lambda ds, other: ds.join(other, 4),
    "left_outer_join": lambda ds, other: ds.left_outer_join(other, 4),
    "right_outer_join": lambda ds, other: ds.right_outer_join(other, 4),
    "full_outer_join": lambda ds, other: ds.full_outer_join(other, 4),
    "subtract_by_key": lambda ds, other: ds.subtract_by_key(other, 4),
    "cogroup": lambda ds, other: ds.cogroup(other, 4),
}

OTHER_SIDE = [(k, f"dim-{k}") for k in range(0, 50, 2)]


def run_pipeline(make_engine, pipeline_name: str, data, batch_size: int):
    """Run one pipeline twice (shuffle + reuse) and return results/metrics."""
    build = PIPELINES[pipeline_name]
    with make_engine(batch_size=batch_size,
                     broadcast_threshold_bytes=0) as ctx:
        ds = build(ctx.parallelize(data, 4), ctx.parallelize(OTHER_SIDE, 2))
        first = ds.collect()
        second = ds.collect()  # shuffle output reused; splits re-applied
        summary = ctx.metrics.summary()
        counts = (summary["records_read"], summary["records_written"])
        return first, second, counts, summary["skew_splits"]


@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize("pipeline_name", sorted(PIPELINES))
def test_split_matches_unsplit_exactly(pipeline_name, batch_size):
    """Split and unsplit plans agree record-for-record, in order."""
    data = DATASETS["extreme-skew"]
    split_first, split_second, split_counts, splits = run_pipeline(
        split_engine, pipeline_name, data, batch_size)
    plain_first, plain_second, plain_counts, none = run_pipeline(
        plain_engine, pipeline_name, data, batch_size)
    assert split_first == plain_first
    assert split_second == plain_second
    assert split_counts == plain_counts
    assert none == 0


@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
@pytest.mark.parametrize("pipeline_name",
                         ["group_by_key", "reduce_by_key", "join", "cogroup"])
def test_split_parity_across_key_distributions(pipeline_name, dataset_name):
    data = DATASETS[dataset_name]
    split_first, split_second, split_counts, _ = run_pipeline(
        split_engine, pipeline_name, data, 1024)
    plain_first, plain_second, plain_counts, _ = run_pipeline(
        plain_engine, pipeline_name, data, 1024)
    assert split_first == plain_first
    assert split_second == plain_second
    assert split_counts == plain_counts


def test_skewed_group_by_actually_splits():
    data = DATASETS["extreme-skew"]
    _, _, _, splits = run_pipeline(split_engine, "group_by_key", data, 1024)
    assert splits >= 2  # both the warm-up run and the reuse run split


def test_combined_aggregation_splits_and_re_merges_via_combiner():
    """A fat combined partition (list combiners) splits and re-merges."""
    _, _, _, splits = run_pipeline(
        split_engine, "combine_by_key", DATASETS["single-hot-key"], 1024)
    assert splits >= 2


def test_split_shrinks_the_straggler_task():
    """The hot partition's reduce work spreads over sub-read tasks."""
    data = [(0 if i % 10 < 9 else i % 5 + 1, i) for i in range(40_000)]

    def straggler(make_engine):
        with make_engine(broadcast_threshold_bytes=0) as ctx:
            ds = ctx.parallelize(data, 4).group_by_key(4)
            ds.collect()
            ds.collect()
            job = ctx.metrics.jobs[-1]
            return max(stage.max_task_duration_s for stage in job.stages), job

    split_longest, split_job = straggler(split_engine)
    plain_longest, _ = straggler(plain_engine)
    assert split_job.skew_splits >= 1
    assert any(stage.name.startswith("skew-split:")
               for stage in split_job.stages)
    assert split_longest < plain_longest


def test_split_preserves_shuffle_read_accounting():
    """Sub-reads account exactly the bytes the unsplit read would."""
    data = DATASETS["extreme-skew"]

    def read_bytes(make_engine):
        with make_engine() as ctx:
            ds = ctx.parallelize(data, 4).group_by_key(4)
            ds.collect()
            ds.collect()
            job = ctx.metrics.jobs[-1]
            return sum(stage.shuffle_bytes_read for stage in job.stages)

    assert read_bytes(split_engine) == read_bytes(plain_engine)


def test_no_split_when_rule_disabled_via_rules_tuple():
    data = DATASETS["extreme-skew"]
    rules = tuple(rule for rule in EngineConfig().optimizer_rules
                  if rule != "split_skewed_shuffle")
    with split_engine(optimizer_rules=rules) as ctx:
        ds = ctx.parallelize(data, 4).group_by_key(4)
        ds.collect()
        ds.collect()
        assert ctx.metrics.summary()["skew_splits"] == 0


def test_no_split_below_byte_floor():
    data = DATASETS["extreme-skew"]
    with split_engine(skew_min_partition_bytes=32 * 1024 * 1024) as ctx:
        ds = ctx.parallelize(data, 4).group_by_key(4)
        ds.collect()
        ds.collect()
        assert ctx.metrics.summary()["skew_splits"] == 0


def test_uncombined_aggregation_is_never_split():
    """Disabling map-side combining signals non-associative combiners; the
    skew rule must not re-merge through them either (the uncombined dataset
    carries no slice spec, so it reports supports_slice_reads=False)."""
    data = DATASETS["extreme-skew"]
    rules = tuple(rule for rule in EngineConfig().optimizer_rules
                  if rule != "map_side_combine")
    with split_engine(optimizer_rules=rules) as ctx:
        ds = ctx.parallelize(data, 4).reduce_by_key(lambda a, b: a + b, 4)
        ds.collect()
        ds.collect()
        assert ctx.metrics.summary()["skew_splits"] == 0


def test_skewed_shuffle_feeding_a_downstream_shuffle_splits():
    """A skewed group_by_key consumed by a later sort's map stage is served
    as sub-reads before that map stage, not only before result stages."""
    data = DATASETS["extreme-skew"]

    def run(make_engine):
        with make_engine() as ctx:
            ds = (ctx.parallelize(data, 4).group_by_key(4)
                  .map_values(len).sort_by(lambda pair: -pair[1], True, 4))
            first = ds.collect()
            second = ds.collect()
            job_names = [stage.name
                         for job in ctx.metrics.jobs for stage in job.stages]
            return first, second, job_names, ctx.metrics.summary()["skew_splits"]

    split_first, split_second, names, splits = run(split_engine)
    plain_first, plain_second, _, _ = run(plain_engine)
    assert split_first == plain_first
    assert split_second == plain_second
    assert splits >= 1
    assert any(name.startswith("skew-split:") for name in names)


def test_explain_renders_split_decision():
    data = DATASETS["extreme-skew"]
    with split_engine() as ctx:
        ds = ctx.parallelize(data, 4).group_by_key(4)
        ds.collect()
        text = ds.explain()
        assert "skew split:" in text
        assert "sub-reads" in text
        assert "hot" in text  # the sampled heavy-hitter share


def test_cached_split_dataset_serves_blocks_not_subreads():
    data = DATASETS["extreme-skew"]
    with split_engine() as ctx:
        ds = ctx.parallelize(data, 4).group_by_key(4).cache()
        first = ds.collect()   # materialises the cache (splits may apply)
        second = ds.collect()  # served from blocks: no sub-read stage
        assert first == second
        job = ctx.metrics.jobs[-1]
        assert not any(stage.name.startswith("skew-split:")
                       for stage in job.stages)
        assert job.cache_hits == 4


# -- slice-merge semantics in isolation --------------------------------------


def split_merge(node, slices):
    """Split ``node``'s reduce the way the engine does, by its declaration:
    one fold per slice, then the merge of the finished slice partials."""
    op = wide.OPERATORS[node.op](node)[1]
    fold = wide.slice_fold(op)
    partials = [list(op.finish(fold(part))) for part in slices]
    return list(op.finish(op.merge(partials)))


PARTITIONER = HashPartitioner(4)


class TestSliceMergeFactories:
    def test_grouping_slices_match_single_pass(self):
        slices = [[(1, "a"), (2, "b")], [(2, "c"), (3, "d")], [(1, "e")]]
        merged = dict(split_merge(GroupByKeyNode(None, PARTITIONER), slices))
        assert merged == {1: ["a", "e"], 2: ["b", "c"], 3: ["d"]}

    def test_grouping_preserves_first_appearance_order(self):
        slices = [[(9, 1)], [(2, 1), (9, 2)]]
        keys = [key for key, _ in
                split_merge(GroupByKeyNode(None, PARTITIONER), slices)]
        assert keys == [9, 2]

    def test_combiner_slices_re_merge_through_combiner(self):
        def add(a, b):
            return a + b
        # the map side combined: the slices hold (key, combiner) pairs
        node = AggregateNode(None, lambda v: v, add, add, PARTITIONER,
                             map_side_combine=True)
        slices = [[(1, 10), (2, 5)], [(1, 7)]]
        assert dict(split_merge(node, slices)) == {1: 17, 2: 5}

    def test_distinct_slices_dedupe_across_slices(self):
        slices = [[3, 1, 3, 2], [2, 4, 1]]
        assert split_merge(DistinctNode(None, PARTITIONER), slices) == \
            [3, 1, 2, 4]

    def test_sorted_slices_merge_stably(self):
        node = SortNode(None, lambda pair: pair[0], True, PARTITIONER)
        slices = [[(2, "s0a"), (1, "s0b")], [(1, "s1a"), (2, "s1b")]]
        merged = split_merge(node, slices)
        # equal keys keep slice order (stable merge, earlier slice first)
        assert merged == [(1, "s0b"), (1, "s1a"), (2, "s0a"), (2, "s1b")]

    def test_sorted_slices_descending(self):
        node = SortNode(None, lambda v: v, False, PARTITIONER)
        slices = [[9, 4, 1], [8, 3]]
        assert split_merge(node, slices) == [9, 8, 4, 3, 1]


class TestBalancedRanges:
    def test_covers_the_whole_index_space(self):
        ranges = _balanced_ranges([(m, 10) for m in range(8)], 4)
        assert ranges[0][0] == 0 and ranges[-1][1] == 8
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo

    def test_uniform_bytes_split_evenly(self):
        assert _balanced_ranges([(m, 10) for m in range(8)], 4) == \
            [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_never_cuts_inside_a_dominant_bucket(self):
        ranges = _balanced_ranges([(0, 1000), (1, 1), (2, 1), (3, 1)], 4)
        assert ranges[0] == (0, 1)
        assert ranges[0][1] - ranges[0][0] == 1

    def test_single_range_when_not_worth_splitting(self):
        assert _balanced_ranges([(0, 5), (1, 5)], 1) == [(0, 2)]
        assert _balanced_ranges([(0, 0), (1, 0)], 4) == [(0, 2)]


# -- property test: random skewed workloads ----------------------------------


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from([0, 0, 0, 0, 0, 1, 2, 3]),
                  st.integers(min_value=-50, max_value=50)),
        min_size=0, max_size=300),
    batch_size=st.sampled_from([1, 1024]),
    pipeline_name=st.sampled_from(
        ["group_by_key", "reduce_by_key", "distinct", "sort_by", "join"]),
)
def test_property_split_parity(pairs, batch_size, pipeline_name):
    split_first, split_second, split_counts, _ = run_pipeline(
        split_engine, pipeline_name, pairs, batch_size)
    plain_first, plain_second, plain_counts, _ = run_pipeline(
        plain_engine, pipeline_name, pairs, batch_size)
    assert split_first == plain_first
    assert split_second == plain_second
    assert split_counts == plain_counts
