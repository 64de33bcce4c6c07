"""Skew-aware adaptive execution: runtime reduce-partition splitting.

The ``split_skewed_shuffle`` rule gives a completed shuffle whose actual
map-output bytes mark a reduce partition as a straggler a one-bucket slice
shuffle: one map task folds each disjoint map-output slice, and the task
that reads the partition merges the stored partials.  The contract under
test everywhere: split and unsplit plans return *identical* results (same
records, same order) and identical record counts, for every wide operator,
every batch size and every nasty key distribution.  The slice shuffle is a
shuffle like any other: its partials are reused, adopted on resume, healed
per rotten span, and never shipped as records to a worker.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import re
import shutil

from repro.config import EngineConfig
from repro.engine import serializer, wide
from repro.engine.context import EngineContext
from repro.engine.dataset import ShuffleDependency
from repro.engine.journal import shuffle_journal_key
from repro.engine.memory import Span
from repro.engine.optimizer import _balanced_ranges
from repro.engine.partitioner import HashPartitioner
from repro.engine.plan import (AggregateNode, DistinctNode, GroupByKeyNode,
                               SortNode)

from payload_probe import recorded_payloads

needs_closures = pytest.mark.skipif(
    not serializer.supports_closures(),
    reason="shipping task closures to worker processes needs cloudpickle")

BACKENDS = ["thread", pytest.param("process", marks=needs_closures)]


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


def is_slice_stage(stage) -> bool:
    """A skew split's slice shuffle stage (map or recompute)."""
    return ":skew-split:" in stage.name


def test_split_shrinks_the_straggler_task():
    """The hot partition's reduce work spreads over slice map tasks."""
    data = [(0 if i % 10 < 9 else i % 5 + 1, i) for i in range(40_000)]

    def straggler(make_engine):
        with make_engine(broadcast_threshold_bytes=0) as ctx:
            ds = ctx.parallelize(data, 4).group_by_key(4)
            ds.collect()
            ds.collect()
            computed, job = ctx.metrics.jobs[-2:]
            return max(stage.max_task_duration_s
                       for stage in job.stages), computed, job

    split_longest, computed, split_job = straggler(split_engine)
    plain_longest, _, _ = straggler(plain_engine)
    assert split_job.skew_splits >= 1
    assert any(is_slice_stage(stage) for stage in computed.stages)
    assert split_longest < plain_longest


def test_split_preserves_shuffle_read_accounting():
    """The base shuffle's bytes are read exactly as the unsplit read reads
    them, and the partials' bytes are counted as any shuffle read's are."""
    data = DATASETS["extreme-skew"]

    def jobs(make_engine):
        with make_engine() as ctx:
            ds = ctx.parallelize(data, 4).group_by_key(4)
            ds.collect()
            ds.collect()
            return ctx.metrics.jobs[-2:]

    def read(job):
        return sum(stage.shuffle_bytes_read for stage in job.stages)

    split_first, split_again = jobs(split_engine)
    plain_first, _ = jobs(plain_engine)
    (slices,) = [stage for stage in split_first.stages
                 if is_slice_stage(stage)]
    partials = slices.shuffle_bytes_written
    assert partials > 0
    # the slice maps read the split partitions' base buckets, the result
    # stage every other base bucket and the partials
    assert read(split_first) == read(plain_first) + partials
    # a reuse reads the partials in place of the split partitions
    assert read(split_again) == read(split_first) - slices.shuffle_bytes_read


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
    assert any(":skew-split:" in name for name in names)


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
        assert not any(is_slice_stage(stage) for stage in job.stages)
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


# -- a split is a one-bucket slice shuffle -----------------------------------


def hot_pairs(count: int):
    """Key 0 carries nine records in ten."""
    return [(0 if i % 10 < 9 else i % 5 + 1, i) for i in range(count)]


def _add(a, b):
    return a + b


def _lineage(*roots):
    """Every dataset reachable through ``dependencies``, depth first."""
    seen, order, stack = set(), [], list(reversed(roots))
    while stack:
        ds = stack.pop()
        if ds.id not in seen:
            seen.add(ds.id)
            order.append(ds)
            stack.extend(reversed([dep.parent for dep in ds.dependencies]))
    return order


def _split_partitions(ds):
    """The reduce partitions ``explain()`` reports as split."""
    return {int(partition) for partition
            in re.findall(r"p(\d+)->\d+ sub-reads", ds.explain())}


@needs_closures
def test_the_result_payload_does_not_grow_with_the_hot_partition():
    """Process backend: the task that reads a split partition merges its
    partials, so the result stage ships spans of them, never records."""
    def result_payload(count):
        with split_engine(executor_backend="process",
                          broadcast_threshold_bytes=0) as ctx:
            ds = ctx.parallelize(hot_pairs(count), 4).group_by_key(4)
            with recorded_payloads(ctx) as published:
                records = ds.count()
            assert records == 2 and ctx.metrics.jobs[0].skew_splits >= 1
            return len(published[-1])

    small, large = result_payload(4_000), result_payload(40_000)
    assert large < small + 512


def test_a_diamond_reads_no_split_partition_whole():
    """Both branches of a union over one split shuffle read its split
    partitions from the partials."""
    def run(make_engine):
        with make_engine(broadcast_threshold_bytes=0) as ctx:
            grouped = ctx.parallelize(hot_pairs(4_000), 4).group_by_key(4)
            ds = grouped.map_values(len).union(grouped.map_values(sum))
            manager, whole = ctx.shuffle_manager, []

            def recording(read):
                def recorded(shuffle_id, partition, map_range=None):
                    if map_range is None:
                        whole.append((shuffle_id, partition))
                    return read(shuffle_id, partition, map_range=map_range)
                return recorded

            for name in ("read_reduce_input", "iter_reduce_input"):
                setattr(manager, name, recording(getattr(manager, name)))
            result = ds.collect()
            (shuffle,) = [dep for node in _lineage(ctx._executable_for(ds))
                          for dep in node.dependencies
                          if isinstance(dep, ShuffleDependency)]
            return result, whole, shuffle.shuffle_id, _split_partitions(ds)

    result, whole, shuffle_id, split = run(split_engine)
    plain, _, _, _ = run(plain_engine)
    assert result == plain
    assert split
    assert not [partition for read_id, partition in whole
                if read_id == shuffle_id and partition in split]


@pytest.mark.parametrize("slices_lost", [False, True])
def test_a_resume_runs_no_task_outside_the_result_stage(tmp_path,
                                                        slices_lost):
    """A journalled run's slice shuffle is adopted like any shuffle, and
    never recomputed for a consumer the journal already holds — not even
    when its own spans are gone."""
    def run(**options):
        with split_engine(broadcast_threshold_bytes=0,
                          checkpoint_dir=str(tmp_path), **options) as ctx:
            ds = ctx.parallelize(hot_pairs(4_000), 4).group_by_key(4) \
                .map_values(len).reduce_by_key(_add, 2)
            return sorted(ds.collect()), ctx.metrics.jobs[-1]

    cold, cold_job = run()
    if slices_lost:
        # a split's shuffle id is negative: its durable directory is the
        # only one named with a double dash
        (lost,) = tmp_path.glob("shuffle--*")
        shutil.rmtree(lost)
    resumed, job = run(recover_from=str(tmp_path))
    assert cold_job.skew_splits >= 1
    assert resumed == cold
    assert job.stages_recovered >= 2
    assert [stage.name.split(":")[0] for stage in job.stages] == ["result"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_rotten_slice_span_heals_its_one_slice(backend):
    """A slice partial that fails its checks is one lost map output of the
    slice shuffle: only its slice is folded again."""
    # on a thread, map output is framed where a transport carries it
    options = {"shuffle_transport": "tcp"} if backend == "thread" else {}

    def run(make_engine, rotten):
        with make_engine(executor_backend=backend, broadcast_threshold_bytes=0,
                         **options) as ctx:
            ds = ctx.parallelize(hot_pairs(4_000), 4).group_by_key(4)
            first = ds.collect()
            if rotten:
                split = ctx._executable_for(ds).split
                catalog = ctx.shuffle_manager.export_catalog(split.shuffle_id)
                span = next(source for source, _ in catalog["buckets"].values()
                            if isinstance(source, Span))
                with open(span.path, "r+b") as handle:
                    handle.seek(span.offset + 9)  # past header and CRC
                    byte = handle.read(1)[0]
                    handle.seek(span.offset + 9)
                    handle.write(bytes([byte ^ 0xFF]))
            return first, ds.collect(), ctx.metrics.jobs[-1]

    first, healed, job = run(split_engine, rotten=True)
    expected, _, _ = run(plain_engine, rotten=False)
    assert first == healed == expected
    assert job.skew_splits >= 1
    assert (job.lost_map_outputs, job.recomputed_tasks) == (1, 1)


def test_a_split_leaves_every_identity_as_it_was():
    """Fingerprints, dataset ids and base shuffles' journal keys do not see
    a split, nor do datasets built after one."""
    def identities(make_engine):
        with make_engine(broadcast_threshold_bytes=0) as ctx:
            pairs = ctx.parallelize(hot_pairs(4_000), 4)
            grouped = pairs.group_by_key(4).map_values(len)
            grouped.collect()
            later = grouped.reduce_by_key(_add, 2).join(pairs, 2)
            later.collect()
            datasets = _lineage(grouped, later, ctx._executable_for(grouped),
                                ctx._executable_for(later))
            keys = [shuffle_journal_key(dep) for ds in datasets
                    for dep in ds.dependencies
                    if isinstance(dep, ShuffleDependency)]
            return ([(ds.id, ds.fingerprint()) for ds in datasets], keys,
                    ctx.metrics.summary()["skew_splits"])

    armed, disarmed = identities(split_engine), identities(plain_engine)
    assert armed[2] >= 1 and disarmed[2] == 0
    assert all(fingerprint for _, fingerprint in armed[0])
    assert all(armed[1])
    assert armed[:2] == disarmed[:2]
