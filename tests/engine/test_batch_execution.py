"""Batch execution checked against the reference plan interpreter.

Batches are the only way the engine computes a partition.  Every pipeline
must return exactly what the naive interpreter in ``reference_plan.py``
computes from its logical plan — same records, same order — with
degenerate one-record batches (``batch_size=1``), with an odd batch size
that never divides the partition sizes evenly (``batch_size=7``) and with
the default batch size; and the record/byte metrics (records read/written,
shuffle bytes) must not depend on the batch size.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_plan as reference
from repro.config import KNOWN_OPTIMIZER_RULES, EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext
from repro.errors import ShuffleError

from test_memory_bounded import DATA, OTHER_SIDE, PIPELINES

#: The batch sizes every parity scenario is evaluated under.
BATCH_SIZES = (1, 7, 1024)


def _ctx(batch_size: int, **overrides) -> EngineContext:
    options = {"num_workers": 2, "default_parallelism": 4, "seed": 3,
               "batch_size": batch_size}
    options.update(overrides)
    return EngineContext(EngineConfig(**options))


def _run(scenario, batch_size: int, **overrides):
    """Run ``scenario(ctx)`` under one batch size; return (result, metrics)."""
    with _ctx(batch_size, **overrides) as ctx:
        result = scenario(ctx)
        summary = ctx.metrics.summary()
    return result, summary


def both(*datasets):
    """Each dataset's engine ``collect()`` and the oracle's answer for it."""
    engine = [dataset.collect() for dataset in datasets]
    return engine, [reference.collect(dataset) for dataset in datasets]


#: Metric keys that must not depend on the batch size.
_BATCH_INVARIANT = ("records_read", "records_written", "shuffle_bytes",
                    "cache_hits", "num_tasks", "num_stages")


def assert_parity(scenario, **overrides):
    """``scenario(ctx)`` returns ``(engine result, oracle result)``: they
    must agree at every batch size, and the record/byte metrics must not
    change with it."""
    reference_metrics = None
    for batch_size in BATCH_SIZES:
        (got, expected), metrics = _run(scenario, batch_size, **overrides)
        assert got == expected, f"results differ at batch_size={batch_size}"
        reference_metrics = reference_metrics or metrics
        for key in _BATCH_INVARIANT:
            assert metrics[key] == reference_metrics[key], \
                f"{key} differs at batch_size={batch_size}"


class TestNarrowParity:
    def test_map_filter_flat_map_chain(self):
        assert_parity(lambda ctx: both(
            ctx.range(500, num_partitions=4)
            .map(lambda v: v * 3)
            .filter(lambda v: v % 2 == 0)
            .flat_map(lambda v: (v, -v))
            .map(lambda v: v + 1)))

    def test_chain_without_optimizer_runs_unfused(self):
        assert_parity(lambda ctx: both(
            ctx.range(400, num_partitions=3)
            .map(lambda v: v + 10)
            .filter(lambda v: v % 5 != 0)), optimizer_rules=())

    def test_project_union_and_coalesce(self):
        def scenario(ctx):
            rows = ctx.parallelize(
                [{"id": i, "value": i * 2, "noise": "x"} for i in range(200)], 4)
            more = ctx.parallelize(
                [{"id": 1000 + i, "value": i, "noise": "y"} for i in range(50)], 2)
            return both(rows.union(more).project(["id", "value"]).coalesce(2))
        assert_parity(scenario)

    def test_sample_keeps_the_same_records_per_seed(self):
        assert_parity(lambda ctx: both(
            ctx.range(2_000, num_partitions=4).sample(0.3, seed=11)))

    def test_map_partitions_fallback(self):
        assert_parity(lambda ctx: both(
            ctx.range(300, num_partitions=4)
            .map(lambda v: v + 1)
            .map_partitions(lambda it: [sum(it)])))

    def test_take_first_and_count(self):
        # early-stopping actions read ahead in whole batches, so record
        # counts legitimately grow with the batch size; results never do
        for batch_size in BATCH_SIZES:
            with _ctx(batch_size) as ctx:
                ds = ctx.range(1_000, num_partitions=5).filter(
                    lambda v: v % 7 != 0)
                expected = reference.collect(ds)
                assert ds.take(13) == expected[:13]
                assert ds.first() == expected[0]
                assert ds.count() == len(expected)

    def test_cached_dataset_round_trip(self):
        def scenario(ctx):
            ds = ctx.range(600, num_partitions=4).map(lambda v: v * v).cache()
            first = ds.collect()      # computes and materialises the blocks
            second = ds.collect()     # must be served from the cache
            assert ctx.metrics.summary()["cache_hits"] == 4
            expected = reference.collect(ds)
            return (first, second), (expected, expected)
        assert_parity(scenario)


class TestWideParity:
    def test_shuffled_dataset_group_by_key(self):
        assert_parity(lambda ctx: both(
            ctx.range(400, num_partitions=4).map(lambda v: (v % 13, v))
            .group_by_key()))

    def test_reduce_by_key_with_map_side_combine(self):
        assert_parity(lambda ctx: both(
            ctx.range(900, num_partitions=4)
            .map(lambda v: (v % 31, 1))
            .reduce_by_key(lambda left, right: left + right)))

    def test_distinct_repartition_and_sort(self):
        def scenario(ctx):
            ds = ctx.parallelize([v % 40 for v in range(500)], 4)
            return both(ds.distinct(), ds.repartition(3),
                        ds.sort_by(lambda v: -v))
        assert_parity(scenario)

    def test_cogrouped_dataset(self):
        def scenario(ctx):
            left = ctx.range(200, num_partitions=4).map(lambda v: (v % 10, v))
            right = ctx.range(60, num_partitions=3).map(lambda v: (v % 10, -v))
            return both(left.cogroup(right))
        assert_parity(scenario)

    def test_shuffle_join_parity(self):
        def scenario(ctx):
            left = ctx.range(300, num_partitions=4).map(lambda v: (v % 20, v))
            right = ctx.range(80, num_partitions=2).map(lambda v: (v % 20, -v))
            return both(left.join(right))
        # broadcast disabled: the join stays a shuffle cogroup
        assert_parity(scenario, broadcast_threshold_bytes=0)

    @pytest.mark.parametrize("how", ["join", "left_outer_join",
                                     "right_outer_join", "full_outer_join",
                                     "subtract_by_key"])
    def test_broadcast_join_parity(self, how):
        def scenario(ctx):
            big = ctx.range(400, num_partitions=4).map(lambda v: (v % 25, v))
            small = ctx.parallelize([(k, f"dim-{k}") for k in range(12)], 2)
            joined = getattr(big, how)(small)
            assert "broadcast" in joined.explain()
            # a broadcast join emits per stream partition, not per reduce
            # partition of the cogroup the oracle evaluates: same multiset
            got, expected = both(joined)
            return sorted(got[0], key=repr), sorted(expected[0], key=repr)
        # a generous threshold forces the broadcast lowering (including the
        # unmatched-build partition of the outer variants)
        assert_parity(scenario, broadcast_threshold_bytes=64 * 1024 * 1024)

    def test_shuffle_byte_accounting_is_mode_invariant(self):
        def scenario(ctx):
            pairs = ctx.range(600, num_partitions=4).map(lambda v: (v % 17, v))
            result = both(pairs.group_by_key())
            jobs = ctx.metrics.jobs
            read = sum(s.shuffle_bytes_read for j in jobs for s in j.stages)
            written = sum(s.shuffle_bytes_written for j in jobs for s in j.stages)
            assert read == written > 0
            return result
        assert_parity(scenario)


_needs_closures = pytest.mark.skipif(
    not serializer.supports_closures(),
    reason="shipping task closures to worker processes needs cloudpickle")


@pytest.mark.parametrize("backend", ["thread",
                                     pytest.param("process",
                                                  marks=_needs_closures)])
@pytest.mark.parametrize("pipeline_name", sorted(PIPELINES))
def test_wide_pipeline_matches_oracle(pipeline_name, backend):
    """Every wide operator, on both backends, is the oracle's answer."""
    with _ctx(1024, executor_backend=backend,
              broadcast_threshold_bytes=0) as ctx:
        ds = PIPELINES[pipeline_name](ctx.parallelize(DATA, 4),
                                      ctx.parallelize(OTHER_SIDE, 2))
        assert ds.collect() == reference.collect(ds)


def _add(left, right):
    return left + right


#: Wide operators over an input the previous one already partitioned the
#: same way: the ``shuffle_elim`` rule runs the second as its narrow local
#: form (one fold per partition, no shuffle).
LOCAL_PIPELINES = {
    "reduce_then_reduce": lambda ds: ds.reduce_by_key(_add, 4)
    .reduce_by_key(_add, 4),
    "reduce_then_group": lambda ds: ds.reduce_by_key(_add, 4).group_by_key(4),
    "distinct_then_distinct": lambda ds: ds.distinct(4).distinct(4),
}


@pytest.mark.parametrize("backend", ["thread",
                                     pytest.param("process",
                                                  marks=_needs_closures)])
@pytest.mark.parametrize("pipeline_name", sorted(LOCAL_PIPELINES))
def test_local_form_matches_oracle(pipeline_name, backend):
    """A shuffle-eliminated local form is the oracle's answer, in order."""
    with _ctx(1024, executor_backend=backend) as ctx:
        ds = LOCAL_PIPELINES[pipeline_name](ctx.parallelize(DATA, 4))
        assert "local" in ds.explain()
        assert ds.collect() == reference.collect(ds)


#: Narrow operators over ``(key, value)`` pairs the generated chains draw
#: from; each keeps the pair shape the wide operator at the end expects.
NARROW = {
    "map": lambda ds: ds.map(lambda pair: (pair[0], pair[1] * 3)),
    "rekey": lambda ds: ds.map(lambda pair: ((pair[0] + 1) % 5, pair[1])),
    "filter": lambda ds: ds.filter(lambda pair: pair[1] % 3 != 0),
    "flat_map": lambda ds: ds.flat_map(
        lambda pair: [pair, (pair[0], -pair[1])] if pair[1] > 0 else [pair]),
}


class TestBatchProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.lists(st.tuples(st.integers(0, 6), st.integers(-100, 100)),
                         max_size=120),
           chain=st.lists(st.sampled_from(sorted(NARROW)), max_size=4),
           pipeline_name=st.sampled_from(sorted(PIPELINES)),
           batch_size=st.sampled_from([1, 2, 3, 5, 7, 16, 1024]),
           num_partitions=st.integers(1, 5),
           subset=st.sets(st.sampled_from(KNOWN_OPTIMIZER_RULES)))
    def test_pipeline_parity_property(self, data, chain, pipeline_name,
                                      batch_size, num_partitions, subset):
        """Generated narrow chains ending in a wide operator equal the
        oracle with every optimizer rule on, with the optimizer off and
        with a random subset of the rules on: each rule is a rewrite that
        must preserve the result."""
        drawn = tuple(rule for rule in KNOWN_OPTIMIZER_RULES if rule in subset)
        for rules in (EngineConfig().optimizer_rules, (), drawn):
            with _ctx(batch_size, optimizer_rules=rules,
                      broadcast_threshold_bytes=0) as ctx:
                ds = ctx.parallelize(data, num_partitions)
                for name in chain:
                    ds = NARROW[name](ds)
                ds = PIPELINES[pipeline_name](ds, ctx.parallelize(OTHER_SIDE, 2))
                assert ds.collect() == reference.collect(ds), rules

    def test_batches_processed_metric(self):
        def scenario(ctx):
            return (ctx.range(100, num_partitions=4)
                    .map(lambda v: (v % 5, v))
                    .group_by_key().count())
        _, batched_metrics = _run(scenario, batch_size=16)
        assert batched_metrics["batches_processed"] > 0
        # smaller batches -> strictly more batches for the same job
        _, tiny_metrics = _run(scenario, batch_size=1)
        assert tiny_metrics["batches_processed"] > \
            batched_metrics["batches_processed"]


class TestExecutorPool:
    def test_pool_persists_across_stages(self):
        with _ctx(batch_size=64) as ctx:
            executor = ctx.scheduler.executor
            ctx.range(100, num_partitions=4).map(lambda v: (v % 3, v)) \
                .group_by_key().count()
            pool = executor._pool
            assert pool is not None, "multi-task stages must use the pool"
            ctx.range(50, num_partitions=4).count()
            assert executor._pool is pool, "the pool must be reused, not rebuilt"

    def test_single_task_stage_does_not_build_a_pool(self):
        with _ctx(batch_size=64) as ctx:
            ctx.range(10, num_partitions=1).count()
            assert ctx.scheduler.executor._pool is None

    def test_stop_shuts_the_pool_down(self):
        ctx = _ctx(batch_size=64)
        ctx.range(100, num_partitions=4).count()
        executor = ctx.scheduler.executor
        assert executor._pool is not None
        ctx.stop()
        assert executor._pool is None

    def test_failed_stage_leaves_no_stragglers_in_the_pool(self):
        import time as _time
        from repro.errors import TaskError

        finished = []

        def work(partition, iterator):
            if partition == 0:
                raise RuntimeError("boom")
            _time.sleep(0.05)
            finished.append(partition)
            return iterator

        with _ctx(batch_size=16, max_task_retries=0) as ctx:
            ds = ctx.range(400, num_partitions=4).map_partitions_with_index(work)
            with pytest.raises(TaskError):
                ds.count()
            # the persistent pool must have settled every submitted task
            # before the stage error propagated: nothing may still be
            # running (or start later) against the dead stage
            settled = list(finished)
            _time.sleep(0.2)
            assert finished == settled

    def test_wall_clock_recorded_on_both_paths(self):
        for partitions in (1, 4):
            with _ctx(batch_size=64) as ctx:
                ctx.range(200, num_partitions=partitions).count()
                stage = ctx.metrics.jobs[-1].stages[-1]
                assert stage.wall_clock_s > 0.0


class TestShuffleManagerHygiene:
    def test_unregistered_shuffle_still_rejected(self):
        with _ctx(batch_size=8) as ctx:
            with pytest.raises(ShuffleError):
                ctx.shuffle_manager.write_map_output(999, 0, {0: [1, 2]})

    def test_reduce_bytes_equal_map_side_measurements(self):
        with _ctx(batch_size=8) as ctx:
            manager = ctx.shuffle_manager
            manager.register_shuffle(7, num_map_partitions=2)
            written = manager.write_map_output(7, 0, {0: [1, 2, 3], 1: [4]})
            written += manager.write_map_output(7, 1, {0: [5], 1: [6, 7]})
            read = sum(manager.read_reduce_input(7, p)[1] for p in (0, 1))
            assert read == written == manager.bytes_written(7)

    def test_remove_shuffle_only_drops_matching_buckets(self):
        with _ctx(batch_size=8) as ctx:
            manager = ctx.shuffle_manager
            manager.register_shuffle(1, num_map_partitions=1)
            manager.register_shuffle(2, num_map_partitions=1)
            manager.write_map_output(1, 0, {0: ["a"]})
            manager.write_map_output(2, 0, {0: ["b"]})
            manager.remove_shuffle(1)
            assert manager.read_reduce_input(2, 0)[0] == ["b"]
            with pytest.raises(ShuffleError):
                manager.read_reduce_input(1, 0)
