"""Cost-based join strategy selection and adaptive re-optimization.

The parity matrix runs every join variant under the broadcast hash-join and
shuffle-cogroup strategies over empty sides, duplicate keys and skewed key
distributions, asserting identical sorted results.  Further sections pin the
plan shapes (rule firing, thresholds, both build sides), the adaptive
runtime switch on a mis-estimated join, the ``coalesce_shuffle`` rule, and
the broadcast build as a one-bucket shuffle: reused while complete, healed
one map at a time.
"""

from __future__ import annotations

import random

import pytest

from repro.config import EngineConfig
from repro.engine import EngineContext, serializer
from repro.engine.dataset import one_bucket_id
from repro.engine.memory import Span
from repro.engine.metrics import TaskContext
from repro.engine.plan import BroadcastJoinNode, CoGroupNode, count_nodes

from test_checkpoint_recovery import rot

JOIN_VARIANTS = ("join", "left_outer_join", "right_outer_join",
                 "full_outer_join", "subtract_by_key")

DATASETS = {
    "plain": ([(k % 6, f"L{k}") for k in range(40)],
              [(k % 9, f"R{k}") for k in range(15)]),
    "empty-right": ([(1, "a"), (2, "b")], []),
    "empty-left": ([], [(1, "x"), (3, "y")]),
    "duplicate-keys": ([(1, "a"), (1, "b"), (2, "c"), (2, "d")],
                       [(1, "x"), (1, "y"), (3, "z")]),
    "skewed": ([(0, f"L{k}") for k in range(60)] + [(5, "rare")],
               [(0, "hot"), (5, "cold"), (7, "unmatched")]),
    "none-values": ([(1, None), (2, "b")], [(1, None), (4, None)]),
}


def broadcast_engine(**overrides) -> EngineContext:
    return EngineContext(EngineConfig(num_workers=2, default_parallelism=4,
                                      seed=1, **overrides))


def shuffle_engine(**overrides) -> EngineContext:
    return EngineContext(EngineConfig(num_workers=2, default_parallelism=4,
                                      seed=1, broadcast_threshold_bytes=0,
                                      **overrides))


def run_join(make_engine, left_data, right_data, variant,
             swap_sizes=False):
    """The sorted result, the ``(name, tasks)`` of every map stage, and
    those of the one-bucket shuffles a broadcast join reads (none for a
    shuffle join): its build side, then the stream side for the key set."""
    with make_engine() as ctx:
        left = ctx.parallelize(left_data, 1 if swap_sizes else 3) \
            if left_data else ctx.empty()
        right = ctx.parallelize(right_data, 2) if right_data else ctx.empty()
        joined = getattr(left, variant)(right)
        result = sorted(map(repr, joined.collect()))
        map_stages = [(stage.name, stage.num_tasks)
                      for job in ctx.metrics.jobs for stage in job.stages
                      if stage.is_shuffle_map]
        executable = ctx._executable_for(joined)
        reads = [(f"shuffle:{dep.parent.name}", dep.parent.num_partitions)
                 for dep in executable.dependencies[1:]] \
            if executable.name.startswith("broadcast") else []
    return result, map_stages, reads


# ---------------------------------------------------------------------------
# Result parity: broadcast and shuffle strategies agree on every variant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", JOIN_VARIANTS)
@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
def test_parity_broadcast_vs_shuffle(variant, dataset_name):
    left_data, right_data = DATASETS[dataset_name]
    broadcast, broadcast_stages, reads = run_join(
        broadcast_engine, left_data, right_data, variant)
    shuffled, shuffled_stages, _ = run_join(
        shuffle_engine, left_data, right_data, variant)
    assert broadcast == shuffled
    # exactly one map stage over the build side, and one over the stream
    # side's keys when the join keeps unmatched build rows
    assert broadcast_stages == reads and 1 <= len(reads) <= 2
    if left_data and right_data:
        assert len(shuffled_stages) == 2


@pytest.mark.parametrize("variant", JOIN_VARIANTS)
def test_parity_with_random_keys(variant):
    rng = random.Random(7)
    left_data = [(rng.randrange(25), rng.randrange(1000)) for _ in range(300)]
    right_data = [(rng.randrange(30), rng.randrange(1000)) for _ in range(40)]
    broadcast, _, _ = run_join(broadcast_engine, left_data, right_data,
                               variant)
    shuffled, _, _ = run_join(shuffle_engine, left_data, right_data, variant)
    assert broadcast == shuffled


def test_broadcast_left_build_side_parity():
    """A small LEFT side is broadcast too, including for right_outer (whose
    preserved side then streams) and full_outer (extra unmatched pass)."""
    left_data = [(1, "a"), (2, "b")]
    right_data = [(k % 10, k) for k in range(200)]
    for variant in ("join", "right_outer_join", "full_outer_join"):
        with broadcast_engine() as ctx:
            joined = getattr(ctx.parallelize(left_data, 2), variant)(
                ctx.parallelize(right_data, 4))
            result = ctx.optimizer.optimize(joined.plan)
            nodes = [n for n in iter_nodes(result.plan)
                     if isinstance(n, BroadcastJoinNode)]
            assert len(nodes) == 1
            assert nodes[0].broadcast_side == "left"
            broadcast = sorted(map(repr, joined.collect()))
        with shuffle_engine() as ctx:
            joined = getattr(ctx.parallelize(left_data, 2), variant)(
                ctx.parallelize(right_data, 4))
            assert sorted(map(repr, joined.collect())) == broadcast


# ---------------------------------------------------------------------------
# Plan shape and thresholds
# ---------------------------------------------------------------------------


class TestBroadcastSelection:
    def test_rule_fires_and_is_reported(self):
        with broadcast_engine() as ctx:
            joined = ctx.parallelize([(1, 2)] * 50, 4).join(
                ctx.parallelize([(1, 3)], 2))
            result = ctx.optimizer.optimize(joined.plan)
            assert "broadcast_join" in result.applied
            assert count_nodes(result.plan,
                               lambda n: isinstance(n, CoGroupNode)) == 0
            assert "broadcast_join" in joined.explain()

    def test_zero_threshold_disables_broadcast(self):
        with shuffle_engine() as ctx:
            joined = ctx.parallelize([(1, 2)] * 50, 4).join(
                ctx.parallelize([(1, 3)], 2))
            result = ctx.optimizer.optimize(joined.plan)
            assert "broadcast_join" not in result.applied

    def test_both_sides_above_threshold_keep_the_shuffle(self):
        big = [(k % 40, "payload" * 20) for k in range(4000)]
        with broadcast_engine(broadcast_threshold_bytes=1000) as ctx:
            joined = ctx.parallelize(big, 4).join(ctx.parallelize(big, 4))
            result = ctx.optimizer.optimize(joined.plan)
            assert "broadcast_join" not in result.applied

    def test_smaller_side_is_chosen_as_build(self):
        with broadcast_engine() as ctx:
            small = ctx.parallelize([(1, "s")], 1)
            big = ctx.parallelize([(k % 5, k) for k in range(500)], 4)
            result = ctx.optimizer.optimize(big.join(small).plan)
            node = next(n for n in iter_nodes(result.plan)
                        if isinstance(n, BroadcastJoinNode))
            assert node.broadcast_side == "right"
            result = ctx.optimizer.optimize(small.join(big).plan)
            node = next(n for n in iter_nodes(result.plan)
                        if isinstance(n, BroadcastJoinNode))
            assert node.broadcast_side == "left"

    def test_unknown_stats_keep_the_shuffle(self):
        big = [(k % 20, "payload" * 50) for k in range(2000)]
        with broadcast_engine(broadcast_threshold_bytes=1000) as ctx:
            opaque = ctx.parallelize([(1, "x")], 2).map_partitions(
                lambda it: list(it))  # unknown output stats: never broadcast
            joined = ctx.parallelize(big, 2).join(opaque)
            result = ctx.optimizer.optimize(joined.plan)
            assert "broadcast_join" not in result.applied

    def test_broadcast_join_reduces_shuffle_bytes(self):
        big = [(k % 100, "payload-%05d" % k) for k in range(20000)]
        small = [(k, "dim-%d" % k) for k in range(100)]

        def totals(make_engine):
            with make_engine() as ctx:
                joined = ctx.parallelize(big, 4).join(ctx.parallelize(small, 2))
                result = sorted(joined.collect())
                moved = sum(job.shuffle_bytes for job in ctx.metrics.jobs)
            return result, moved

        broadcast_result, broadcast_bytes = totals(broadcast_engine)
        shuffle_result, shuffle_bytes = totals(shuffle_engine)
        assert broadcast_result == shuffle_result
        assert broadcast_bytes < shuffle_bytes / 5


# ---------------------------------------------------------------------------
# Adaptive re-optimization
# ---------------------------------------------------------------------------


class TestAdaptiveReoptimization:
    BIG = [(k % 300, "payload-%06d" % k) for k in range(15000)]
    MISESTIMATED = [(k % 300, k) for k in range(15000)]

    def _run(self, adaptive):
        """A join whose small side the static estimator gets badly wrong:
        the filter keeps ~0.5% of records but is costed at 50%."""
        config = EngineConfig(num_workers=2, default_parallelism=4, seed=1,
                              adaptive_enabled=adaptive,
                              broadcast_threshold_bytes=10_000)
        with EngineContext(config) as ctx:
            left = ctx.parallelize(self.BIG, 4)
            right = ctx.parallelize(self.MISESTIMATED, 4).filter(
                lambda kv: kv[1] % 200 == 0)
            joined = left.join(right)
            result = sorted(joined.collect())
            job = ctx.metrics.jobs[-1]
            moved = sum(j.shuffle_bytes for j in ctx.metrics.jobs)
            map_stages = [s.name for j in ctx.metrics.jobs
                          for s in j.stages if s.is_shuffle_map]
        return result, moved, map_stages, job.adaptive_replans

    def test_static_estimate_keeps_the_shuffle(self):
        result, moved, map_stages, replans = self._run(adaptive=False)
        assert replans == 0
        assert len(map_stages) == 2  # both sides shuffled

    def test_adaptive_switches_to_broadcast_at_runtime(self):
        static_result, static_moved, _, _ = self._run(adaptive=False)
        result, moved, map_stages, replans = self._run(adaptive=True)
        assert result == static_result
        assert replans >= 1
        # only the (actually tiny) mis-estimated side's map stage ran before
        # the plan switched, then its build shuffle; the big side's shuffle
        # never executed
        assert map_stages == ["shuffle:filter", "shuffle:filter"]
        assert moved < static_moved / 10

    def test_adaptive_replans_counted_in_metrics_summary(self):
        config = EngineConfig(num_workers=2, default_parallelism=4, seed=1,
                              broadcast_threshold_bytes=10_000)
        with EngineContext(config) as ctx:
            left = ctx.parallelize(self.BIG, 4)
            right = ctx.parallelize(self.MISESTIMATED, 4).filter(
                lambda kv: kv[1] % 200 == 0)
            left.join(right).collect()
            assert ctx.metrics.summary()["adaptive_replans"] >= 1

    def test_completed_shuffles_are_not_replanned_away(self):
        """Once both sides shuffled, re-running the action keeps reusing the
        shuffle output instead of rewriting to broadcast."""
        config = EngineConfig(num_workers=2, default_parallelism=4, seed=1,
                              broadcast_threshold_bytes=10_000)
        with EngineContext(config) as ctx:
            left = ctx.parallelize(self.BIG, 4)
            right = ctx.parallelize(self.MISESTIMATED, 4)  # both sides big
            joined = left.join(right)
            first = sorted(joined.collect())
            stages_after_first = sum(1 for j in ctx.metrics.jobs
                                     for s in j.stages if s.is_shuffle_map)
            assert sorted(joined.collect()) == first
            stages_after_second = sum(1 for j in ctx.metrics.jobs
                                      for s in j.stages if s.is_shuffle_map)
            assert stages_after_second == stages_after_first


# ---------------------------------------------------------------------------
# coalesce_shuffle
# ---------------------------------------------------------------------------


class TestCoalesceShuffle:
    def test_disabled_by_default(self):
        with broadcast_engine() as ctx:
            ds = (ctx.range(2000, num_partitions=8).map(lambda x: (x % 5, 1))
                  .reduce_by_key(lambda a, b: a + b, 8))
            assert "coalesce_shuffle" not in ctx.optimizer.optimize(ds.plan).applied

    def test_small_shuffle_coalesces_with_identical_results(self):
        def pipeline(ctx):
            return (ctx.range(2000, num_partitions=8).map(lambda x: (x % 5, 1))
                    .reduce_by_key(lambda a, b: a + b, 8))

        with broadcast_engine(target_partition_bytes=64 * 1024) as ctx:
            ds = pipeline(ctx)
            result = ctx.optimizer.optimize(ds.plan)
            assert "coalesce_shuffle" in result.applied
            executable = ctx._executable_for(ds)
            assert executable.num_partitions < 8
            coalesced = dict(ds.collect())
        with shuffle_engine() as ctx:
            assert dict(pipeline(ctx).collect()) == coalesced

    def test_large_shuffle_keeps_partitions(self):
        with broadcast_engine(target_partition_bytes=16) as ctx:
            ds = (ctx.range(2000, num_partitions=8).map(lambda x: (x % 997, x))
                  .group_by_key(8))
            assert "coalesce_shuffle" not in ctx.optimizer.optimize(ds.plan).applied

    def test_sort_partitions_never_coalesced(self):
        with broadcast_engine(target_partition_bytes=1024 * 1024) as ctx:
            ds = ctx.range(100, num_partitions=4).sort_by(lambda x: -x)
            assert "coalesce_shuffle" not in ctx.optimizer.optimize(ds.plan).applied
            assert ds.collect() == sorted(range(100), reverse=True)

    def test_repartition_coalesces_with_round_robin(self):
        with broadcast_engine(target_partition_bytes=1024 * 1024) as ctx:
            ds = ctx.range(500, num_partitions=4).repartition(8)
            result = ctx.optimizer.optimize(ds.plan)
            assert "coalesce_shuffle" in result.applied
            assert sorted(ds.collect()) == list(range(500))


class TestBroadcastBuildReuse:
    """A broadcast build is a one-bucket shuffle over the build dataset,
    reused by every join over it while complete."""

    def fact_and_dim(self, ctx):
        fact = ctx.parallelize([(i % 10, i) for i in range(2000)], 4)
        dim = ctx.parallelize([(i, f"d{i}") for i in range(10)], 2)
        return fact, dim

    @staticmethod
    def map_stages(job):
        return [stage.name for stage in job.stages if stage.is_shuffle_map]

    def test_second_join_reuses_the_build_shuffle(self):
        with broadcast_engine() as ctx:
            fact, dim = self.fact_and_dim(ctx)
            first = fact.join(dim).count()
            assert self.map_stages(ctx.metrics.jobs[-1]) == \
                ["shuffle:parallelize"]
            second = fact.map_values(lambda v: v * 2).join(dim).count()
            assert first == second == 2000
            # no second build map stage ran, and no nested job at all
            assert self.map_stages(ctx.metrics.jobs[-1]) == []
            assert len(ctx.metrics.jobs) == 2

    def test_unpersist_drops_the_build_shuffle(self):
        with broadcast_engine() as ctx:
            fact, dim = self.fact_and_dim(ctx)
            build = one_bucket_id(dim.id, "build")
            fact.join(dim).count()
            assert ctx.shuffle_manager.is_complete(build)
            dim.unpersist()
            assert not ctx.shuffle_manager.is_complete(build)
            # the next join writes the build shuffle again
            fact.map_values(str).join(dim).count()
            assert self.map_stages(ctx.metrics.jobs[-1]) == \
                ["shuffle:parallelize"]
            assert ctx.shuffle_manager.is_complete(build)

    def test_stop_leaves_no_build_shuffle(self):
        ctx = broadcast_engine()
        fact, dim = self.fact_and_dim(ctx)
        fact.join(dim).count()
        build = one_bucket_id(dim.id, "build")
        assert ctx.shuffle_manager.is_complete(build)
        ctx.stop()
        assert not ctx.shuffle_manager.is_complete(build)
        assert ctx.shuffle_manager.missing_map_partitions(build) == []

    def test_an_outer_join_reads_the_build_and_the_stream_keys(self):
        """An outer join preserving the build side also shuffles the
        stream side's key set, under an id of its own kind."""
        with broadcast_engine() as ctx:
            fact, dim = self.fact_and_dim(ctx)
            assert fact.right_outer_join(dim).count() == 2000
            assert self.map_stages(ctx.metrics.jobs[-1]) == \
                ["shuffle:parallelize", "shuffle:parallelize"]
            for dataset, kind in ((dim, "build"), (fact, "keys")):
                assert ctx.shuffle_manager.is_complete(
                    one_bucket_id(dataset.id, kind))

    def test_reused_build_produces_identical_results(self):
        with broadcast_engine() as ctx:
            fact, dim = self.fact_and_dim(ctx)
            first = sorted(fact.join(dim).collect())
            second = sorted(fact.join(dim).collect())
            third = sorted(fact.map_values(lambda v: v).join(dim).collect())
            assert first == second
            assert sorted((k, (v, d)) for k, (v, d) in third) == first


# ---------------------------------------------------------------------------
# A rotten span of a broadcast shuffle heals its one map
# ---------------------------------------------------------------------------


BACKENDS = ["thread"] + (["process"] if serializer.supports_closures()
                         else [])


def rot_first_span(ctx, shuffle_id):
    """Flip one payload byte of the first span of ``shuffle_id``."""
    catalog = ctx.shuffle_manager.export_catalog(shuffle_id)
    rot(next(source for source, _ in catalog["buckets"].values()
             if isinstance(source, Span)))


@pytest.mark.parametrize("kind", ["build", "keys"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_rotten_broadcast_span_heals_its_one_map(backend, kind):
    """A build span (or a stream key-set span of a ``right_outer_join``)
    that fails its checks is one lost map output: only that map runs
    again, and the join's answer does not change."""
    # on a thread, map output is framed where a transport carries it
    options = {"shuffle_transport": "tcp"} if backend == "thread" else {}
    with broadcast_engine(executor_backend=backend, **options) as ctx:
        fact = ctx.parallelize([(i % 10, i) for i in range(400)], 4)
        dim = ctx.parallelize([(i, f"d{i}") for i in range(0, 14, 2)], 3)
        joined = fact.right_outer_join(dim)
        first = sorted(joined.collect())
        rot_first_span(ctx, one_bucket_id(
            (dim if kind == "build" else fact).id, kind))
        healed = sorted(joined.collect())
        job = ctx.metrics.jobs[-1]
    with shuffle_engine() as ctx:
        expected = sorted(ctx.parallelize([(i % 10, i) for i in range(400)], 4)
                          .right_outer_join(ctx.parallelize(
                              [(i, f"d{i}") for i in range(0, 14, 2)], 3))
                          .collect())
    assert first == healed == expected
    assert (job.lost_map_outputs, job.recomputed_tasks) == (1, 1)


# ---------------------------------------------------------------------------
# The probe: every kind from one declaration, stream order, one batch ahead
# ---------------------------------------------------------------------------

#: The large (stream) and small (build) side of the probe cases.
STREAM = [((k * 7) % 9, f"S{k}") for k in range(60)]
BUILD = [(k % 5, f"B{k}") for k in range(0, 12, 2)]


def reference_join(variant, left, right):
    """The join in plain Python, independent of the engine's declaration."""
    right_keys = {key for key, _ in right}
    left_keys = {key for key, _ in left}
    if variant == "subtract_by_key":
        return [(key, value) for key, value in left if key not in right_keys]
    pairs = [(key, (value, other)) for key, value in left
             for match, other in right if match == key]
    if variant in ("left_outer_join", "full_outer_join"):
        pairs += [(key, (value, None)) for key, value in left
                  if key not in right_keys]
    if variant in ("right_outer_join", "full_outer_join"):
        pairs += [(key, (None, value)) for key, value in right
                  if key not in left_keys]
    return pairs


def sides(build_side):
    """``(left, right)`` data whose small side is ``build_side``."""
    return (STREAM, BUILD) if build_side == "right" else (BUILD, STREAM)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("build_side", ["left", "right"])
@pytest.mark.parametrize("variant", JOIN_VARIANTS)
def test_probe_matches_shuffle_and_reference(variant, build_side, backend):
    """Broadcast join = shuffle join = plain Python, as multisets, for every
    join kind, either build side and both backends."""
    left_data, right_data = sides(build_side)
    results = {}
    for strategy, threshold in (("broadcast", 1 << 20), ("shuffle", 0)):
        with EngineContext(EngineConfig(
                num_workers=2, default_parallelism=4, seed=1,
                executor_backend=backend,
                broadcast_threshold_bytes=threshold)) as ctx:
            joined = getattr(ctx.parallelize(left_data, 3), variant)(
                ctx.parallelize(right_data, 2))
            results[strategy] = sorted(map(repr, joined.collect()))
            name = ctx._executable_for(joined).name
        assert name.startswith("broadcast") == (strategy == "broadcast")
        if strategy == "broadcast":
            assert name.endswith(f"({build_side})")
    reference = sorted(map(repr, reference_join(variant, left_data,
                                                right_data)))
    assert results["broadcast"] == results["shuffle"] == reference


@pytest.mark.parametrize("build_side", ["left", "right"])
@pytest.mark.parametrize("variant", JOIN_VARIANTS)
def test_each_stream_partition_keeps_its_record_order(variant, build_side):
    """Partition ``p`` of a broadcast join holds stream partition ``p``'s
    pairs in stream-record order, each record's in build-value order."""
    left_data, right_data = sides(build_side)
    with broadcast_engine() as ctx:
        left = ctx.parallelize(left_data, 3)
        right = ctx.parallelize(right_data, 2)
        stream = right if build_side == "left" else left
        partitions = stream.glom().collect()
        joined = getattr(left, variant)(right)
        assert ctx._executable_for(joined).name.endswith(f"({build_side})")
        produced = joined.glom().collect()
    build = {}
    for key, value in left_data if build_side == "left" else right_data:
        build.setdefault(key, []).append(value)
    keeps_stream = variant == "full_outer_join" or variant == (
        "left_outer_join" if build_side == "right" else "right_outer_join")
    for index, records in enumerate(partitions):
        expected = []
        for key, value in records:
            if variant == "subtract_by_key":
                if build_side == "right" and key not in build:
                    expected.append((key, value))
                continue
            others = build.get(key) or ([None] if keeps_stream else [])
            expected += [(key, (value, other) if build_side == "right"
                          else (other, value)) for other in others]
        assert produced[index] == expected


def test_a_stream_task_pulls_one_batch_before_its_first_output():
    config = EngineConfig(num_workers=2, default_parallelism=4, seed=1,
                          batch_size=4)
    with EngineContext(config) as ctx:
        joined = ctx.parallelize(STREAM, 2).join(ctx.parallelize(BUILD, 2))
        joined.count()  # completes the build shuffle
        executable = ctx._executable_for(joined)
        assert executable.name == "broadcast_join(right)"
        stream = executable.dependencies[0].parent
        pulled = []
        original = stream.batch_iterator

        def counted(partition, task_context):
            for batch in original(partition, task_context):
                pulled.append(len(batch))
                yield batch

        stream.batch_iterator = counted
        batches = executable.compute_batches(0, TaskContext(), 4)
        first = next(batches)
        assert first and len(pulled) == 1
        assert len(list(batches)) + 1 <= len(pulled) == 30 // 4 + 1


def test_a_build_stage_is_followed_by_no_replan():
    """The adaptive replanner runs after a shuffle stage the cost-based
    rules price (here the reduce), never after a broadcast build or key
    set."""
    with broadcast_engine() as ctx:
        calls = []
        make = ctx._adaptive_replanner

        def counting(dataset):
            replan = make(dataset)

            def called():
                calls.append(len(ctx.metrics.jobs))
                return replan()
            return called

        ctx._adaptive_replanner = counting
        facts = ctx.parallelize([(k % 200, k) for k in range(400)], 3) \
            .reduce_by_key(lambda a, b: a + b)
        joined = facts.full_outer_join(ctx.parallelize(BUILD, 2))
        assert ctx._executable_for(joined).name == \
            "broadcast_full_outer_join(right)"
        joined.collect()
        stages = [stage.name for stage in ctx.metrics.jobs[-1].stages
                  if stage.is_shuffle_map]
    assert len(stages) == 3  # the reduce, the build, the stream's key set
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def iter_nodes(node):
    yield node
    for child in node.children:
        yield from iter_nodes(child)
