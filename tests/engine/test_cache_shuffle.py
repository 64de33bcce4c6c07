"""A cache is a one-bucket shuffle: cached partitions stay where computed.

The contract under test: partition ``p`` of a cached dataset is map output
``p`` of the dataset's cache shuffle, written by whichever task first
computes it — no job gains a stage for it, and a ``take`` caches only what
it computed.  It is held like any map output: resident under
``shuffle_memory_bytes`` (spilled and read back beyond it, never dropped),
or a span where a transport frames map output.  A rotten cached span is
lost output healed for its one partition, ``unpersist()`` removes the
shuffle (its lowered mirrors' too), and ``stop()`` leaves no frame file of
a cache behind, not even under a durable root.
"""

from __future__ import annotations

import operator
import os

import pytest

from repro.config import EngineConfig
from repro.engine import EngineContext, serializer
from repro.engine.dataset import one_bucket_id

from test_broadcast_join import rot_first_span

BACKENDS = ["thread"] + (["process"] if serializer.supports_closures()
                         else [])


def engine(**overrides) -> EngineContext:
    return EngineContext(EngineConfig(num_workers=2, default_parallelism=4,
                                      seed=1, **overrides))


def on_backend(backend: str, **overrides) -> EngineContext:
    """A context of ``backend``; on a thread, map output is framed where a
    transport carries it."""
    if backend == "thread":
        overrides.setdefault("shuffle_transport", "tcp")
    return engine(executor_backend=backend, **overrides)


def test_caching_adds_no_stage_and_a_take_caches_what_it_computed():
    with engine() as ctx:
        ds = ctx.parallelize(range(100), 4).map(lambda x: x + 1).cache()
        manager = ctx.shuffle_manager
        assert ds.take(3) == [1, 2, 3]
        assert manager.missing_map_partitions(ds.cache_id) == [1, 2, 3]
        assert ds.count() == 100
        job = ctx.metrics.jobs[-1]
        assert len(job.stages) == 1
        assert (job.cache_hits, job.records_written) == (1, 75)
        assert manager.is_complete(ds.cache_id)
        assert manager.map_output_stats(ds.cache_id)[0] == 100
        assert ds.count() == 100
        job = ctx.metrics.jobs[-1]
        assert (job.cache_hits, job.records_written) == (4, 0)


def test_a_cached_bucket_over_the_budget_spills_and_is_read_back():
    computed = []

    def pair(x):
        computed.append(x)
        return (x, str(x) * 3)

    with engine(shuffle_memory_bytes=1024) as ctx:
        ds = ctx.parallelize(range(2000), 4).map(pair).cache()
        assert ds.count() == 2000
        assert ctx.metrics.jobs[-1].spills > 0
        assert sorted(ds.collect()) == \
            sorted((x, str(x) * 3) for x in range(2000))
        assert ctx.metrics.jobs[-1].cache_hits == 4
    # every partition was computed once: a spilled one is never recomputed
    assert sorted(computed) == list(range(2000))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_rotten_cached_span_heals_its_partition(backend):
    """A cached span that fails its checks is one lost map output: only its
    partition is computed again, and the answer does not change."""
    expected = sorted((x % 7, x) for x in range(400))
    with on_backend(backend) as ctx:
        ds = ctx.parallelize(range(400), 4).map(lambda x: (x % 7, x)).cache()
        first = sorted(ds.collect())
        rot_first_span(ctx, ds.cache_id)
        healed = sorted(ds.collect())
        job = ctx.metrics.jobs[-1]
        assert ctx.shuffle_manager.is_complete(ds.cache_id)
    assert first == healed == expected
    assert (job.lost_map_outputs, job.recomputed_tasks) == (1, 1)


def test_unpersist_removes_the_cache_shuffle_and_its_mirrors():
    with engine() as ctx:
        # map_side_combine rewrites the aggregate: a lowered mirror runs
        ds = ctx.parallelize([(x % 5, x) for x in range(40)], 4) \
            .reduce_by_key(operator.add).cache()
        assert ds.count() == 5
        mirror = ctx._executable_for(ds)
        assert mirror is not ds and mirror.is_cached
        caches = {mirror.cache_id, ds.cache_id}
        assert caches & set(ctx.shuffle_manager.shuffle_ids())
        ds.unpersist()
        assert not caches & set(ctx.shuffle_manager.shuffle_ids())
        assert not mirror.is_cached and ds.count() == 5
        assert ctx.metrics.jobs[-1].cache_hits == 0


def _frame_files(root, kinds):
    """Frame files under ``root`` of the shuffles of ``kinds``."""
    return {kind for directory, _, files in os.walk(root) for kind in kinds
            if files and os.path.basename(directory).startswith(
                f"shuffle-{kind}-")}


@pytest.mark.parametrize("backend", BACKENDS)
def test_stop_leaves_no_frame_file_of_a_cache_build_or_keys_shuffle(backend):
    kinds = ("cache", "build", "keys")
    ctx = on_backend(backend)
    try:
        fact = ctx.parallelize([(i % 10, i) for i in range(400)], 4).cache()
        dim = ctx.parallelize([(i, f"d{i}") for i in range(0, 14, 2)], 3)
        assert fact.right_outer_join(dim).count() == 202
        root = ctx._transport.root
        assert _frame_files(root, kinds) == set(kinds)
    finally:
        ctx.stop()
    assert _frame_files(root, kinds) == set()


@pytest.mark.skipif(not serializer.supports_closures(),
                    reason="the process backend ships task closures")
def test_a_durable_root_keeps_no_frame_file_of_a_cache(tmp_path):
    """A cache is never journalled, so its frames are no recovery state;
    a journalled build side's are, and stay."""
    root = str(tmp_path / "durable")
    ctx = engine(executor_backend="process", checkpoint_dir=root)
    try:
        fact = ctx.parallelize([(i % 10, i) for i in range(400)], 4).cache()
        dim = ctx.parallelize([(i, f"d{i}") for i in range(0, 14, 2)], 3)
        assert fact.join(dim).count() == 200
        assert one_bucket_id(dim.id, "build") in \
            ctx.shuffle_manager.shuffle_ids()
    finally:
        ctx.stop()
    assert _frame_files(root, ("cache", "build")) == {"build"}
