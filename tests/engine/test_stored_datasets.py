"""A stored dataset is served one way, whichever kind of store keeps it.

A dataset's store is its checkpoint once ``checkpoint()`` wrote one, else
its cache while it is cached (``Dataset.store``).  Both are one-bucket
shuffles whose map ``p`` holds partition ``p`` whole, and both are read by
one path; they differ only in what ``ONE_BUCKET`` declares: a cache is
filled lazily and its reads count as hits, a checkpoint is written by its
own stage and its reads count as none.  So a dataset that is cached and
then checkpointed has one store, its checkpoint, and no later task copies
a partition into its cache.
"""

from __future__ import annotations

import operator

import pytest

from repro.config import EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext

from payload_probe import recorded_payloads

BACKENDS = ["thread", "process"] if serializer.supports_closures() \
    else ["thread"]


def make_engine(backend: str, root) -> EngineContext:
    return EngineContext(EngineConfig(
        num_workers=2, default_parallelism=4, seed=1,
        executor_backend=backend, checkpoint_dir=str(root)))


def totals(ctx):
    return ctx.parallelize(range(200), 4).map(lambda x: (x % 7, x)) \
        .reduce_by_key(operator.add)


EXPECTED = sorted((key, sum(x for x in range(200) if x % 7 == key))
                  for key in range(7))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_cached_then_checkpointed_dataset_writes_nothing_more(
        tmp_path, backend):
    with make_engine(backend, tmp_path) as ctx:
        ds = totals(ctx).cache().checkpoint()
        assert sorted(ds.collect()) == EXPECTED
        job = ctx.metrics.jobs[-1]
        assert (job.records_written, job.cache_hits) == (0, 0)
        assert ds.store[0] == ds._checkpoint
        assert not ctx.shuffle_manager.has_map_output(ds.cache_id, 0)


def caches(ctx):
    """The ids of the cache shuffles registered with ``ctx``."""
    return [shuffle_id for shuffle_id in ctx.shuffle_manager.shuffle_ids()
            if str(shuffle_id).startswith("cache-")]


@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpointing_a_filled_cache_drops_it(tmp_path, backend):
    with make_engine(backend, tmp_path) as ctx:
        ds = totals(ctx).cache()
        assert sorted(ds.collect()) == EXPECTED
        # the executable's cache (a lowered mirror's) is complete
        assert all(map(ctx.shuffle_manager.is_complete, caches(ctx)))
        assert caches(ctx)
        ds.checkpoint()
        assert caches(ctx) == []
        assert sorted(ds.map(lambda kv: kv).collect()) == EXPECTED
        assert ctx.metrics.jobs[-1].records_written == 0


@pytest.mark.skipif(not serializer.supports_closures(),
                    reason="process-backend stages ship closures")
def test_a_stored_dataset_payload_carries_its_one_store(tmp_path):
    """Process backend: a stage over a cached, checkpointed dataset ships
    the checkpoint's span catalog and no cache's."""
    with make_engine("process", tmp_path) as ctx:
        ds = totals(ctx).cache().checkpoint()
        with recorded_payloads(ctx) as served:
            assert sorted(ds.map(lambda kv: kv).collect()) == EXPECTED
        assert [list(serializer.loads(payload)["catalog"])
                for payload in served] == [[ds._checkpoint]]


def test_explain_tells_a_checkpoint_from_a_cache(tmp_path):
    with make_engine("thread", tmp_path) as ctx:
        cached = totals(ctx).cache()
        cached.count()
        checkpointed = totals(ctx).checkpoint()
        assert "Cached_scan" in cached.map(lambda kv: kv).explain()
        explained = checkpointed.map(lambda kv: kv).explain()
        assert "Checkpoint_scan" in explained
        assert "Cached_scan" not in explained


def test_a_stored_scan_reports_its_store_size(tmp_path):
    """The statistics layer reads a checkpoint's and a cache's actual size
    from the same place: the store's map output."""
    with make_engine("thread", tmp_path) as ctx:
        cached = totals(ctx).cache()
        cached.count()
        checkpointed = totals(ctx).checkpoint()
        for ds in (cached, checkpointed):
            plan = ctx.optimizer.optimize(ds.map(lambda kv: kv).plan).plan
            scan = plan.child
            assert not scan.children and scan.stats.exact
            assert scan.stats.rows == 7
