"""A discarded pool's workers are retired, never stale.

When a worker dies hard the process backend discards its whole pool and
forks a fresh one.  The old workers stop beating, and their beat files
stay behind in the heartbeat directory.  Staleness must count only for a
worker of the live pool: a retired pid is never blacklisted, and the map
output it wrote before the crash is never invalidated for that reason.
"""

from __future__ import annotations

import time

import pytest

from repro.config import EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext

from test_memory_bounded import DATA

needs_closures = pytest.mark.skipif(
    not serializer.supports_closures(),
    reason="shipping task closures to worker processes needs cloudpickle")


def _add(a, b):
    return a + b


def _engine(backend: str, **overrides) -> EngineContext:
    return EngineContext(EngineConfig(num_workers=2, default_parallelism=4,
                                      seed=1, executor_backend=backend,
                                      **overrides))


@needs_closures
def test_retired_pool_workers_are_never_blacklisted():
    heartbeat_interval_s = 0.05  # stale after 4 missed beats: 0.2 s
    with _engine("process", faults={"crash": 0.2}, max_stage_retries=8,
                 heartbeat_interval_s=heartbeat_interval_s,
                 blacklist_failure_threshold=0) as ctx:
        ds = ctx.parallelize(DATA, 4).reduce_by_key(_add, 4)
        first = sorted(ds.collect())
        assert ctx.metrics.jobs[-1].stage_retries > 0, \
            "a 20% crash rate over 8 tasks must respawn the pool"
        # every retired worker's beat file is now well past the timeout
        time.sleep(10 * 4 * heartbeat_interval_s)
        second = sorted(ds.collect())
        summary = ctx.metrics.summary()
    with _engine("thread") as ctx:
        expected = sorted(ctx.parallelize(DATA, 4)
                          .reduce_by_key(_add, 4).collect())
    assert first == second == expected
    assert summary["blacklisted_workers"] == 0
    assert summary["lost_map_outputs"] == 0
