"""Process execution backend: observably identical to the thread backend.

The contract under test: with ``executor_backend="process"`` every wide
operator returns *identical* results (same records, same order) and identical
job metrics — except wall-clock timings — as the default thread backend,
while actually running tasks in forked worker processes and moving shuffle
data through spill-file transport frames.  Fault injection, retries, skew
splitting, broadcast joins and bounded-memory spilling must all behave the
same; unpicklable task graphs must fail fast with a diagnosis naming the
offending dataset; and no transport file may survive ``EngineContext.stop()``
or a failed job.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.config import EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext
from repro.errors import ConfigurationError, SerializationError, TaskError

from test_memory_bounded import (DATA, OTHER_SIDE, PIPELINES, TINY_CAP,
                                 run_pipeline)
from payload_probe import recorded_payloads, shipped_graph

if not serializer.supports_closures():  # pragma: no cover - cloudpickle ships
    pytest.skip("shipping task closures to worker processes needs cloudpickle",
                allow_module_level=True)

#: Only timings may differ between the two backends.  Byte, spill and peak
#: accounting flows back across the process boundary through the task result
#: protocol, so even ``peak_shuffle_bytes`` must match in unbounded mode.
_TIMING_KEYS = ("wall_clock_s", "total_task_time_s")

#: Bounded runs additionally own per-process memory managers, so spill
#: counters and peaks are backend-local there.
_BOUNDED_VOLATILE = _TIMING_KEYS + ("spills", "spill_bytes",
                                    "peak_shuffle_bytes")


def process_engine(batch_size: int = 1024, **overrides) -> EngineContext:
    """An engine running tasks in multiprocessing workers."""
    options = {"num_workers": 2, "default_parallelism": 4, "seed": 1,
               "batch_size": batch_size, "executor_backend": "process"}
    options.update(overrides)
    return EngineContext(EngineConfig(**options))


def thread_engine(batch_size: int = 1024, **overrides) -> EngineContext:
    """The same engine on the default in-process thread backend."""
    options = {"num_workers": 2, "default_parallelism": 4, "seed": 1,
               "batch_size": batch_size, "executor_backend": "thread"}
    options.update(overrides)
    return EngineContext(EngineConfig(**options))


def comparable(metrics: dict, volatile=_TIMING_KEYS) -> dict:
    return {key: value for key, value in metrics.items()
            if key not in volatile}


# -- backend parity ------------------------------------------------------------


@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize("pipeline_name", sorted(PIPELINES))
def test_process_matches_thread_exactly(pipeline_name, batch_size):
    """Both backends agree record-for-record and metric-for-metric."""
    proc_first, proc_second, proc_metrics, _ = run_pipeline(
        process_engine, pipeline_name, DATA, batch_size)
    thr_first, thr_second, thr_metrics, _ = run_pipeline(
        thread_engine, pipeline_name, DATA, batch_size)
    assert proc_first == thr_first
    assert proc_second == thr_second
    # run_pipeline already strips the spill counters; put the ones the
    # process backend must reproduce back under test
    assert proc_metrics == thr_metrics


@pytest.mark.parametrize("pipeline_name", ["group_by_key", "sort_by", "join"])
def test_full_metric_parity_including_peaks(pipeline_name):
    """Unbounded runs match on *every* summary key except the timings."""

    def run(make_engine):
        with make_engine(batch_size=1024,
                         broadcast_threshold_bytes=0) as ctx:
            build = PIPELINES[pipeline_name]
            ds = build(ctx.parallelize(DATA, 4),
                       ctx.parallelize(OTHER_SIDE, 2))
            first = ds.collect()
            return first, ctx.metrics.summary()

    proc_result, proc_summary = run(process_engine)
    thr_result, thr_summary = run(thread_engine)
    assert proc_result == thr_result
    assert comparable(proc_summary) == comparable(thr_summary)
    assert proc_summary["shuffle_bytes"] > 0
    assert proc_summary["peak_shuffle_bytes"] > 0


@pytest.mark.parametrize("pipeline_name", ["group_by_key", "sort_by", "join"])
def test_skew_split_parity(pipeline_name):
    """Runtime skew splitting fires and agrees on the process backend."""
    overrides = {"skew_split_factor": 4, "skew_min_partition_bytes": 1}

    def proc(batch_size, **extra):
        return process_engine(batch_size, **dict(overrides, **extra))

    def thr(batch_size, **extra):
        return thread_engine(batch_size, **dict(overrides, **extra))

    proc_first, proc_second, proc_metrics, _ = run_pipeline(
        proc, pipeline_name, DATA, 1024)
    thr_first, thr_second, thr_metrics, _ = run_pipeline(
        thr, pipeline_name, DATA, 1024)
    assert proc_first == thr_first
    assert proc_second == thr_second
    assert proc_metrics == thr_metrics
    if pipeline_name != "sort_by":  # range-partitioned sort rarely skews here
        assert proc_metrics["skew_splits"] > 0


def test_broadcast_join_parity():
    """Broadcast joins (no shuffle of the probe side) agree across backends."""

    def run(make_engine):
        with make_engine(batch_size=1024,
                         broadcast_threshold_bytes=1 << 20) as ctx:
            joined = (ctx.parallelize(DATA, 4)
                      .join(ctx.parallelize(OTHER_SIDE, 2), 4))
            first = joined.collect()
            second = joined.collect()
            return first, second, ctx.metrics.summary()

    proc_first, proc_second, proc_summary = run(process_engine)
    thr_first, thr_second, thr_summary = run(thread_engine)
    assert proc_first == thr_first
    assert proc_second == thr_second
    assert comparable(proc_summary) == comparable(thr_summary)


def test_bounded_memory_process_backend_is_correct():
    """A capped process run still matches unbounded thread results.

    Spill counters are volatile here: workers own their own memory
    managers, so where the thread backend spills shuffle buckets on the
    driver, the process backend spills reduce-side merge runs per worker.
    """
    for pipeline_name in ("group_by_key", "sort_by", "join"):
        proc_first, proc_second, proc_metrics, _ = run_pipeline(
            lambda batch_size, **kw: process_engine(
                batch_size, shuffle_memory_bytes=TINY_CAP, **kw),
            pipeline_name, DATA, 1024)
        thr_first, thr_second, thr_metrics, _ = run_pipeline(
            thread_engine, pipeline_name, DATA, 1024)
        assert proc_first == thr_first
        assert proc_second == thr_second
        assert comparable(proc_metrics, _BOUNDED_VOLATILE) == \
            comparable(thr_metrics, _BOUNDED_VOLATILE)


def test_cached_datasets_hit_across_stages():
    """Blocks cached in workers flow back and serve later jobs as hits."""

    def run(make_engine):
        with make_engine() as ctx:
            base = ctx.parallelize(DATA, 4).map_values(lambda v: v + 1).cache()
            first = base.reduce_by_key(lambda a, b: a + b, 4).collect()
            second = base.group_by_key(4).map_values(len).collect()
            return first, second, ctx.metrics.summary()["cache_hits"]

    proc_first, proc_second, proc_hits = run(process_engine)
    thr_first, thr_second, thr_hits = run(thread_engine)
    assert proc_first == thr_first
    assert proc_second == thr_second
    assert proc_hits == thr_hits
    assert proc_hits > 0


# -- stage payloads are cut per edge, not per object ---------------------------


def _diamond(build, **overrides):
    """Run ``build(ctx, pairs)`` on both backends; return the process side.

    ``(result, pairs id, [(full, stubs) per published payload])`` — after
    asserting the thread backend computes the identical result and metrics.
    """
    options = dict(broadcast_threshold_bytes=0, **overrides)
    with thread_engine(**options) as ctx:
        expected = build(ctx, ctx.parallelize(DATA, 4)).collect()
        thread_summary = ctx.metrics.summary()
    with process_engine(**options) as ctx:
        pairs = ctx.parallelize(DATA, 4)
        with recorded_payloads(ctx) as payloads:
            result = build(ctx, pairs).collect()
        assert comparable(ctx.metrics.summary()) == comparable(thread_summary)
        assert result == expected
        return result, pairs.id, [shipped_graph(data) for data in payloads]


def test_diamond_union_ships_the_shared_parent_on_the_uncut_path():
    """One payload, one object, two paths: cut on one, narrow on the other."""
    _, pairs_id, graphs = _diamond(
        lambda ctx, pairs: pairs.union(
            pairs.reduce_by_key(lambda a, b: a + b, 4)))
    map_stage, result_stage = graphs
    assert pairs_id in map_stage[0] and not map_stage[1]
    full, stubs = result_stage
    # the union reads ``pairs`` narrowly, so it ships — while the very same
    # object behind the complete shuffle of its reduced descendant is a stub
    assert pairs_id in full and full[pairs_id].name == "parallelize"
    assert list(stubs) == [pairs_id]


def test_diamond_join_ships_the_shared_parent_only_where_it_is_scanned():
    _, pairs_id, graphs = _diamond(
        lambda ctx, pairs: pairs.join(
            pairs.reduce_by_key(lambda a, b: a + b, 4), 4))
    # four stages: the reduce's map side and the join's left map side scan
    # ``pairs``; the join's right map side reads the reduce's complete
    # shuffle; the result stage reads the two cogroup shuffles
    assert len(graphs) == 4
    scans = [pairs_id in full for full, _ in graphs]
    assert sorted(scans) == [False, False, True, True]
    # a stage ships ``pairs`` in full exactly when an uncut path reaches it
    assert all((pairs_id in stubs) != scanned
               for (_, stubs), scanned in zip(graphs, scans))
    # the right map side stubs only it; the result stage stubs both parents
    assert sorted(len(stubs) for _, stubs in graphs) == [0, 0, 1, 2]
    assert len(graphs[-1][1]) == 2


def test_diamond_fully_cached_parent_of_two_shuffles_is_a_cut():
    """A cached parent whose every partition is cached ships as a stub."""

    def build(ctx, pairs):
        base = pairs.map_values(lambda v: v + 1).cache()
        totals = base.reduce_by_key(lambda a, b: a + b, 4)
        sizes = base.group_by_key(4).map_values(len)
        return totals.join(sizes, 4)

    _, pairs_id, graphs = _diamond(build)
    # the first map stage over the cached parent computes and caches it;
    # every later one reads it from the cache shuffle, behind a cut
    scanning = [full for full, _ in graphs
                if any(ds.is_cached for ds in full.values())]
    assert len(scanning) == 1 and pairs_id in scanning[0]
    cut = [stubs for full, stubs in graphs[1:]
           if any(stub.is_cached for stub in stubs.values())]
    assert cut and all(pairs_id not in stubs for stubs in cut)
    full, stubs = graphs[-1]
    assert not any(ds.is_cached for ds in full.values())
    assert pairs_id not in full and stubs


# -- fault injection and retries ----------------------------------------------


def test_fault_injection_is_deterministic_across_backends():
    """The seeded per-(task, attempt) failure decision runs in the worker
    yet injects exactly the failures the thread backend injects."""

    def run(make_engine):
        with make_engine(failure_rate=0.2, max_task_retries=6) as ctx:
            ds = (ctx.parallelize(DATA, 4)
                  .reduce_by_key(lambda a, b: a + b, 4))
            result = ds.collect()
            return result, ctx.metrics.summary()["num_failed_attempts"]

    proc_result, proc_failures = run(process_engine)
    thr_result, thr_failures = run(thread_engine)
    assert proc_result == thr_result
    assert proc_failures == thr_failures
    assert proc_failures > 0, "a 20% rate over 8+ tasks must inject something"


def test_worker_exception_surfaces_as_task_error_with_traceback():
    def explode(pair):
        if pair[1] == 799:
            raise ValueError("boom in worker")
        return pair

    with process_engine(max_task_retries=1) as ctx:
        ds = ctx.parallelize(DATA, 4).map(explode).group_by_key(4)
        with pytest.raises(TaskError) as excinfo:
            ds.collect()
        assert "failed after 2 attempts" in str(excinfo.value)
        # the worker's formatted traceback travels back for debugging
        assert "boom in worker" in str(excinfo.value.cause)
        assert "Traceback" in str(excinfo.value.cause)
        # like the thread backend, a failed stage's attempts never reach
        # the job summary — only completed stages are folded in
        assert ctx.metrics.summary()["num_failed_attempts"] == 0


# -- preflight picklability check ---------------------------------------------


def test_unpicklable_closure_fails_fast_with_named_dataset():
    lock = threading.Lock()
    with process_engine() as ctx:
        ds = ctx.parallelize(range(20), 4).map(lambda x: (x, lock))
        with pytest.raises(SerializationError) as excinfo:
            ds.collect()
        message = str(excinfo.value)
        assert "cannot ship stage to worker processes" in message
        assert "map" in message


def test_unpicklable_source_records_fail_fast_with_named_dataset():
    data = [threading.Lock() for _ in range(8)]
    with process_engine() as ctx:
        with pytest.raises(SerializationError) as excinfo:
            ctx.parallelize(data, 4).collect()
        assert "parallelize" in str(excinfo.value)


def test_thread_backend_accepts_unpicklable_closures():
    """The preflight is a process-backend concern only."""
    lock = threading.Lock()
    with thread_engine() as ctx:
        result = ctx.parallelize(range(5), 2).map(lambda x: (x, lock)).count()
        assert result == 5


# -- transport-file lifecycle --------------------------------------------------


def transport_files(ctx) -> list:
    root = ctx._spill_root
    if root is None:
        return []
    transport_root = os.path.join(root, "transport")
    if not os.path.isdir(transport_root):
        return []
    found = []
    for dirpath, _dirnames, filenames in os.walk(transport_root):
        found.extend(os.path.join(dirpath, name) for name in filenames)
    return sorted(found)


def test_transport_files_exist_while_shuffle_lives_and_die_with_stop():
    ctx = process_engine()
    ds = ctx.parallelize(DATA, 4).group_by_key(4)
    ds.collect()
    files = transport_files(ctx)
    assert any("shuffle-" in path for path in files), \
        "map output must live in transport frame files"
    root = ctx._spill_root
    ctx.stop()
    assert not os.path.isdir(root)


def test_failed_job_sweeps_incomplete_shuffle_transport_files():
    def explode(pair):
        if pair[1] == 799:
            raise ValueError("boom")
        return pair

    ctx = process_engine(max_task_retries=0)
    try:
        ds = ctx.parallelize(DATA, 4).map(explode).group_by_key(4)
        with pytest.raises(TaskError):
            ds.collect()
        assert not any("shuffle-" in path for path in transport_files(ctx))
    finally:
        ctx.stop()


# -- configuration surface -----------------------------------------------------


def test_invalid_backend_rejected():
    with pytest.raises(ConfigurationError):
        EngineConfig(executor_backend="fiber")


def test_thread_backend_uses_no_transport():
    with thread_engine() as ctx:
        ctx.parallelize(DATA, 4).group_by_key(4).collect()
        assert ctx._transport is None
        assert not transport_files(ctx)
