"""Scheduler (stages, caching, shuffle reuse) and executor (retries, faults)."""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.engine.context import EngineContext
from repro.errors import EngineError, TaskError


class TestStages:
    def test_narrow_job_has_single_stage(self, engine):
        engine.range(20, num_partitions=4).map(lambda x: x + 1).count()
        job = engine.metrics.jobs[-1]
        assert job.num_stages == 1
        assert job.num_tasks == 4

    def test_shuffle_job_has_map_and_result_stages(self, engine):
        engine.range(20, num_partitions=4).map(lambda x: (x % 2, x)) \
            .reduce_by_key(lambda a, b: a + b).collect()
        job = engine.metrics.jobs[-1]
        assert job.num_stages == 2
        shuffle_stages = [s for s in job.stages if s.is_shuffle_map]
        assert len(shuffle_stages) == 1
        assert shuffle_stages[0].num_tasks == 4

    def test_join_runs_two_shuffle_stages(self):
        # pin the shuffle-cogroup strategy: a tiny side would otherwise be
        # broadcast (see test_broadcast_join.py for that path)
        config = EngineConfig(num_workers=2, default_parallelism=4, seed=1,
                              broadcast_threshold_bytes=0)
        with EngineContext(config) as engine:
            left = engine.parallelize([(1, "a")], 2)
            right = engine.parallelize([(1, "b")], 2)
            left.join(right).collect()
            job = engine.metrics.jobs[-1]
            assert sum(1 for s in job.stages if s.is_shuffle_map) == 2

    def test_small_join_broadcasts_by_default(self, engine):
        left = engine.parallelize([(1, "a")], 2)
        right = engine.parallelize([(1, "b")], 2)
        assert left.join(right).collect() == [(1, ("a", "b"))]
        job = engine.metrics.jobs[-1]
        # one map stage: the build side's one-bucket shuffle
        assert sum(1 for s in job.stages if s.is_shuffle_map) == 1

    def test_shuffle_output_reused_across_jobs(self, engine):
        reduced = engine.range(40, num_partitions=4).map(lambda x: (x % 4, x)) \
            .reduce_by_key(lambda a, b: a + b)
        reduced.collect()
        first_job_stages = engine.metrics.jobs[-1].num_stages
        reduced.count()
        second_job_stages = engine.metrics.jobs[-1].num_stages
        assert first_job_stages == 2
        assert second_job_stages == 1  # the shuffle output is still available

    def test_explain_mentions_every_lineage_node(self, engine):
        ds = engine.range(10, num_partitions=2).map(lambda x: (x, 1)) \
            .reduce_by_key(lambda a, b: a + b)
        plan = engine.explain(ds)
        assert "combine_by_key" in plan
        assert "parallelize" in plan
        assert "(shuffle)" in plan

    def test_run_job_on_subset_of_partitions(self, engine):
        ds = engine.range(40, num_partitions=4)
        results = engine.run_job(ds, list, partitions=[1])
        assert results == [list(range(10, 20))]


class TestCaching:
    def test_cached_dataset_served_from_store(self, engine):
        ds = engine.range(50, num_partitions=2).map(lambda x: x * 2).cache()
        ds.count()
        # each partition is one map output of the dataset's cache shuffle
        assert engine.shuffle_manager.missing_map_partitions(ds.cache_id) == []
        assert engine.shuffle_manager.is_complete(ds.cache_id)
        ds.count()
        job = engine.metrics.jobs[-1]
        assert job.cache_hits == 2

    def test_unpersist_drops_blocks(self, engine):
        ds = engine.range(10, num_partitions=2).cache()
        ds.count()
        ds.unpersist()
        assert ds.cache_id not in engine.shuffle_manager.shuffle_ids()
        assert not ds.is_cached

    def test_cache_avoids_upstream_shuffle_recomputation(self, engine):
        reduced = (engine.range(30, num_partitions=3)
                   .map(lambda x: (x % 3, x))
                   .reduce_by_key(lambda a, b: a + b)
                   .cache())
        assert reduced.count() == 3
        # downstream job over the cached dataset: no new shuffle stage needed
        downstream = reduced.map(lambda kv: kv[1])
        downstream.sum()
        assert engine.metrics.jobs[-1].num_stages == 1

    def test_cache_results_identical_to_uncached(self, engine):
        base = engine.range(100, num_partitions=4).map(lambda x: x * 3)
        expected = base.collect()
        cached = base.cache()
        assert cached.collect() == expected
        assert cached.collect() == expected


class TestMetricsCollection:
    def test_records_read_counted(self, engine):
        engine.range(100, num_partitions=4).count()
        job = engine.metrics.jobs[-1]
        assert job.records_read == 100

    def test_shuffle_bytes_counted(self, engine):
        engine.range(100, num_partitions=4).map(lambda x: (x, x)).group_by_key().collect()
        job = engine.metrics.jobs[-1]
        assert job.shuffle_bytes > 0

    def test_job_descriptions_present(self, engine):
        engine.range(10, num_partitions=2).count()
        assert "count" in engine.metrics.jobs[-1].description

    def test_metrics_summary_aggregates_jobs(self, engine):
        engine.range(10, num_partitions=2).count()
        engine.range(10, num_partitions=2).sum()
        summary = engine.metrics.summary()
        assert summary["num_jobs"] == 2
        assert summary["records_read"] == 20

    def test_metrics_reset(self, engine):
        engine.range(10, num_partitions=2).count()
        engine.metrics.reset()
        assert engine.metrics.jobs == []


class TestFaultInjectionAndRetries:
    def test_injected_failures_are_retried_and_job_succeeds(self):
        config = EngineConfig(num_workers=2, default_parallelism=4,
                              failure_rate=0.3, max_task_retries=6, seed=3)
        with EngineContext(config) as ctx:
            assert ctx.parallelize(range(200), 8).count() == 200
            assert ctx.metrics.jobs[-1].num_failed_attempts > 0

    def test_zero_retries_with_high_failure_rate_raises(self):
        config = EngineConfig(num_workers=1, default_parallelism=4,
                              failure_rate=0.95, max_task_retries=0, seed=1)
        with EngineContext(config) as ctx:
            with pytest.raises(TaskError):
                ctx.parallelize(range(100), 8).count()

    def test_user_exception_is_wrapped_in_task_error(self, engine):
        def boom(x):
            raise ValueError("bad record")
        with pytest.raises(TaskError) as excinfo:
            engine.range(5, num_partitions=1).map(boom).collect()
        assert "bad record" in str(excinfo.value)

    def test_failed_attempts_recorded_in_stage_metrics(self, engine):
        def sometimes(x):
            if x == 3:
                raise RuntimeError("poison record")
            return x
        with pytest.raises(TaskError):
            engine.parallelize(range(5), 1).map(sometimes).collect()
        job = engine.metrics.jobs[-1]
        assert job.num_failed_attempts == engine.config.max_task_retries + 1


class TestContextLifecycle:
    def test_stopped_context_rejects_new_work(self):
        ctx = EngineContext(EngineConfig(num_workers=1))
        ctx.stop()
        assert not ctx.is_active
        with pytest.raises(EngineError):
            ctx.parallelize([1, 2, 3])

    def test_context_manager_stops_on_exit(self):
        with EngineContext(EngineConfig(num_workers=1)) as ctx:
            ctx.range(3).count()
        assert not ctx.is_active

    def test_stop_is_idempotent(self):
        ctx = EngineContext(EngineConfig(num_workers=1))
        ctx.stop()
        ctx.stop()
        assert not ctx.is_active

    def test_text_file_reads_lines(self, tmp_path, engine):
        path = tmp_path / "data.txt"
        path.write_text("alpha\nbeta\ngamma\n", encoding="utf-8")
        assert engine.text_file(str(path)).collect() == ["alpha", "beta", "gamma"]

    def test_text_file_missing_raises(self, engine):
        from repro.errors import SourceError
        with pytest.raises(SourceError):
            engine.text_file("/nonexistent/file.txt")

    def test_single_worker_executes_sequentially(self, sequential_engine):
        order = []
        sequential_engine.range(6, num_partitions=3).map_partitions_with_index(
            lambda index, it: (order.append(index), list(it))[1]).collect()
        assert order == sorted(order)
