"""Executor concurrency: serialized metrics mutation, read/write semantics."""

from __future__ import annotations

import time

import pytest

from repro.config import EngineConfig
from repro.engine.context import EngineContext
from repro.engine.dataset import TaskContext
from repro.engine.executor import Executor, ProcessExecutor, Task
from repro.engine.metrics import StageMetrics


class _CountingTask(Task):
    """A task that reads a fixed number of records."""

    def __init__(self, task_id: str, partition: int, records: int):
        super().__init__(task_id, stage_id=0, partition=partition)
        self._records = records

    def run(self, task_context: TaskContext):
        task_context.records_read += self._records
        return self._records


class _OverlapDetectingStage(StageMetrics):
    """A stage whose ``add_task`` detects concurrent (unserialized) entry.

    The deliberately non-atomic enter/sleep/exit window makes an unguarded
    concurrent call from pool workers almost certain to be observed; the
    stage driver settles every attempt on one thread, so no overlap occurs.
    """

    def __init__(self):
        super().__init__(stage_id=0, name="overlap-probe")
        self.overlaps = 0
        self._entered = False

    def add_task(self, task):
        if self._entered:
            self.overlaps += 1
        self._entered = True
        time.sleep(0.002)
        super().add_task(task)
        self._entered = False


@pytest.fixture(params=["thread", "process"])
def executor(request):
    config = EngineConfig(num_workers=4, default_parallelism=4)
    built = Executor(config) if request.param == "thread" \
        else ProcessExecutor(config)
    yield built
    built.shutdown()


class TestStageMetricsThreadSafety:
    def test_concurrent_add_task_is_serialized(self, executor):
        stage = _OverlapDetectingStage()
        tasks = [_CountingTask(f"t{i}", i, records=10) for i in range(32)]
        results = executor.execute_stage(tasks, stage)
        assert stage.overlaps == 0
        assert len(results) == 32
        assert stage.num_tasks == 32
        assert stage.records_read == 320

    def test_aggregates_consistent_under_contention(self, executor):
        """Many workers, many tasks: stage aggregates must add up exactly."""
        stage = StageMetrics(stage_id=1, name="contention")
        tasks = [_CountingTask(f"t{i}", i, records=i) for i in range(200)]
        results = executor.execute_stage(tasks, stage)
        assert [result.value for result in results] == list(range(200))
        assert stage.num_tasks == 200
        assert stage.records_read == sum(range(200))
        assert len(stage.tasks) == 200


class TestResultTaskMetricSemantics:
    def test_action_consumption_counts_as_reads_not_writes(self):
        with EngineContext(EngineConfig(num_workers=1, default_parallelism=4)) as ctx:
            ctx.range(100, num_partitions=4).count()
            job = ctx.metrics.jobs[-1]
            assert job.records_read == 100
            # nothing was materialised: no written records
            assert job.records_written == 0

    def test_shuffle_writes_still_counted(self):
        with EngineContext(EngineConfig(num_workers=1, default_parallelism=4)) as ctx:
            (ctx.range(100, num_partitions=4).map(lambda x: (x % 4, x))
             .group_by_key().collect())
            job = ctx.metrics.jobs[-1]
            shuffle_stages = [s for s in job.stages if s.is_shuffle_map]
            result_stages = [s for s in job.stages if not s.is_shuffle_map]
            assert sum(s.records_written for s in shuffle_stages) == 100
            assert sum(s.records_written for s in result_stages) == 0

    def test_cache_materialisation_counts_as_writes(self):
        with EngineContext(EngineConfig(num_workers=1, default_parallelism=2)) as ctx:
            ds = ctx.range(50, num_partitions=2).cache()
            ds.count()
            assert ctx.metrics.jobs[-1].records_written == 50
            ds.count()  # served from cache: reads it back, writes nothing
            assert ctx.metrics.jobs[-1].records_written == 0
            assert ctx.metrics.jobs[-1].cache_hits == 2
