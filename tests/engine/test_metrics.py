"""Metrics dataclasses: task/stage/job aggregation and merging.

The records are derived from one counter table, ``metrics.COUNTERS``; the
introspection tests below check the table against the records it builds,
the merge rule of every entry, and that a new counter is one entry.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import itertools
import pathlib
import sys
import time
import types

import pytest

from repro.config import EngineConfig
from repro.engine import metrics
from repro.engine.context import EngineContext
from repro.engine.metrics import (COUNTERS, JOB, STAGE, TASK, JobMetrics,
                                  MetricsRegistry, PendingCounters,
                                  StageMetrics, TaskContext, TaskMetrics,
                                  merge_job_metrics)


def _task(duration=0.5, records=10, failed=False, shuffle_write=100):
    return TaskMetrics(task_id="t", stage_id=0, partition_index=0,
                       duration_s=duration, records_read=records,
                       records_written=records, shuffle_bytes_written=shuffle_write,
                       failed=failed)


class TestStageMetrics:
    def test_add_task_aggregates(self):
        stage = StageMetrics(stage_id=0, name="s")
        stage.add_task(_task(duration=0.5, records=10))
        stage.add_task(_task(duration=1.5, records=20))
        assert stage.num_tasks == 2
        assert stage.duration_s == pytest.approx(2.0)
        assert stage.records_read == 30
        assert stage.shuffle_bytes_written == 200
        assert stage.max_task_duration_s == 1.5

    def test_failed_tasks_counted_but_not_in_max_duration(self):
        stage = StageMetrics(stage_id=0)
        stage.add_task(_task(duration=9.0, failed=True))
        stage.add_task(_task(duration=1.0))
        assert stage.num_failed_attempts == 1
        assert stage.max_task_duration_s == 1.0

    def test_empty_stage(self):
        stage = StageMetrics(stage_id=0)
        assert stage.max_task_duration_s == 0.0
        assert stage.as_dict()["num_tasks"] == 0

    def test_as_dict_roundtrip_keys(self):
        stage = StageMetrics(stage_id=3, name="shuffle:x", is_shuffle_map=True)
        as_dict = stage.as_dict()
        assert as_dict["stage_id"] == 3
        assert as_dict["is_shuffle_map"] is True


class TestJobMetrics:
    def _job(self):
        job = JobMetrics(job_id=1, description="test job")
        stage = StageMetrics(stage_id=0)
        stage.add_task(_task(duration=0.25, records=5))
        job.add_stage(stage)
        return job

    def test_aggregates(self):
        job = self._job()
        assert job.num_stages == 1
        assert job.num_tasks == 1
        assert job.total_task_time_s == pytest.approx(0.25)
        assert job.records_read == 5
        assert job.shuffle_bytes == 100

    def test_wall_clock_uses_finish_time(self):
        job = self._job()
        assert job.finished_at is None
        running_wall_clock = job.wall_clock_s
        assert running_wall_clock >= 0
        job.finish()
        assert job.finished_at is not None
        assert job.wall_clock_s >= 0

    def test_as_dict(self):
        as_dict = self._job().as_dict()
        assert as_dict["description"] == "test job"
        assert as_dict["num_tasks"] == 1

    def test_task_metrics_as_dict(self):
        as_dict = _task().as_dict()
        assert as_dict["duration_s"] == 0.5
        assert as_dict["failed"] is False


class TestMergeAndRegistry:
    def test_merge_job_metrics(self):
        jobs = []
        for index in range(3):
            job = JobMetrics(job_id=index)
            stage = StageMetrics(stage_id=index)
            stage.add_task(_task(duration=1.0, records=10))
            job.add_stage(stage)
            job.finish()
            jobs.append(job)
        merged = merge_job_metrics(jobs)
        assert merged["num_jobs"] == 3
        assert merged["total_task_time_s"] == pytest.approx(3.0)
        assert merged["records_read"] == 30

    def test_merge_empty(self):
        assert merge_job_metrics([])["num_jobs"] == 0

    def test_registry_collects_and_resets(self):
        registry = MetricsRegistry()
        job = JobMetrics(job_id=0)
        job.finish()
        registry.register(job)
        assert len(registry.jobs) == 1
        assert registry.summary()["num_jobs"] == 1
        registry.reset()
        assert registry.jobs == []


def _slow_pair(key):
    time.sleep(0.05)
    return (key, f"dim-{key}")


def _slow_add(a, b):
    time.sleep(0.02)
    return a + b


class TestNestedJobWall:
    """``summary()["wall_clock_s"]`` counts a nested job's time once.

    An automatic checkpoint runs as a job of its own inside the job that
    needs it; the summary's wall is the length of the union of the jobs'
    intervals, not their sum.  A broadcast build side is a stage of the
    join's own job.
    """

    SLACK_S = 0.02

    def _check(self, ctx, action, nested_prefix):
        started = time.perf_counter()
        action()
        elapsed = time.perf_counter() - started
        jobs = ctx.metrics.jobs
        nested = [job for job in jobs
                  if job.description.startswith(nested_prefix)]
        assert nested, [job.description for job in jobs]
        assert max(job.wall_clock_s for job in nested) >= 0.1
        wall = ctx.metrics.summary()["wall_clock_s"]
        assert wall <= elapsed + self.SLACK_S
        assert wall >= max(job.wall_clock_s for job in jobs)

    def test_broadcast_build_side_runs_inside_the_join_job(self):
        config = EngineConfig(num_workers=2, default_parallelism=2, seed=1,
                              broadcast_threshold_bytes=1 << 20)
        with EngineContext(config) as ctx:
            facts = ctx.parallelize([(i % 8, i) for i in range(80)], 2)
            dimension = ctx.parallelize(range(8), 4).map(_slow_pair)
            started = time.perf_counter()
            facts.join(dimension).collect()
            elapsed = time.perf_counter() - started
            (job,) = ctx.metrics.jobs
            build = [stage for stage in job.stages if stage.is_shuffle_map]
            assert [stage.num_tasks for stage in build] == [4]
            wall = ctx.metrics.summary()["wall_clock_s"]
            assert job.wall_clock_s >= 0.1
            assert job.wall_clock_s <= wall <= elapsed + self.SLACK_S

    def test_automatic_checkpoint_counted_once(self, tmp_path):
        config = EngineConfig(num_workers=2, default_parallelism=2, seed=1,
                              checkpoint_dir=str(tmp_path),
                              checkpoint_interval=1)
        with EngineContext(config) as ctx:
            pairs = ctx.parallelize([(i % 8, 1) for i in range(64)], 4)
            self._check(ctx,
                        lambda: pairs.reduce_by_key(_slow_add, 2).collect(),
                        "checkpoint")

    def test_wall_is_the_union_of_job_intervals(self):
        jobs = []
        for index, (start, end) in enumerate([(10.0, 11.0), (12.0, 12.5),
                                              (12.2, 12.4), (12.3, 13.0)]):
            job = JobMetrics(job_id=index, started_at=start)
            job.finished_at = end
            jobs.append(job)
        assert merge_job_metrics(jobs)["wall_clock_s"] == pytest.approx(2.0)


# -- the counter table -------------------------------------------------------

RECORDS = {TASK: TaskMetrics, STAGE: StageMetrics, JOB: JobMetrics}

#: Record fields that are not counters.
IDENTITY = {
    TASK: {"task_id", "stage_id", "partition_index", "attempt", "duration_s",
           "failed", "timed_out", "speculative"},
    STAGE: {"stage_id", "name", "is_shuffle_map", "duration_s",
            "wall_clock_s", "tasks"},
    JOB: {"job_id", "description", "started_at", "finished_at", "stages"},
}


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def _carried(level):
    return [counter for counter in COUNTERS
            if counter.level <= level <= counter.top]


class TestCounterTable:
    def test_names_are_unique_and_rules_known(self):
        keys = [counter.key(JOB) for counter in _carried(JOB)]
        assert len(keys) == len(set(keys))
        assert len({c.name for c in COUNTERS}) == len(COUNTERS)
        assert {c.merge for c in COUNTERS} <= set(metrics.MERGES)
        assert [c.name for c in COUNTERS if c.merge == "max"] == \
            ["peak_shuffle_bytes"]

    @pytest.mark.parametrize("level", [TASK, STAGE, JOB])
    def test_every_record_carries_exactly_its_counters(self, level):
        expected = {counter.key(level) for counter in _carried(level)}
        assert _field_names(RECORDS[level]) - IDENTITY[level] == expected

    def test_task_context_holds_the_task_counters(self):
        expected = {c.name for c in COUNTERS if c.level == TASK}
        context = TaskContext()
        assert set(context.counters()) == expected
        assert all(value == 0 for value in context.counters().values())

    def test_summary_and_job_record_carry_every_job_counter(self):
        job = JobMetrics(job_id=0)
        job.finish()
        summary = merge_job_metrics([job])
        for counter in _carried(JOB):
            assert counter.key(JOB) in summary
            assert counter.key(JOB) in job.as_dict()
        assert list(job.as_dict())[2:] == list(summary)[1:]

    def test_each_counter_merges_by_its_rule(self):
        values = itertools.count(3, 7)
        rule = {"sum": sum, "max": max}
        jobs = []
        for job_id in range(2):
            job = JobMetrics(job_id=job_id)
            for stage_id in range(2):
                stage = StageMetrics(stage_id=stage_id)
                tasks = []
                for _ in range(3):
                    task = TaskMetrics(task_id=f"t{len(tasks)}")
                    for counter in _carried(TASK):
                        setattr(task, counter.name, next(values))
                    stage.add_task(task)
                    tasks.append(task)
                for counter in _carried(STAGE):
                    if counter.level == TASK:
                        assert getattr(stage, counter.name) == \
                            rule[counter.merge](getattr(task, counter.name)
                                                for task in tasks)
                    else:
                        setattr(stage, counter.name, next(values))
                job.add_stage(stage)
            for counter in _carried(JOB):
                name = counter.key(JOB)
                if counter.level < JOB:
                    assert getattr(job, name) == rule[counter.merge](
                        getattr(stage, counter.name) for stage in job.stages)
                else:
                    setattr(job, name, next(values))
            job.finish()
            jobs.append(job)
        summary = merge_job_metrics(jobs)
        for counter in _carried(JOB):
            name = counter.key(JOB)
            assert summary[name] == rule[counter.merge](
                getattr(job, name) for job in jobs)
        # the merges are not vacuous: max and sum disagree on these values
        assert summary["peak_shuffle_bytes"] < sum(
            job.peak_shuffle_bytes for job in jobs)

    def test_pending_counters_fold_into_the_next_job(self):
        pending = PendingCounters()
        pending.checkpoints_written += 2
        pending.recovery_invalid_entries += 1
        job = JobMetrics(job_id=0, checkpoints_written=1)
        pending.drain_into(job)
        assert job.checkpoints_written == 3
        assert job.recovery_invalid_entries == 1
        assert pending == PendingCounters()
        pending.drain_into(job)
        assert job.checkpoints_written == 3

    def test_a_new_counter_is_one_table_entry(self, monkeypatch):
        source = inspect.getsource(metrics)
        entry = '    Counter("widgets", TASK),\n'
        patched = source.replace("COUNTERS = (\n", "COUNTERS = (\n" + entry, 1)
        assert patched != source
        module = types.ModuleType("metrics_with_widgets")
        monkeypatch.setitem(sys.modules, module.__name__, module)
        exec(compile(patched, metrics.__file__, "exec"), module.__dict__)

        context = module.TaskContext()
        context.widgets += 3
        first = module.TaskMetrics(task_id="a")
        first.set_counters(context.counters())
        stage = module.StageMetrics(stage_id=0)
        stage.add_task(first)
        stage.add_task(module.TaskMetrics(task_id="b", widgets=4))
        job = module.JobMetrics(job_id=0)
        job.add_stage(stage)
        job.finish()
        assert first.as_dict()["widgets"] == 3
        assert stage.as_dict()["widgets"] == 7
        assert job.as_dict()["widgets"] == 7
        assert module.merge_job_metrics([job, job])["widgets"] == 14

    def test_no_counter_name_is_a_string_literal_outside_the_table(self):
        names = {c.name for c in COUNTERS} | {c.key(JOB) for c in COUNTERS}
        engine = pathlib.Path(metrics.__file__).parent
        offenders = []
        for path in sorted(engine.glob("*.py")):
            if path.name == "metrics.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and \
                        isinstance(node.value, str) and node.value in names:
                    offenders.append(f"{path.name}:{node.lineno} "
                                     f"{node.value!r}")
        assert offenders == []
