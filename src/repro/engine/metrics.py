"""Execution metrics collected by the dataflow engine.

Metrics are the raw material of the TOREADOR Labs "compare different runs"
feature: every task reports what it did, stages aggregate tasks, and jobs
aggregate stages.  The campaign layer then attaches job metrics to indicator
values so that alternative design options can be contrasted quantitatively.

Every counter is declared once, in :data:`COUNTERS`: its name, the level
whose code increments it (a task through its :class:`TaskContext`, or the
engine on a stage or job record) and its merge rule — ``sum``, or ``max``
for a high-water mark.  Everything else is derived from that table: the
counter fields of :class:`TaskContext`, :class:`TaskMetrics`,
:class:`StageMetrics` and :class:`JobMetrics`, the folds from task to stage
to job to run summary, the ``as_dict`` views, the counters a worker process
ships home, and the job-level tallies an engine context keeps between jobs
(:class:`PendingCounters`).  Adding a counter is one table entry.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from types import SimpleNamespace
from typing import Any, Dict, Iterable, List, NamedTuple, Optional

#: The levels a counter can be incremented at, lowest first.
TASK, STAGE, JOB = 0, 1, 2

#: How two values of a counter combine into the value one level up.
MERGES = {"sum": sum, "max": partial(max, default=0)}


class Counter(NamedTuple):
    """One engine counter: where it is incremented and how it merges."""

    name: str
    #: The level whose code increments it; every record from there up to
    #: ``top`` carries it.
    level: int
    merge: str = "sum"
    top: int = JOB
    #: Its name on the job record and in the run summary, if different.
    job_name: Optional[str] = None

    def key(self, level: int) -> str:
        """The counter's field name on a record of ``level``."""
        return (self.job_name or self.name) if level == JOB else self.name


#: Every engine counter, in run-summary order.
COUNTERS = (
    Counter("num_tasks", STAGE),  # task attempts, failed ones included
    Counter("num_failed_attempts", STAGE),  # injected faults and retries
    Counter("records_read", TASK),  # from sources, caches and checkpoints
    Counter("records_written", TASK),  # to shuffles and cached blocks
    # estimated bytes through the shuffle, write side and read side
    Counter("shuffle_bytes_written", TASK, job_name="shuffle_bytes"),
    Counter("shuffle_bytes_read", TASK, top=STAGE),
    Counter("cache_hits", TASK),  # partitions served from the block store
    Counter("batches_processed", TASK),  # depends on the batch size
    # physical plans swapped mid-job when actual shuffle sizes contradicted
    # the estimates
    Counter("adaptive_replans", JOB),
    # reduce partitions a job served from a skew split's partials, computed
    # in that job or reused
    Counter("skew_splits", JOB),
    # spill events (shuffle buckets, merge runs) under a shuffle memory cap,
    # and the serialised bytes they wrote
    Counter("spills", TASK),
    Counter("spill_bytes", TASK),
    # high-water mark of tracked shuffle residency (buckets, merge partials)
    Counter("peak_shuffle_bytes", TASK, "max"),
    # stage re-executions: executor pool crashes that resubmit a stage's
    # unfinished tasks; the scheduler adds its fetch-failure stage retries
    # to the job's count
    Counter("retries", STAGE, job_name="stage_retries"),
    Counter("recomputed_tasks", JOB),  # map tasks re-run from lineage
    Counter("lost_map_outputs", JOB),  # invalidated after a fetch failure
    Counter("timed_out_tasks", STAGE),  # abandoned at ``task_timeout_s``
    # networked-shuffle fetches retried before succeeding (plus driver-side
    # fetches the scheduler drains into the stage)
    Counter("fetch_retries", TASK),
    # straggler duplicates launched, and the ones that beat the original
    Counter("speculative_launches", STAGE),
    Counter("speculative_wins", STAGE),
    Counter("blacklisted_workers", JOB),  # by the node health tracker
    # checkpoint shuffles written (manual and automatic); one a resumed run
    # adopted whole is recovered, not written
    Counter("checkpoints_written", JOB),
    # shuffles (checkpoints are shuffles) a resumed run adopted whole from
    # the journal
    Counter("stages_recovered", JOB),
    # bytes written to the journal: the compacted file at open, then
    # every appended line
    Counter("journal_bytes", JOB),
    # journal entries and recorded spans dropped at recovery (missing
    # files, failed CRCs); each degrades to lineage recomputation
    Counter("recovery_invalid_entries", JOB),
)


#: Every counter as an attribute named after its run-summary key
#: (``COUNTER.stage_retries``), for code that names one counter.
COUNTER = SimpleNamespace(**{counter.key(JOB): counter for counter in COUNTERS})


def _fold_plan(level: int, source: int) -> List[Any]:
    """``(source field, field, merge)`` for each counter a ``level`` record
    takes in from a ``source`` record (``source == level``: every counter a
    ``level`` record carries)."""
    return [(counter.key(source), counter.key(level), MERGES[counter.merge])
            for counter in COUNTERS
            if counter.level <= source and level <= counter.top]


def _fold(target: Any, source: Any, plan: List[Any]) -> None:
    """Merge ``source``'s counters into ``target``'s along ``plan``."""
    for source_name, name, merge in plan:
        setattr(target, name,
                merge((getattr(target, name), getattr(source, source_name))))


def _with_counters(level: int, **options):
    """Class decorator: a dataclass with one ``int`` field, default 0, per
    counter a ``level`` record carries."""
    def build(cls):
        annotations = cls.__dict__.get("__annotations__", {})
        for _, name, _ in _fold_plan(level, level):
            annotations[name] = "int"
            setattr(cls, name, 0)
        cls.__annotations__ = annotations
        return dataclass(cls, **options)
    return build


_INTO_STAGE = _fold_plan(STAGE, TASK)
_INTO_JOB = _fold_plan(JOB, STAGE)
_ACROSS_JOBS = _fold_plan(JOB, JOB)


@_with_counters(TASK, eq=False)
class TaskContext:
    """Per-task mutable counters, filled in while a partition is computed.

    One field per task-level entry of :data:`COUNTERS`, starting at 0.
    """

    def note_peak(self, used_bytes: int) -> None:
        """Record one observation of the tracked shuffle residency."""
        if used_bytes > self.peak_shuffle_bytes:
            self.peak_shuffle_bytes = used_bytes

    def counters(self) -> Dict[str, int]:
        """The counters as a plain dict (what a worker process ships home)."""
        return asdict(self)


@_with_counters(TASK)
class TaskMetrics:
    """Metrics of a single task attempt (one partition of one stage)."""

    task_id: str = ""
    stage_id: int = -1
    partition_index: int = -1
    attempt: int = 0
    duration_s: float = 0.0
    failed: bool = False
    #: True when this (failed) attempt was abandoned because it overran the
    #: driver-side ``task_timeout_s`` deadline; its late result, if any, was
    #: discarded.
    timed_out: bool = False
    #: True when this attempt was a speculative duplicate of a straggler
    #: (launched after the stage crossed ``speculation_quantile``).
    speculative: bool = False

    def set_counters(self, counters: Dict[str, int]) -> None:
        """Take a finished attempt's :meth:`TaskContext.counters`."""
        for name, value in counters.items():
            setattr(self, name, value)

    def as_dict(self) -> Dict[str, Any]:
        """Return a plain dictionary view useful for reports."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@_with_counters(STAGE)
class StageMetrics:
    """Aggregated metrics of a stage (all task attempts of all partitions)."""

    stage_id: int
    name: str = ""
    is_shuffle_map: bool = False
    duration_s: float = 0.0
    wall_clock_s: float = 0.0
    tasks: List[TaskMetrics] = field(default_factory=list)

    def add_task(self, task: TaskMetrics) -> None:
        """Fold one task attempt's metrics into the stage aggregate."""
        self.tasks.append(task)
        self.num_tasks += 1
        self.num_failed_attempts += task.failed
        self.timed_out_tasks += task.timed_out
        self.duration_s += task.duration_s
        _fold(self, task, _INTO_STAGE)

    @property
    def max_task_duration_s(self) -> float:
        """Duration of the slowest successful task (straggler indicator)."""
        durations = [t.duration_s for t in self.tasks if not t.failed]
        return max(durations) if durations else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Return a plain dictionary view useful for reports."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "tasks"}


@_with_counters(JOB)
class JobMetrics:
    """Aggregated metrics of a whole job (an action on a dataset).

    Stage counters are folded in by :meth:`add_stage`, once the stage has
    settled; job-level counters are incremented on the record directly.
    """

    job_id: int
    description: str = ""
    started_at: float = field(default_factory=time.time)
    finished_at: Optional[float] = None
    stages: List[StageMetrics] = field(default_factory=list)

    def add_stage(self, stage: StageMetrics) -> None:
        """Attach a settled stage to the job and fold in its counters."""
        self.stages.append(stage)
        _fold(self, stage, _INTO_JOB)

    def finish(self) -> None:
        """Mark the job as finished now."""
        self.finished_at = time.time()

    @property
    def wall_clock_s(self) -> float:
        """Elapsed wall-clock time of the job, in seconds."""
        end = self.finished_at if self.finished_at is not None else time.time()
        return max(0.0, end - self.started_at)

    @property
    def total_task_time_s(self) -> float:
        """Sum of all task durations (the "cluster time" consumed)."""
        return sum(s.duration_s for s in self.stages)

    @property
    def num_stages(self) -> int:
        """Number of stages the job executed."""
        return len(self.stages)

    def as_dict(self) -> Dict[str, Any]:
        """Return a flat dictionary summary, the unit of run comparison:
        the job's identity, then the run summary of this one job."""
        summary = merge_job_metrics([self])
        del summary["num_jobs"]
        return {"job_id": self.job_id, "description": self.description,
                **summary}


@_with_counters(JOB)
class PendingCounters:
    """Job counters tallied where no job record is at hand.

    Journal recovery happens on the engine context, before any job; the
    scheduler folds the tally into the next job to finish.
    """

    def drain_into(self, job: JobMetrics) -> None:
        """Fold every tallied counter into ``job`` and start over at 0."""
        _fold(job, self, _ACROSS_JOBS)
        for _, name, _ in _ACROSS_JOBS:
            setattr(self, name, 0)


def _covered_s(jobs: List[JobMetrics]) -> float:
    """Length of the union of the jobs' ``[started_at, finished_at]``.

    An automatic checkpoint runs as a job nested inside the job that needs
    it; its time is counted once.
    """
    covered, reach = 0.0, float("-inf")
    for start, wall in sorted((j.started_at, j.wall_clock_s) for j in jobs):
        if start + wall > reach:
            covered += wall - max(0.0, reach - start)
            reach = start + wall
    return covered


def merge_job_metrics(jobs: Iterable[JobMetrics]) -> Dict[str, float]:
    """Merge several jobs' metrics into one summary dictionary.

    A campaign typically runs several engine jobs (one per action of each
    service); run comparison wants a single per-campaign execution profile.
    Each counter merges by its rule; the wall clock is the time during which
    at least one job was running.
    """
    jobs = list(jobs)
    summary: Dict[str, float] = {
        "num_jobs": len(jobs),
        "wall_clock_s": _covered_s(jobs),
        "total_task_time_s": sum(j.total_task_time_s for j in jobs),
        "num_stages": sum(j.num_stages for j in jobs),
    }
    for _, name, merge in _ACROSS_JOBS:
        summary[name] = merge(getattr(job, name) for job in jobs)
    return summary


class MetricsRegistry:
    """Collects the metrics of every job run by an engine context."""

    def __init__(self) -> None:
        self._jobs: List[JobMetrics] = []

    def register(self, job: JobMetrics) -> None:
        """Record a finished (or running) job."""
        self._jobs.append(job)

    @property
    def jobs(self) -> List[JobMetrics]:
        """All recorded jobs, in submission order."""
        return list(self._jobs)

    def reset(self) -> None:
        """Forget every recorded job (used between campaign executions)."""
        self._jobs.clear()

    def summary(self) -> Dict[str, float]:
        """Aggregate all recorded jobs into a single execution profile."""
        return merge_job_metrics(self._jobs)
