"""Execution metrics collected by the dataflow engine.

Metrics are the raw material of the TOREADOR Labs "compare different runs"
feature: every task reports what it did, stages aggregate tasks, and jobs
aggregate stages.  The campaign layer then attaches job metrics to indicator
values so that alternative design options can be contrasted quantitatively.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


@dataclass
class TaskMetrics:
    """Metrics of a single task (one partition of one stage)."""

    task_id: str = ""
    stage_id: int = -1
    partition_index: int = -1
    attempt: int = 0
    duration_s: float = 0.0
    records_read: int = 0
    records_written: int = 0
    shuffle_bytes_written: int = 0
    shuffle_bytes_read: int = 0
    cache_hits: int = 0
    #: Batches the task drained; record/byte counts do not depend on the
    #: batch size, this count does.
    batches_processed: int = 0
    #: Spill events this task triggered under memory-bounded execution
    #: (shuffle buckets or reduce-side merge runs written to disk) and the
    #: serialised bytes they moved; 0 under the unbounded default.
    spills: int = 0
    spill_bytes: int = 0
    #: High-water mark of tracked shuffle residency (resident buckets plus
    #: merge partials, estimated bytes) observed while the task ran.
    peak_shuffle_bytes: int = 0
    #: Networked-shuffle fetches this task retried (socket failures,
    #: dropped responses, wire-corrupt frames) before succeeding; 0 on the
    #: local transport.
    fetch_retries: int = 0
    failed: bool = False
    #: True when this (failed) attempt was abandoned because it overran the
    #: driver-side ``task_timeout_s`` deadline; its late result, if any, was
    #: discarded.
    timed_out: bool = False
    #: True when this attempt was a speculative duplicate of a straggler
    #: (launched after the stage crossed ``speculation_quantile``).
    speculative: bool = False

    def as_dict(self) -> Dict[str, float]:
        """Return a plain dictionary view useful for reports."""
        return {
            "task_id": self.task_id,
            "stage_id": self.stage_id,
            "partition_index": self.partition_index,
            "attempt": self.attempt,
            "duration_s": self.duration_s,
            "records_read": self.records_read,
            "records_written": self.records_written,
            "shuffle_bytes_written": self.shuffle_bytes_written,
            "shuffle_bytes_read": self.shuffle_bytes_read,
            "cache_hits": self.cache_hits,
            "batches_processed": self.batches_processed,
            "spills": self.spills,
            "spill_bytes": self.spill_bytes,
            "peak_shuffle_bytes": self.peak_shuffle_bytes,
            "fetch_retries": self.fetch_retries,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "speculative": self.speculative,
        }


@dataclass
class StageMetrics:
    """Aggregated metrics of a stage (all tasks over all partitions)."""

    stage_id: int
    name: str = ""
    is_shuffle_map: bool = False
    num_tasks: int = 0
    num_failed_attempts: int = 0
    duration_s: float = 0.0
    wall_clock_s: float = 0.0
    records_read: int = 0
    records_written: int = 0
    shuffle_bytes_written: int = 0
    shuffle_bytes_read: int = 0
    cache_hits: int = 0
    batches_processed: int = 0
    spills: int = 0
    spill_bytes: int = 0
    #: Maximum tracked shuffle residency any task of the stage observed
    #: (a high-water mark, so stages aggregate by max, not by sum).
    peak_shuffle_bytes: int = 0
    #: Task attempts abandoned at the ``task_timeout_s`` deadline (each is
    #: also counted as a failed attempt).
    timed_out_tasks: int = 0
    #: Whole-stage re-executions: executor-level pool crashes that forced a
    #: resubmission of the stage's unfinished tasks.
    retries: int = 0
    #: Networked-shuffle fetch retries across the stage's tasks (plus
    #: driver-side fetches drained into the stage by the scheduler).
    fetch_retries: int = 0
    #: Speculative duplicates launched for stragglers of this stage, and
    #: the ones that finished before the original attempt (first-result
    #: wins; the loser's output is discarded).
    speculative_launches: int = 0
    speculative_wins: int = 0
    tasks: List[TaskMetrics] = field(default_factory=list)

    def add_task(self, task: TaskMetrics) -> None:
        """Fold one task's metrics into the stage aggregate."""
        self.tasks.append(task)
        self.num_tasks += 1
        if task.failed:
            self.num_failed_attempts += 1
        if task.timed_out:
            self.timed_out_tasks += 1
        self.duration_s += task.duration_s
        self.records_read += task.records_read
        self.records_written += task.records_written
        self.shuffle_bytes_written += task.shuffle_bytes_written
        self.shuffle_bytes_read += task.shuffle_bytes_read
        self.cache_hits += task.cache_hits
        self.batches_processed += task.batches_processed
        self.spills += task.spills
        self.spill_bytes += task.spill_bytes
        self.fetch_retries += task.fetch_retries
        if task.peak_shuffle_bytes > self.peak_shuffle_bytes:
            self.peak_shuffle_bytes = task.peak_shuffle_bytes

    @property
    def max_task_duration_s(self) -> float:
        """Duration of the slowest successful task (straggler indicator)."""
        durations = [t.duration_s for t in self.tasks if not t.failed]
        return max(durations) if durations else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Return a plain dictionary view useful for reports."""
        return {
            "stage_id": self.stage_id,
            "name": self.name,
            "is_shuffle_map": self.is_shuffle_map,
            "num_tasks": self.num_tasks,
            "num_failed_attempts": self.num_failed_attempts,
            "duration_s": self.duration_s,
            "wall_clock_s": self.wall_clock_s,
            "records_read": self.records_read,
            "records_written": self.records_written,
            "shuffle_bytes_written": self.shuffle_bytes_written,
            "shuffle_bytes_read": self.shuffle_bytes_read,
            "cache_hits": self.cache_hits,
            "batches_processed": self.batches_processed,
            "spills": self.spills,
            "spill_bytes": self.spill_bytes,
            "peak_shuffle_bytes": self.peak_shuffle_bytes,
            "timed_out_tasks": self.timed_out_tasks,
            "retries": self.retries,
            "fetch_retries": self.fetch_retries,
            "speculative_launches": self.speculative_launches,
            "speculative_wins": self.speculative_wins,
        }


@dataclass
class JobMetrics:
    """Aggregated metrics of a whole job (an action on a dataset)."""

    job_id: int
    description: str = ""
    started_at: float = field(default_factory=time.time)
    finished_at: Optional[float] = None
    stages: List[StageMetrics] = field(default_factory=list)
    #: Times the adaptive optimizer swapped the physical plan mid-job after
    #: actual shuffle map-output sizes contradicted the static estimates.
    adaptive_replans: int = 0
    #: Skewed reduce partitions this job served as parallel sub-partition
    #: reads (the ``split_skewed_shuffle`` rule's runtime effect).
    skew_splits: int = 0
    #: Broadcast build sides served from the context-wide build cache
    #: instead of being re-collected by a nested job.
    broadcast_reuses: int = 0
    #: Stage re-executions of any kind: executor pool crashes that resubmit
    #: a stage's unfinished tasks, plus scheduler-level stage retries after
    #: a fetch failure triggered lineage recomputation.
    stage_retries: int = 0
    #: Map tasks re-run from lineage to restore lost shuffle output.
    recomputed_tasks: int = 0
    #: Map outputs invalidated after a reduce-side fetch failure (missing
    #: or corrupt shuffle spans).
    lost_map_outputs: int = 0
    #: Workers the :class:`~repro.engine.scheduler.NodeHealthTracker`
    #: blacklisted during this job (missed heartbeats or repeated
    #: fetch/task failures); their map outputs were proactively recomputed.
    blacklisted_workers: int = 0
    #: Datasets whose partitions this job materialised to durable
    #: checkpoint files (manual ``Dataset.checkpoint()`` calls and
    #: automatic ``checkpoint_interval`` checkpoints alike).
    checkpoints_written: int = 0
    #: Stages this job skipped because the journal restored their output:
    #: shuffles re-registered from recorded (CRC-revalidated) span
    #: catalogs, plus checkpoints adopted from a previous run's files.
    stages_recovered: int = 0
    #: Bytes written to the write-ahead job journal on behalf of this job
    #: (each update rewrites the journal atomically, so this is the sum of
    #: the rewritten document sizes).
    journal_bytes: int = 0
    #: Journal or checkpoint entries dropped during recovery because their
    #: spans or files were missing or failed CRC revalidation; each dropped
    #: entry degrades to ordinary lineage recomputation.
    recovery_invalid_entries: int = 0

    def add_stage(self, stage: StageMetrics) -> None:
        """Attach a completed stage to the job."""
        self.stages.append(stage)
        self.stage_retries += stage.retries

    def finish(self) -> None:
        """Mark the job as finished now."""
        self.finished_at = time.time()

    # -- aggregate views ----------------------------------------------------

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

    @property
    def num_tasks(self) -> int:
        """Total number of tasks across all stages."""
        return sum(s.num_tasks for s in self.stages)

    @property
    def num_failed_attempts(self) -> int:
        """Total number of failed task attempts (fault injection / retries)."""
        return sum(s.num_failed_attempts for s in self.stages)

    @property
    def records_read(self) -> int:
        """Total number of records read from sources and caches."""
        return sum(s.records_read for s in self.stages)

    @property
    def records_written(self) -> int:
        """Total number of records produced by result and shuffle tasks."""
        return sum(s.records_written for s in self.stages)

    @property
    def shuffle_bytes(self) -> int:
        """Total bytes moved through the shuffle (written side)."""
        return sum(s.shuffle_bytes_written for s in self.stages)

    @property
    def cache_hits(self) -> int:
        """Number of partitions served from the cache."""
        return sum(s.cache_hits for s in self.stages)

    @property
    def batches_processed(self) -> int:
        """Batches drained by the job's tasks."""
        return sum(s.batches_processed for s in self.stages)

    @property
    def spills(self) -> int:
        """Spill events (buckets + merge runs) under memory-bounded execution."""
        return sum(s.spills for s in self.stages)

    @property
    def spill_bytes(self) -> int:
        """Serialised bytes moved to spill files by this job's tasks."""
        return sum(s.spill_bytes for s in self.stages)

    @property
    def peak_shuffle_bytes(self) -> int:
        """Highest tracked shuffle residency observed across the job's stages."""
        return max((s.peak_shuffle_bytes for s in self.stages), default=0)

    @property
    def timed_out_tasks(self) -> int:
        """Task attempts abandoned at the ``task_timeout_s`` deadline."""
        return sum(s.timed_out_tasks for s in self.stages)

    @property
    def fetch_retries(self) -> int:
        """Networked-shuffle fetches retried before succeeding."""
        return sum(s.fetch_retries for s in self.stages)

    @property
    def speculative_launches(self) -> int:
        """Speculative straggler duplicates launched across all stages."""
        return sum(s.speculative_launches for s in self.stages)

    @property
    def speculative_wins(self) -> int:
        """Speculative duplicates that beat the original attempt."""
        return sum(s.speculative_wins for s in self.stages)

    def as_dict(self) -> Dict[str, float]:
        """Return a flat dictionary summary, the unit of run comparison."""
        return {
            "job_id": self.job_id,
            "description": self.description,
            "wall_clock_s": self.wall_clock_s,
            "total_task_time_s": self.total_task_time_s,
            "num_stages": self.num_stages,
            "num_tasks": self.num_tasks,
            "num_failed_attempts": self.num_failed_attempts,
            "records_read": self.records_read,
            "records_written": self.records_written,
            "shuffle_bytes": self.shuffle_bytes,
            "cache_hits": self.cache_hits,
            "batches_processed": self.batches_processed,
            "adaptive_replans": self.adaptive_replans,
            "skew_splits": self.skew_splits,
            "broadcast_reuses": self.broadcast_reuses,
            "spills": self.spills,
            "spill_bytes": self.spill_bytes,
            "peak_shuffle_bytes": self.peak_shuffle_bytes,
            "stage_retries": self.stage_retries,
            "recomputed_tasks": self.recomputed_tasks,
            "lost_map_outputs": self.lost_map_outputs,
            "timed_out_tasks": self.timed_out_tasks,
            "fetch_retries": self.fetch_retries,
            "speculative_launches": self.speculative_launches,
            "speculative_wins": self.speculative_wins,
            "blacklisted_workers": self.blacklisted_workers,
            "checkpoints_written": self.checkpoints_written,
            "stages_recovered": self.stages_recovered,
            "journal_bytes": self.journal_bytes,
            "recovery_invalid_entries": self.recovery_invalid_entries,
        }


def merge_job_metrics(jobs: Iterable[JobMetrics]) -> Dict[str, float]:
    """Merge several jobs' metrics into one summary dictionary.

    A campaign typically runs several engine jobs (one per action of each
    service); run comparison wants a single per-campaign execution profile.
    """
    jobs = list(jobs)
    summary: Dict[str, float] = {
        "num_jobs": len(jobs),
        "wall_clock_s": sum(j.wall_clock_s for j in jobs),
        "total_task_time_s": sum(j.total_task_time_s for j in jobs),
        "num_stages": sum(j.num_stages for j in jobs),
        "num_tasks": sum(j.num_tasks for j in jobs),
        "num_failed_attempts": sum(j.num_failed_attempts for j in jobs),
        "records_read": sum(j.records_read for j in jobs),
        "records_written": sum(j.records_written for j in jobs),
        "shuffle_bytes": sum(j.shuffle_bytes for j in jobs),
        "cache_hits": sum(j.cache_hits for j in jobs),
        "batches_processed": sum(j.batches_processed for j in jobs),
        "adaptive_replans": sum(j.adaptive_replans for j in jobs),
        "skew_splits": sum(j.skew_splits for j in jobs),
        "broadcast_reuses": sum(j.broadcast_reuses for j in jobs),
        "spills": sum(j.spills for j in jobs),
        "spill_bytes": sum(j.spill_bytes for j in jobs),
        "peak_shuffle_bytes": max((j.peak_shuffle_bytes for j in jobs),
                                  default=0),
        "stage_retries": sum(j.stage_retries for j in jobs),
        "recomputed_tasks": sum(j.recomputed_tasks for j in jobs),
        "lost_map_outputs": sum(j.lost_map_outputs for j in jobs),
        "timed_out_tasks": sum(j.timed_out_tasks for j in jobs),
        "fetch_retries": sum(j.fetch_retries for j in jobs),
        "speculative_launches": sum(j.speculative_launches for j in jobs),
        "speculative_wins": sum(j.speculative_wins for j in jobs),
        "blacklisted_workers": sum(j.blacklisted_workers for j in jobs),
        "checkpoints_written": sum(j.checkpoints_written for j in jobs),
        "stages_recovered": sum(j.stages_recovered for j in jobs),
        "journal_bytes": sum(j.journal_bytes for j in jobs),
        "recovery_invalid_entries": sum(j.recovery_invalid_entries
                                        for j in jobs),
    }
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
