"""Metric records against digests recorded before the counter table.

Every engine counter used to be spelled out field by field in the task
context, the task/stage/job records, their ``as_dict()`` views and
``merge_job_metrics``; now each is declared once, in
``repro.engine.metrics.COUNTERS``, and the records are derived from it.
The digests below were recorded on the commit before that change.  Each
scenario runs a fixed job set and hashes every job's, stage's and task's
``as_dict()`` (tasks sorted by task id) and the context's ``summary()``,
with the timing keys dropped, so a counter that moves between records,
changes name, changes its merge rule or changes what it counts fails here.
The key order of ``summary()`` and of a job's ``as_dict()`` is pinned too.

Every scenario runs one worker, so counts that depend on scheduling order
are fixed, and ``spill_codec="none"``, so byte counts do not depend on
which compression libraries are installed.  Journal byte counts include
the path strings the journal records, so the durable scenario roots its
checkpoint directory at a temporary path of fixed length and runs under a
fixed pid.  The durable scenario's digests leave ``journal_bytes`` out;
they were recorded, that way, on the commit before the journal became
append-only, and ``JOURNAL_BYTES`` pins the journal's byte counts per job
instead.  The process-backend scenario injects crashes only into stages
of one task.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
from unittest import mock

import pytest

from repro.config import EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext

TIMING_KEYS = ("duration_s", "wall_clock_s", "total_task_time_s",
               "started_at", "finished_at")

SUMMARY_KEYS = [
    "num_jobs", "wall_clock_s", "total_task_time_s", "num_stages",
    "num_tasks", "num_failed_attempts", "records_read", "records_written",
    "shuffle_bytes", "cache_hits", "batches_processed", "adaptive_replans",
    "skew_splits", "spills", "spill_bytes",
    "peak_shuffle_bytes", "stage_retries", "recomputed_tasks",
    "lost_map_outputs", "timed_out_tasks", "fetch_retries",
    "speculative_launches", "speculative_wins", "blacklisted_workers",
    "checkpoints_written", "stages_recovered", "journal_bytes",
    "recovery_invalid_entries",
]

JOB_KEYS = ["job_id", "description"] + SUMMARY_KEYS[1:]

PAIRS = [(i % 37, i) for i in range(3000)]
SKEWED = [(0 if i % 20 < 17 else i % 7 + 1, i) for i in range(600)]
DIMENSION = [(k, f"dim-{k}") for k in range(0, 37, 3)]


def _add(a, b):
    return a + b


def _engine(**overrides) -> EngineContext:
    options = {"num_workers": 1, "default_parallelism": 4, "seed": 7,
               "batch_size": 64, "spill_codec": "none"}
    options.update(overrides)
    return EngineContext(EngineConfig(**options))


# -- the fixed job sets -------------------------------------------------------


def _narrow(ctx):
    ds = ctx.parallelize(range(3000), 4).map(lambda x: x * 3) \
        .filter(lambda x: x % 2 == 0)
    ds.count()
    ds.flat_map(lambda x: (x, -x)).collect()
    ds.cache()
    ds.count()
    ds.count()
    ds.take(5)


def _wide(ctx):
    pairs = ctx.parallelize(PAIRS, 4)
    pairs.reduce_by_key(_add, 3).collect()
    pairs.group_by_key(3).map_values(len).collect()
    pairs.sort_by(lambda kv: kv[1], False, 3).collect()
    pairs.keys().distinct(3).count()
    pairs.join(ctx.parallelize(DIMENSION, 2), 3).count()


def _broadcast(ctx):
    pairs = ctx.parallelize(PAIRS, 4)
    dimension = ctx.parallelize(DIMENSION, 2)
    pairs.join(dimension).count()
    pairs.left_outer_join(dimension).collect()
    pairs.join(dimension).count()


def _skew(ctx):
    skewed = ctx.parallelize(SKEWED, 4)
    grouped = skewed.group_by_key(4)
    grouped.collect()
    grouped.collect()
    skewed.reduce_by_key(_add, 4).collect()


def _faults(ctx):
    pairs = ctx.parallelize(PAIRS, 4)
    pairs.reduce_by_key(_add, 3).collect()
    pairs.map(lambda kv: kv[1]).count()


def _serial_faults(ctx):
    # one task per stage: an injected crash breaks the whole process pool,
    # and which of several finished attempts the driver settles before it
    # sees the break is a race, so a multi-task stage has no fixed records
    pairs = ctx.parallelize(PAIRS, 1)
    pairs.reduce_by_key(_add, 1).collect()
    pairs.map(lambda kv: kv[1]).count()
    pairs.keys().distinct(1).count()


def _pipeline(ctx):
    pairs = ctx.range(0, 240).map(lambda x: (x % 7, x))
    totals = pairs.reduce_by_key(_add)
    totals.map(lambda kv: (kv[0] % 3, kv[1])).reduce_by_key(_add).collect()


# -- scenarios: (engine overrides, job set) per context -----------------------

SCENARIOS = {
    "narrow": [({}, _narrow)],
    "shuffle": [({"broadcast_threshold_bytes": 0}, _wide)],
    "broadcast_join": [({"broadcast_threshold_bytes": 1 << 20}, _broadcast)],
    "skew_split": [({"broadcast_threshold_bytes": 0, "skew_split_factor": 4,
                     "skew_min_partition_bytes": 1}, _skew)],
    "spill": [({"broadcast_threshold_bytes": 0,
                "shuffle_memory_bytes": 2048}, _wide)],
    "faults_thread": [({"failure_rate": 0.25, "faults": {"crash": 0.15},
                        "max_task_retries": 8}, _faults)],
    "faults_process": [({"executor_backend": "process", "seed": 2,
                         "failure_rate": 0.25, "faults": {"crash": 0.15},
                         "max_task_retries": 8, "max_stage_retries": 8},
                        _serial_faults)],
    "checkpoint_resume": [
        ({"checkpoint_interval": 1}, _pipeline),
        ({"checkpoint_interval": 1, "recover": True}, _pipeline),
    ],
}

#: What each scenario must have exercised for its digests to mean anything.
FIRED = {
    "narrow": ("cache_hits",),
    "shuffle": ("shuffle_bytes",),
    "broadcast_join": ("shuffle_bytes",),
    "skew_split": ("skew_splits",),
    "spill": ("spills", "spill_bytes"),
    "faults_thread": ("num_failed_attempts",),
    "faults_process": ("num_failed_attempts", "stage_retries"),
    "checkpoint_resume": ("checkpoints_written", "stages_recovered",
                          "journal_bytes"),
}

#: Every ``jobs`` and ``summary`` digest was re-recorded when the
#: ``broadcast_reuses`` counter went (stages and tasks kept theirs), and
#: ``broadcast_join``'s whole set when a broadcast build became a one-bucket
#: shuffle: the nested ``broadcast parallelize`` job became the join job's
#: map stage (13 records, 197 bytes written), each stream task reads those
#: 197 bytes, and the two later joins reuse it.
GOLDEN = {
    "broadcast_join": [
        {"jobs": "d961087b1ab23b6d", "stages": "d984729bcb4aa6b6",
         "tasks": "f2f30c9f8aec8404", "summary": "aa36afe34a892801"},
    ],
    # recorded without journal_bytes, which JOURNAL_BYTES pins; re-recorded
    # when a checkpoint became a one-bucket shuffle (its job's stage is a
    # shuffle-map stage, and a resumed run adopts it in a job of its own)
    "checkpoint_resume": [
        {"jobs": "99db44b456c61a2e", "stages": "5b7618e1cd3c0f09",
         "tasks": "b1f77545244ca98e", "summary": "c0e240c5e54ad6ca"},
        {"jobs": "c724212c96c1e226", "stages": "9d0a40bd3047a391",
         "tasks": "f6d120726ba2da40", "summary": "96f6a5992b6afd61"},
    ],
    "faults_process": [
        {"jobs": "42fe04f8ae454065", "stages": "38c09e133896dcfe",
         "tasks": "4dfc89ca8013774e", "summary": "4cb426fef91a6976"},
    ],
    "faults_thread": [
        {"jobs": "ee184d68b78fe07f", "stages": "d2c6706caf640704",
         "tasks": "17fa49f44517c19c", "summary": "687c20adb99cdde4"},
    ],
    "narrow": [
        {"jobs": "a389b527559ebd88", "stages": "970c2aed1e175996",
         "tasks": "4e4c7230de34ea00", "summary": "d7e6e9004754cdfa"},
    ],
    "shuffle": [
        {"jobs": "74ee5a17ca9ffe4a", "stages": "f17cc94aaae99411",
         "tasks": "0ee48a9afa0ccfbd", "summary": "be38c50ebedd6263"},
    ],
    # re-recorded when a skew split became a one-bucket slice shuffle: its
    # stage is a shuffle-map stage computed once and reused by the second
    # job, the result stages read the partials' bytes, and the stored
    # partials raise every later residency mark by their 1474 bytes
    "skew_split": [
        {"jobs": "813fbe18234ce4e9", "stages": "9ef4b705293bddcc",
         "tasks": "0450113e18ee597b", "summary": "8d16156f57660680"},
    ],
    "spill": [
        {"jobs": "0967844e85e3a9af", "stages": "e521d26a204f3266",
         "tasks": "b53fe65efd0903f4", "summary": "6e719ea500c5f06e"},
    ],
}

#: Per context, the ``journal_bytes`` of each job, pinned by exact value
#: and left out of the scenario's digests.  With one rewrite of the whole
#: journal document per record, before the journal became append-only,
#: they read [6336, 13391, 4100] and [21293]; now the first context
#: appends one line per record and the resume writes only the compacted
#: file it opens with.  Before a checkpoint was a shuffle they read
#: [1834, 1485, 409] and [3728].
JOURNAL_BYTES = {
    "checkpoint_resume": [[2662, 1744, 0], [4406, 0, 0]],
}


def _strip(record):
    return {key: value for key, value in record.items()
            if key not in TIMING_KEYS}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _records(ctx):
    jobs = ctx.metrics.jobs
    stages = [stage for job in jobs for stage in job.stages]
    tasks = sorted((task for stage in stages for task in stage.tasks),
                   key=lambda task: (task.task_id, task.attempt))
    return {
        "jobs": [_strip(job.as_dict()) for job in jobs],
        "stages": [_strip(stage.as_dict()) for stage in stages],
        "tasks": [_strip(task.as_dict()) for task in tasks],
        "summary": _strip(ctx.metrics.summary()),
    }


def run_scenario(name):
    """Per context of the scenario: its records and key orders."""
    root = tempfile.mkdtemp(prefix="metrics-golden-",
                            dir="/tmp" if os.path.isdir("/tmp") else None)
    durable = any("checkpoint_interval" in overrides
                  for overrides, _ in SCENARIOS[name])
    # durable shuffle files are named after the driver's pid, and every
    # journal line that names them counts towards journal_bytes
    pid = mock.patch.object(os, "getpid", return_value=4242) if durable \
        else contextlib.nullcontext()
    results = []
    try:
        with pid:
            for overrides, job_set in SCENARIOS[name]:
                overrides = dict(overrides)
                if durable:
                    overrides["checkpoint_dir"] = root
                if overrides.pop("recover", False):
                    overrides["recover_from"] = root
                with _engine(**overrides) as ctx:
                    job_set(ctx)
                    records = _records(ctx)
                    keys = {"summary": list(ctx.metrics.summary()),
                            "job": [list(job.as_dict())
                                    for job in ctx.metrics.jobs]}
                results.append((records, keys))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return results


def _needs_closures(name):
    if SCENARIOS[name][0][0].get("executor_backend") == "process" and \
            not serializer.supports_closures():
        pytest.skip("shipping task closures to worker processes needs "
                    "cloudpickle")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_metric_records_match_recorded_digests(name):
    _needs_closures(name)
    results = run_scenario(name)
    merged = {}
    for records, keys in results:
        assert keys["summary"] == SUMMARY_KEYS
        assert all(job_keys == JOB_KEYS for job_keys in keys["job"])
        for key, value in records["summary"].items():
            merged[key] = merged.get(key, 0) + value
    for counter in FIRED[name]:
        assert merged[counter] > 0, f"{name} never exercised {counter}"
    if name in JOURNAL_BYTES:
        assert [[job.pop("journal_bytes") for job in records["jobs"]]
                for records, _ in results] == JOURNAL_BYTES[name]
        for records, _ in results:
            del records["summary"]["journal_bytes"]
    assert [{kind: _digest(value) for kind, value in records.items()}
            for records, _ in results] == GOLDEN[name]


def test_every_scenario_has_digests():
    assert sorted(GOLDEN) == sorted(SCENARIOS)
