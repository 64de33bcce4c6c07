"""E18 — fault recovery: what surviving failures costs.

PR 8 made the engine recover from hard worker deaths (pool respawn),
damaged shuffle frames (CRC detection + lineage recomputation of exactly
the lost map partitions) and wedged tasks (driver-side deadlines).  This
experiment prices that machinery: the same CPU-bound shuffle workload runs
clean and with each fault class injected at a seeded, deterministic rate,
and the table reports the wall-clock overhead of recovering versus the
fault-free run.

Assertions are hardware-independent: every faulted configuration must
return *identical* results to the clean run, and its recovery counters
(`num_failed_attempts`, `stage_retries`, `lost_map_outputs`,
`recomputed_tasks`) must show the faults actually fired and were healed —
a benchmark that silently ran fault-free would be measuring nothing.
Wall-clock ratios are recorded, never asserted (crash recovery forks a
fresh pool; the cost is real and host-dependent).

Emits ``results/BENCH_E18.json`` via :func:`bench_utils.emit_json`.
"""

from __future__ import annotations

import time

import pytest

from repro.config import EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext

from .bench_utils import emit_json, emit_table

if not serializer.supports_closures():  # pragma: no cover - cloudpickle ships
    pytest.skip("the fault-recovery benchmark needs cloudpickle for the "
                "process backend", allow_module_level=True)

ROWS = 40_000
BURN_ITERATIONS = 40
MAPS = 8
REDUCERS = 4
WORKERS = 2
REPS = 3
SEED = 15

#: (label, config overrides, counters that must be non-zero).
CONFIGS = (
    ("clean", {}, ()),
    ("task failures", {"failure_rate": 0.10, "max_task_retries": 8},
     ("num_failed_attempts",)),
    ("worker crashes", {"faults": {"crash": 0.10}, "max_stage_retries": 8},
     ("stage_retries",)),
    ("frame corruption", {"faults": {"corrupt": 0.10}, "max_stage_retries": 8},
     ("lost_map_outputs", "recomputed_tasks")),
)

RECOVERY_KEYS = ("num_failed_attempts", "stage_retries",
                 "lost_map_outputs", "recomputed_tasks")


def _burn(pair):
    key, value = pair
    acc = value
    for _ in range(BURN_ITERATIONS):
        acc = (acc * 1_103_515_245 + 12_345) % 2_147_483_647
    return key, acc


def _add(a, b):
    return a + b


def _pairs():
    return [(i % 64, i) for i in range(ROWS)]


def _measure(overrides, pairs):
    """Median wall-clock of REPS fresh contexts (pool spawn included).

    Each repetition builds a fresh context so the injected fault schedule —
    a pure function of ``(seed, task_id, attempt)`` — replays identically;
    recovery work is part of the measured wall-clock, exactly as a user
    would experience it.
    """
    walls, results, summaries = [], [], []
    for _ in range(REPS):
        config = EngineConfig(num_workers=WORKERS, default_parallelism=MAPS,
                              seed=SEED, executor_backend="process",
                              **overrides)
        started = time.perf_counter()
        with EngineContext(config) as ctx:
            result = (ctx.parallelize(pairs, MAPS)
                      .map(_burn)
                      .reduce_by_key(_add, REDUCERS)
                      .collect())
            summaries.append(ctx.metrics.summary())
        walls.append(time.perf_counter() - started)
        results.append(result)
    assert all(result == results[0] for result in results), \
        "the seeded fault schedule must replay identically"
    return results[0], sorted(walls)[len(walls) // 2], summaries[0]


def test_e18_fault_recovery(benchmark):
    """Injected faults: identical results, visible recovery, priced overhead."""
    pairs = _pairs()

    measured = {}
    for label, overrides, required in CONFIGS:
        measured[label] = _measure(overrides, pairs)

    clean_result, clean_wall, clean_summary = measured["clean"]
    for key in RECOVERY_KEYS:
        assert clean_summary[key] == 0, \
            f"the fault-free run must not report recovery work ({key})"

    for label, overrides, required in CONFIGS[1:]:
        result, _, summary = measured[label]
        assert result == clean_result, \
            f"recovery under '{label}' changed the results"
        for key in required:
            assert summary[key] > 0, \
                (f"'{label}' injected no faults ({key} == 0) — "
                 "the configuration measures nothing; raise the rate or "
                 "change the seed")

    benchmark.pedantic(_measure, args=({}, pairs), rounds=1, iterations=1)

    headers = ["configuration", "wall ms", "overhead vs clean",
               "failed attempts", "stage retries", "lost map outputs",
               "recomputed tasks"]
    rows = [(label, wall * 1000, wall / clean_wall,
             summary["num_failed_attempts"], summary["stage_retries"],
             summary["lost_map_outputs"], summary["recomputed_tasks"])
            for label, (result, wall, summary) in measured.items()]
    notes = [
        f"{ROWS} rows, {MAPS} map / {REDUCERS} reduce partitions, "
        f"{WORKERS} process workers, seed {SEED}; median of {REPS} fresh "
        "contexts per configuration, pool spawn and recovery included",
        "every faulted configuration returned results identical to the "
        "clean run (asserted) and reported non-zero recovery counters "
        "(asserted); overhead ratios are recorded, not asserted — crash "
        "recovery forks a fresh worker pool and its cost is host-dependent",
        "fault injection is a pure function of (seed, task_id, attempt): "
        "the same schedule replays on every repetition and every host",
    ]
    emit_table("E18", "fault recovery overhead (injected faults)",
               headers, rows, notes=notes)
    emit_json("E18", "fault recovery overhead (injected faults)",
              headers, rows, notes=notes)
