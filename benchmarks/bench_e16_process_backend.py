"""E16 — process execution backend: measured (not simulated) speedups.

Every multi-worker wall-clock before this experiment was either GIL-bound
(threads cannot speed up CPU-bound Python, the E9/E14 caveat) or simulated
(the cost model extrapolating a sequential profile, E6/E14).  The process
backend removes both asterisks: tasks run in forked worker processes, map
output crosses the process boundary through pickle-framed spill-file
transport frames, and the wall-clock column below is an actual measurement
of parallel CPU-bound execution.

Measured configurations of the same CPU-bound shuffle workload (a hash-heavy
map feeding a reduce_by_key):

* ``thread x1`` — sequential baseline, the clean per-task profile.
* ``thread x4`` — the old backend's best case; under the GIL this cannot
  beat the sequential run on CPU-bound work.
* ``process x2`` — the CI smoke configuration (runners guarantee 2 cores).
* ``process x4`` — the headline: real multi-core speedup.

Results are asserted identical across every configuration, and all
non-timing job metrics of the process run must equal the thread run's — the
backend changes *where* tasks execute, never what they compute or report.

The >= 2x speedup assertion is gated on the hardware actually owning >= 4
CPU cores: on a 1-core container every backend serializes and the honest
measurement is "no speedup available", which the emitted ``cpu count``
column records.  Emits ``results/BENCH_E16.json`` via
:func:`bench_utils.emit_json`.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.config import EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext

from .bench_utils import emit_json, emit_table

if not serializer.supports_closures():  # pragma: no cover - cloudpickle ships
    pytest.skip("the process backend benchmark needs cloudpickle",
                allow_module_level=True)

ROWS = 120_000
BURN_ITERATIONS = 150
MAPS = 8
REDUCERS = 8
WORKERS = 4
SMOKE_WORKERS = 2
REPS = 3

#: Measured multi-core floor, asserted only when the host has >= 4 cores;
#: the issue's 2x target with headroom removed — fork/IPC overhead is real.
SPEEDUP_TARGET = 2.0
#: Keys that legitimately differ between backends.
TIMING_KEYS = ("wall_clock_s", "total_task_time_s")


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


def _engine(backend: str, workers: int) -> EngineContext:
    return EngineContext(EngineConfig(
        num_workers=workers, default_parallelism=MAPS, seed=0,
        executor_backend=backend))


def _job(ctx, pairs):
    return (ctx.parallelize(pairs, MAPS)
            .map(_burn)
            .reduce_by_key(_add, REDUCERS))


def _count_payload_bytes(ctx) -> list:
    """Sizes of the stage payloads ``ctx`` publishes from here on.

    The thread backend publishes none (tasks share the driver's memory).
    """
    sizes: list = []
    transport = ctx._transport
    if transport is not None:
        publish = transport.publish_stage

        def counting_publish(data):
            sizes.append(len(data))
            return publish(data)

        transport.publish_stage = counting_publish
    return sizes


def _measure(backend: str, workers: int, pairs):
    """Warm run (pool spawn + shuffle), then best-of-REPS cold shuffles.

    Returns the result, the best wall, the non-timing job metrics and the
    stage payload bytes (summed over the stages) of one cold shuffle job.
    """
    with _engine(backend, workers) as ctx:
        dataset = _job(ctx, pairs)
        result = dataset.collect()  # warm: forks the pool, stamps plans
        payload_sizes = _count_payload_bytes(ctx)
        walls = []
        for _ in range(REPS):
            fresh = _job(ctx, pairs)  # a fresh lineage re-runs the shuffle
            started = time.perf_counter()
            repeat = fresh.collect()
            walls.append(time.perf_counter() - started)
            assert repeat == result, "re-running the workload changed results"
        summary = ctx.metrics.summary()
        comparable = {key: value for key, value in summary.items()
                      if key not in TIMING_KEYS}
        return result, min(walls), comparable, sum(payload_sizes) // REPS


def test_e16_process_backend(benchmark):
    """Process workers: identical results/metrics, measured wall-clock."""
    pairs = _pairs()
    cpu_count = os.cpu_count() or 1

    configs = (("thread", 1), ("thread", WORKERS),
               ("process", SMOKE_WORKERS), ("process", WORKERS))
    measured = {}
    for backend, workers in configs:
        measured[(backend, workers)] = _measure(backend, workers, pairs)

    baseline_result, thread_wall, thread_metrics, _ = \
        measured[("thread", WORKERS)]
    for (backend, workers), (result, _, metrics, _) in measured.items():
        assert result == baseline_result, \
            f"{backend} x{workers} changed the result"
        assert metrics == thread_metrics, \
            f"{backend} x{workers} changed non-timing job metrics"

    benchmark.pedantic(_measure, args=("process", SMOKE_WORKERS, pairs),
                       rounds=1, iterations=1)

    process_wall = measured[("process", WORKERS)][1]
    speedup = thread_wall / process_wall
    headers = ["backend", "workers", "wall ms", "speedup vs thread x4",
               "stage_payload_bytes", "cpu count"]
    rows = [(backend, workers, wall * 1000, thread_wall / wall,
             payload_bytes, cpu_count)
            for (backend, workers), (_, wall, _, payload_bytes)
            in measured.items()]
    notes = [
        f"{ROWS} rows, {MAPS} map / {REDUCERS} reduce partitions, "
        f"{BURN_ITERATIONS} LCG iterations per record, best of {REPS} warm "
        "runs after a pool-spawning warm-up; identical results and identical "
        "non-timing metrics asserted across every configuration",
        "thread x4 cannot beat thread x1 on CPU-bound Python (GIL); the "
        "process rows are the first *measured* parallel wall-clocks in this "
        "repo — everything earlier was simulated from sequential profiles",
        "stage_payload_bytes: serialized stage payloads of one job, summed "
        "over its two stages — the task graphs cut to what each stage reads; "
        "the parallelised input rides once per dataset as frame spans, not "
        "inside every payload (the thread backend publishes nothing)",
        f"speedup assertions are hardware-gated: this run saw "
        f"{cpu_count} CPU core(s); the >= {SPEEDUP_TARGET}x process-x4 "
        "floor is only asserted when >= 4 cores are available",
    ]
    emit_table("E16", "process execution backend (measured speedup)",
               headers, rows, notes=notes)
    emit_json("E16", "process execution backend (measured speedup)",
              headers, rows, notes=notes)

    if cpu_count >= 4:
        assert speedup >= SPEEDUP_TARGET, \
            (f"process x{WORKERS} speedup {speedup:.2f}x below "
             f"{SPEEDUP_TARGET}x on a {cpu_count}-core host")
    elif cpu_count >= 2:
        smoke_wall = measured[("process", SMOKE_WORKERS)][1]
        assert thread_wall / smoke_wall >= 1.2, \
            (f"process x{SMOKE_WORKERS} should beat the GIL-bound thread "
             f"pool on a {cpu_count}-core host")
    else:
        # single core: no parallelism to win; just bound the overhead
        assert process_wall <= thread_wall * 3.0, \
            (f"process backend overhead {process_wall / thread_wall:.2f}x "
             "on a single-core host exceeds the documented bound")
