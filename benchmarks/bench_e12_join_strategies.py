"""E12 — join strategy selection: broadcast vs shuffle vs adaptive.

A large fact table joins a small dimension table, the paper-relevant
"enrich the campaign events" shape.  Three strategies run the same joins:

* ``shuffle``      — broadcast selection disabled: both sides shuffle into a
  cogroup (the only strategy before the statistics layer existed).
* ``broadcast``    — the cost-based ``broadcast_join`` rule sees the small
  side below the threshold at *plan time*: the small side is written once
  as a one-bucket shuffle that every task of the large side reads whole,
  and the large side is never shuffled.
* ``adaptive``     — the small side is hidden behind a highly selective
  filter the static estimator prices at 50%, so planning keeps the shuffle;
  the DAG scheduler's adaptive re-optimization then observes the actual map
  output of the (cheap) mis-estimated side and switches to broadcast before
  the expensive side's shuffle runs.

Identical results are asserted across all strategies.  Besides the
plain-text table, the harness emits the machine-readable
``results/BENCH_E12.json`` shape via :func:`bench_utils.emit_json`.
"""

from __future__ import annotations

import time

from repro.config import EngineConfig
from repro.engine.context import EngineContext

from .bench_utils import emit_json, emit_table

FACT_ROWS = 40_000
DIM_ROWS = 200
PARTITIONS = 8

#: Static estimate of the filtered side is ~50% of its input (far above this
#: threshold); its actual size is ~DIM_ROWS records (far below it).
ADAPTIVE_THRESHOLD = 20_000

FACT = [(k % DIM_ROWS, f"event-payload-{k:08d}") for k in range(FACT_ROWS)]
DIM = [(k, f"dimension-{k:04d}") for k in range(DIM_ROWS)]
#: The adaptive scenario derives the dimension side by filtering a fact-sized
#: table down to ~DIM_ROWS records — the mis-estimation the runtime corrects.
DIM_HIDDEN = [(k % DIM_ROWS, k) for k in range(FACT_ROWS)]


def _engine(threshold: int, adaptive: bool) -> EngineContext:
    return EngineContext(EngineConfig(
        num_workers=4, default_parallelism=PARTITIONS, seed=0,
        broadcast_threshold_bytes=threshold, adaptive_enabled=adaptive))


def _run_static(threshold: int):
    """The plain large ⋈ small join under a given broadcast threshold."""
    with _engine(threshold, adaptive=False) as ctx:
        fact = ctx.parallelize(FACT, PARTITIONS)
        dim = ctx.parallelize(DIM, 2)
        started = time.perf_counter()
        rows = sorted(fact.join(dim).collect())
        elapsed = time.perf_counter() - started
        summary = ctx.metrics.summary()
    return rows, elapsed, summary


def _run_misestimated(adaptive: bool):
    """The mis-estimated join: the small side hides behind a 0.5% filter."""
    with _engine(ADAPTIVE_THRESHOLD, adaptive=adaptive) as ctx:
        fact = ctx.parallelize(FACT, PARTITIONS)
        dim = (ctx.parallelize(DIM_HIDDEN, PARTITIONS)
               .filter(lambda kv: kv[1] < DIM_ROWS)
               .map(lambda kv: (kv[0], f"dimension-{kv[1]:04d}")))
        started = time.perf_counter()
        rows = sorted(fact.join(dim).collect())
        elapsed = time.perf_counter() - started
        summary = ctx.metrics.summary()
    return rows, elapsed, summary


def test_e12_join_strategies(benchmark):
    """Broadcast beats shuffle by >=5x shuffle volume; adaptive recovers it."""
    shuffle_rows, shuffle_wall, shuffle_summary = _run_static(threshold=0)
    bcast_rows, bcast_wall, bcast_summary = _run_static(
        threshold=10 * 1024 * 1024)
    static_rows, static_wall, static_summary = _run_misestimated(adaptive=False)
    adaptive_rows, adaptive_wall, adaptive_summary = _run_misestimated(
        adaptive=True)

    assert bcast_rows == shuffle_rows, "broadcast changed the join result"
    assert adaptive_rows == static_rows, "adaptive changed the join result"

    benchmark.pedantic(_run_static, kwargs={"threshold": 10 * 1024 * 1024},
                       rounds=3, iterations=1)

    rows = [
        ("shuffle cogroup", shuffle_wall,
         shuffle_summary["shuffle_bytes"] / 1024.0, 2, 0),
        ("broadcast (static estimate)", bcast_wall,
         bcast_summary["shuffle_bytes"] / 1024.0, 1, 0),
        ("shuffle (mis-estimated, no adapt)", static_wall,
         static_summary["shuffle_bytes"] / 1024.0, 2, 0),
        ("adaptive (switches at runtime)", adaptive_wall,
         adaptive_summary["shuffle_bytes"] / 1024.0, 2,
         adaptive_summary["adaptive_replans"]),
    ]
    headers = ["strategy", "wall s", "shuffle KiB", "shuffle-map stages",
               "adaptive replans"]
    notes = [
        f"large({FACT_ROWS} rows) inner-join small({DIM_ROWS} rows), "
        f"{PARTITIONS} partitions, identical sorted results asserted",
        "broadcast writes the small side once (its one map stage) and never "
        "shuffles the large side; adaptive observes the actual map output of "
        "the mis-estimated side and switches strategy before the large side "
        "shuffles",
    ]
    emit_table("E12", "join strategy selection A/B", headers, rows, notes=notes)
    emit_json("E12", "join strategy selection A/B", headers, rows, notes=notes)

    # acceptance: >=5x less shuffle volume under broadcast, runtime switch
    # under adaptive re-optimization
    assert bcast_summary["shuffle_bytes"] < shuffle_summary["shuffle_bytes"] / 5
    assert adaptive_summary["adaptive_replans"] >= 1
    assert adaptive_summary["shuffle_bytes"] < static_summary["shuffle_bytes"] / 5
