"""E17 — columnar batches, projection-aware scans, compressed spill frames.

Three things are measured:

* **Scan-bound projection throughput** (the favourable case).  A wide
  schema-bearing scan counted through a two-field projection.  The row path
  materialises every record as a full dict, projects it record-at-a-time and
  counts the survivors.  The columnar path (projection pushdown) folds the
  projection into the scan (only the two referenced column vectors are ever
  touched) and counts batches by their stored length, without materialising
  row dicts at all.  The pruned-columns scan is timed warm (column store
  already pivoted) and *cold* (first read of a new source, pivot of the two
  fields included).

* **Full-width scan into a UDF** (the unfavourable case).  The same scan
  mapped through an opaque per-record function and counted, with every
  rewrite that could prune it enabled.  Nothing prunes the scan, so it must
  take the row path: the guard is a count, not a timing — the run may not
  construct a single ``ColumnBatch``.

* **Spill-byte reduction.**  A spill-heavy ``group_by_key`` over repetitive
  web-log-style values under a tiny shuffle-memory cap, spilled once with
  ``spill_codec="none"`` and once with ``"zlib"``.  ``spill_bytes`` counts
  the payload bytes actually written to spill files, so the ratio is a
  measured on-disk reduction, not an estimate.

Results are asserted identical across every configuration.  Emits
``results/BENCH_E17.json`` via :func:`bench_utils.emit_json`.  The lz4
codec is used automatically when the package is importable (one CI matrix
leg installs it); the emitted table records which codec ``auto`` resolved
to on this host.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.config import EngineConfig
from repro.engine.columnar import ColumnBatch
from repro.engine.context import EngineContext
from repro.engine.memory import codec_name, resolve_codec
from repro.data.schemas import Field, Schema
from repro.data.sources import InMemorySource

from .bench_utils import emit_json, emit_table

ROWS = 60_000
PARTITIONS = 8
REPS = 3
BATCH_SIZE = 4096
#: The issue's acceptance floors.
SCAN_SPEEDUP_TARGET = 2.0
SPILL_REDUCTION_TARGET = 2.0

WIDE_SCHEMA = Schema(name="wide_events", fields=tuple(
    Field(name, "str" if name in ("url", "service") else "int")
    for name in ("ts", "ip", "user", "url", "method", "status",
                 "latency", "service")))

TIMING_KEYS = ("wall_clock_s", "total_task_time_s")


def _wide_rows():
    return [{"ts": i, "ip": i % 251, "user": i % 97,
             "url": f"/api/items?page={i % 20}", "method": i % 4,
             "status": 200 if i % 17 else 500, "latency": (i * 7) % 900,
             "service": "frontend" if i % 3 else "checkout"}
            for i in range(ROWS)]


def _scan_engine(pushdown: bool) -> EngineContext:
    rules = ("pushdown",) if pushdown else ()
    return EngineContext(EngineConfig(
        num_workers=2, default_parallelism=PARTITIONS, seed=0,
        optimizer_rules=rules, batch_size=BATCH_SIZE))


@contextmanager
def _column_batches_built():
    """Count ``ColumnBatch`` constructions while the block runs."""
    built = []
    original = ColumnBatch.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        original(self, *args, **kwargs)

    ColumnBatch.__init__ = counting
    try:
        yield built
    finally:
        ColumnBatch.__init__ = original


def _project_two(events):
    return events.project(["url", "latency"])


def _slow_request(record):
    return (record["user"], record["latency"] > 450)


def _map_udf(events):
    return events.map(_slow_request)


def _measure_scan(rows, build, pushdown: bool, cold: bool = False):
    """Best-of-REPS ``count()`` wall of ``build(scan)``.

    A first run stamps plans and pivots the requested columns; ``cold``
    re-reads a new source (empty column store) on every timed repetition,
    so the pivot is inside the timer.  Also returns how many
    ``ColumnBatch`` objects the whole measurement constructed.
    """
    with _scan_engine(pushdown) as ctx, \
            _column_batches_built() as built:
        source = InMemorySource("wide_events", rows, schema=WIDE_SCHEMA)

        def job():
            return build(ctx.from_source(source, num_partitions=PARTITIONS))

        count = job().count()
        sample = job().collect()[:5]
        walls = []
        for _ in range(REPS):
            if cold:
                source = InMemorySource("wide_events", rows,
                                        schema=WIDE_SCHEMA)
            fresh = job()
            started = time.perf_counter()
            repeat = fresh.count()
            walls.append(time.perf_counter() - started)
            assert repeat == count, "re-running the scan changed the count"
        return count, sample, min(walls), len(built)


def _measure_spill(codec: str):
    pairs = [(i % 7, f"GET /api/items?page={i % 20}&session=s{i % 10:04d}")
             for i in range(20_000)]
    with EngineContext(EngineConfig(
            num_workers=2, default_parallelism=4, seed=0,
            shuffle_memory_bytes=4096, spill_codec=codec)) as ctx:
        result = ctx.parallelize(pairs, 4).group_by_key(4).collect()
        summary = ctx.metrics.summary()
        assert summary["spills"] > 0, "workload failed to spill"
        return result, summary["spills"], summary["spill_bytes"]


def test_e17_columnar(benchmark):
    """Pruned scans >= 2x columnar; full-width scans never go columnar."""
    wide_rows = _wide_rows()

    configs = {
        "rows/full": (False, False),
        "columnar/pruned": (True, False),
        "columnar/pruned cold": (True, True),
    }
    measured = {name: _measure_scan(wide_rows, _project_two, *config)
                for name, config in configs.items()}

    base_count, base_sample, row_wall, _ = measured["rows/full"]
    for name, (count, sample, _, built) in measured.items():
        assert count == base_count, f"{name} changed the count"
        assert sample == base_sample, f"{name} changed projected records"
        assert (built > 0) == name.startswith("columnar"), \
            f"{name} constructed {built} ColumnBatch objects"

    columnar_wall = measured["columnar/pruned"][2]
    scan_speedup = row_wall / columnar_wall
    assert scan_speedup >= SCAN_SPEEDUP_TARGET, \
        (f"columnar pruned scan speedup {scan_speedup:.2f}x below the "
         f"{SCAN_SPEEDUP_TARGET}x floor")

    udf_count, _, udf_wall, built = _measure_scan(wide_rows, _map_udf, True)
    assert udf_count == base_count, "the UDF map changed the count"
    assert built == 0, \
        f"a full-width scan built {built} ColumnBatch objects"

    plain_result, plain_spills, plain_bytes = _measure_spill("none")
    packed_result, packed_spills, packed_bytes = _measure_spill("zlib")
    assert packed_result == plain_result, "compression changed spill results"
    spill_reduction = plain_bytes / packed_bytes
    assert spill_reduction >= SPILL_REDUCTION_TARGET, \
        (f"spill-byte reduction {spill_reduction:.2f}x below the "
         f"{SPILL_REDUCTION_TARGET}x floor")

    benchmark.pedantic(_measure_scan,
                       args=(wide_rows, _project_two, True),
                       rounds=1, iterations=1)

    auto_codec = codec_name(resolve_codec("auto"))
    headers = ["workload", "config", "wall ms / bytes", "vs baseline"]
    rows = [("scan+project+count", name, wall * 1000, row_wall / wall)
            for name, (_, _, wall, _) in measured.items()]
    rows += [("scan+udf map+count", "full/pushdown", udf_wall * 1000, 1.0)]
    rows += [
        ("spill-heavy groupBy", f"codec=none ({plain_spills} spills)",
         plain_bytes, 1.0),
        ("spill-heavy groupBy", f"codec=zlib ({packed_spills} spills)",
         packed_bytes, spill_reduction),
    ]
    notes = [
        f"{ROWS} rows x {len(WIDE_SCHEMA.fields)} fields projected to 2, "
        f"{PARTITIONS} partitions, batch_size={BATCH_SIZE}, best of {REPS} "
        "runs; counts and projected records asserted identical across all "
        "three configurations",
        "columnar/pruned is projection pushdown: a pruned scan of a "
        "schema-bearing source yields ColumnBatch vectors that count by "
        "stored length without materialising row dicts; 'cold' re-reads a "
        "new source each repetition, so pivoting the two requested fields "
        "is inside the timer",
        "scan+udf map+count is the unfavourable case: nothing prunes the "
        "scan, so it must take the row path — asserted as zero ColumnBatch "
        "constructions, not as a timing",
        "spill bytes are measured payload lengths on the spill files, not "
        "estimates; the reduction ratio is therefore an on-disk measurement",
        f"codec 'auto' resolves to {auto_codec} on this host (lz4 is used "
        "when importable, zlib otherwise; frames are self-describing so "
        "mixed-codec spill files always read back)",
    ]
    emit_table("E17", "columnar scans and compressed spill frames",
               headers, rows, notes=notes)
    emit_json("E17", "columnar scans and compressed spill frames",
              headers, rows, notes=notes)
