"""E15 — memory-bounded execution: spill-to-disk shuffle + external merge.

The resident engine's largest workload is bounded by RAM: every map-output
bucket and every reduce-side intermediate lives in Python lists.  With
``shuffle_memory_bytes`` capped, the shuffle manager spills cold buckets to
per-context spill files and the wide operators fold bounded in-memory runs,
spill them, and stream a k-way merge — opening the out-of-core workload
class while returning byte-identical results.

Measured per workload, capped (cap = uncapped peak / 4) vs uncapped:

* ``peak`` — the high-water mark of tracked shuffle residency (resident
  bucket estimates + merge partials) from the engine's ``MemoryManager``.
  The capped run must stay within ~1.5x the cap: the budget plus one
  in-flight map output plus the bounded merge partials.
* ``wall`` — local wall-clock; the capped run pays serialisation + disk
  I/O, the honest cost of out-of-core execution.  The uncapped numbers are
  the no-regression guard for the default (0 = unbounded) configuration,
  which takes none of the new code paths.
* ``spills`` / ``spill MB`` — how much actually moved to disk.

Emits ``results/BENCH_E15.json`` via :func:`bench_utils.emit_json`.
"""

from __future__ import annotations

import time

from repro.config import EngineConfig
from repro.engine.context import EngineContext

from .bench_utils import emit_json, emit_table

ROWS = 200_000
MAPS = 16
WORKERS = 4

#: Capped-run residency must stay within this multiple of the cap: budget +
#: one in-flight map output + bounded merge partials (measured ~1.3x; the
#: headroom covers byte-estimate and scheduling jitter).
PEAK_RATIO_LIMIT = 1.5
#: The capped run must cut tracked residency by at least this factor
#: relative to the uncapped run.
MIN_RESIDENCY_CUT = 2.0


def _engine(cap: int) -> EngineContext:
    return EngineContext(EngineConfig(
        num_workers=WORKERS, default_parallelism=MAPS, seed=0,
        shuffle_memory_bytes=cap))


def _pairs():
    return [(i % 997, f"value-{i % 53:04d}") for i in range(ROWS)]


WORKLOADS = (
    ("groupBy", lambda ctx, pairs:
        ctx.parallelize(pairs, MAPS).group_by_key(MAPS).map_values(len)),
    ("aggregate", lambda ctx, pairs:
        ctx.parallelize(pairs, MAPS).reduce_by_key(
            lambda a, b: a if a >= b else b, MAPS)),
    ("sort", lambda ctx, pairs:
        ctx.parallelize(pairs, MAPS).sort_by(lambda pair: pair[0], True, MAPS)),
    ("distinct", lambda ctx, pairs:
        ctx.parallelize(pairs, MAPS).distinct(MAPS)),
)


def _measure(build, pairs, cap: int):
    """Run one workload under ``cap``; return result + residency profile."""
    with _engine(cap) as ctx:
        ctx.memory_manager.reset_peak()
        dataset = build(ctx, pairs)
        started = time.perf_counter()
        result = dataset.collect()
        wall = time.perf_counter() - started
        job = ctx.metrics.jobs[-1]
        return {
            "result": result,
            "wall": wall,
            "peak": ctx.memory_manager.peak_bytes,
            "job_peak": job.peak_shuffle_bytes,
            "spills": job.spills,
            "spill_bytes": job.spill_bytes,
        }


def test_e15_memory_bounded(benchmark):
    """Capped runs: identical results, bounded residency, real spilling."""
    pairs = _pairs()
    rows = []
    checks = {}
    for name, build in WORKLOADS:
        uncapped = _measure(build, pairs, cap=0)
        cap = max(1, uncapped["peak"] // 4)
        capped = _measure(build, pairs, cap=cap)
        assert capped["result"] == uncapped["result"], \
            f"{name}: capped results diverged from the resident run"
        peak_ratio = capped["peak"] / cap
        residency_cut = uncapped["peak"] / max(1, capped["peak"])
        checks[name] = (uncapped, capped, cap, peak_ratio, residency_cut)
        rows.append((name,
                     uncapped["peak"] / 1024, cap / 1024,
                     capped["peak"] / 1024, peak_ratio, residency_cut,
                     uncapped["wall"] * 1000, capped["wall"] * 1000,
                     capped["spills"], capped["spill_bytes"] / (1024 * 1024)))

    benchmark.pedantic(
        _measure, args=(WORKLOADS[0][1], pairs,
                        max(1, checks["groupBy"][0]["peak"] // 4)),
        rounds=3, iterations=1)

    headers = ["workload", "uncapped peak KiB", "cap KiB", "capped peak KiB",
               "peak / cap", "residency cut", "wall uncapped ms",
               "wall capped ms", "spills", "spill MiB"]
    notes = [
        f"{ROWS} rows, {MAPS} partitions, num_workers={WORKERS}; cap = "
        "uncapped peak / 4, identical results asserted per workload",
        "peak is the MemoryManager's high-water mark over resident bucket "
        "estimates + reduce-side merge partials; the capped run may "
        "overshoot the cap by one in-flight map output and the bounded "
        "merge partials, hence the ~1.5x bound",
        "the capped wall pays pickle + disk I/O for every spilled bucket "
        "and merge run — the price of the out-of-core workload class; the "
        "default configuration (shuffle_memory_bytes=0) takes none of these "
        "code paths (bench_e14 is its no-regression guard)",
    ]
    emit_table("E15", "memory-bounded execution (spill-to-disk shuffle)",
               headers, rows, notes=notes)
    emit_json("E15", "memory-bounded execution (spill-to-disk shuffle)",
              headers, rows, notes=notes)

    for name, (uncapped, capped, cap, peak_ratio, residency_cut) in \
            checks.items():
        assert capped["spills"] > 0, f"{name}: the cap never spilled"
        assert uncapped["spills"] == 0, f"{name}: the uncapped run spilled"
        assert peak_ratio <= PEAK_RATIO_LIMIT, \
            f"{name}: capped residency {peak_ratio:.2f}x over the cap"
        assert residency_cut >= MIN_RESIDENCY_CUT, \
            f"{name}: residency only cut {residency_cut:.2f}x"
        assert capped["job_peak"] > 0
