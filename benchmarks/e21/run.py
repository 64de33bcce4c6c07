"""Measure one workload in this process and print one JSON result line.

    python3 benchmarks/e21/run.py --workload NAME --seed N --seconds S --trace 0|1

This is the command ``BENCHMARK.json`` names.  With ``--trace 0`` the last
line of standard output carries the end-to-end metrics; with ``--trace 1``
untraced and traced repetitions alternate and the line carries the per-layer
metrics.  ``python -m benchmarks.e21`` runs this file
once per workload, each in a fresh process, so ``peak_rss_mb`` is the
workload's own.

The program under test is imported from ``src/`` of the checkout this file
lives in; every temporary file (engine spill directories, the durable
workload's journal) goes under ``.e21_tmp/`` of that checkout and is
removed before exit.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TMP_PARENT = os.path.join(ROOT, ".e21_tmp")

#: Set-up runs this many times; ``setup_s`` reports the median.
SETUP_ROUNDS = 3
#: Loop steps of one yardstick slice (~0.27 s on the reference host), and the
#: share of each repetition's wall-clock spent on slices after it.
YARDSTICK_STEPS = 1_000_000
YARDSTICK_SHARE = 0.1


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long each run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repetitions", type=int, default=0,
                        help="measure exactly this many repetitions instead "
                             "of filling --seconds")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the full workload")
    parser.add_argument("--out", default="",
                        help="also write the detailed result (quartiles, "
                             "fingerprint, spans of a traced run) here")
    parser.add_argument("--record-expected", action="store_true",
                        help="labs_scout: rewrite expected/labs_scout.json from "
                             "this run's indicator values")
    return parser.parse_args(argv)


def _cpu_seconds() -> float:
    """User+system CPU of this process and of every child reaped so far."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, third


def _summary(values: List[float], unit: str) -> Dict[str, Any]:
    first, third = _quartiles(values)
    return {"value": statistics.median(values), "unit": unit,
            "q1": first, "q3": third, "n": len(values), "samples": values}


def _yardstick(steps: int) -> float:
    """Wall-clock of a fixed pure-Python computation: the host's speed now.

    Integer arithmetic plus dict, tuple and list churn — the instruction mix
    of the driver-side code and of the engine's kernels — over about 2 MB, so
    it never sets a workload's peak memory.  The host this runs on slows by
    up to 40% for minutes at a time; dividing a repetition by the slices
    around it cancels most of that.
    """
    started = time.perf_counter()
    accumulator, table, batch = 0, {}, []
    for index in range(steps):
        accumulator = (accumulator * 31 + index) % 1_000_003
        table[index & 8191] = (accumulator, index)
        if not index & 7:
            batch.append({"a": accumulator, "b": index})
            if len(batch) > 4_000:
                batch = []
    return time.perf_counter() - started


def fingerprint() -> Dict[str, Any]:
    """What must match before two results may be compared, plus context."""
    from repro.engine import memory, serializer
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(),
            "python": ".".join(map(str, sys.version_info[:3])),
            "serializer": serializer.backend_name(),
            "codec": memory.codec_name(memory.resolve_codec("auto")),
            "commit": commit, "loadavg_1m": os.getloadavg()[0]}


def _measure(workload: Any, state: Any, probe: Any, seconds: float,
             min_repetitions: int, fixed: int, yardstick_steps: int,
             tracer: Any = None) -> List[Tuple[float, float, float]]:
    """Closed loop, one client: repetitions back to back until time is up.

    Returns ``(wall, cpu, yardstick)`` per untraced repetition; the yardstick
    is the median of the slices run just before and just after it.  With a
    tracer every untraced repetition is followed by a traced one, so both
    passes see the same cache and memory state and their difference is the
    tracing overhead, not the order they ran in.
    """
    def repetition(traced: bool) -> Tuple[float, float]:
        cpu_before = _cpu_seconds()
        wall_before = time.perf_counter()
        if traced:
            with tracer.span("repetition"):
                workload.repetition(state, probe)
        else:
            workload.repetition(state, probe)
        return time.perf_counter() - wall_before, _cpu_seconds() - cpu_before

    samples: List[Tuple[float, float, float]] = []
    before = [_yardstick(yardstick_steps)]
    started = time.perf_counter()
    while True:
        done = len(samples)
        if fixed:
            if done >= fixed:
                break
        else:
            # stop when one more round, at the mean cost so far, would overrun
            elapsed = time.perf_counter() - started
            if done >= min_repetitions and elapsed * (1 + 1 / done) > seconds:
                break
        wall, cpu = repetition(False)
        after = [_yardstick(yardstick_steps)]
        for _ in range(round(YARDSTICK_SHARE * wall / after[0]) - 1):
            after.append(_yardstick(yardstick_steps))
        samples.append((wall, cpu, statistics.median(before + after)))
        before = after
        if tracer is not None:
            tracer.repetition = done
            probe.tracer = tracer
            tracer.install()
            try:
                repetition(True)
            finally:
                tracer.uninstall()
                probe.tracer = None
    return samples


def run(args: argparse.Namespace) -> Dict[str, Any]:
    from benchmarks.e21 import trace, workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    host = fingerprint()
    imports_s = time.perf_counter() - _PROCESS_STARTED

    setup_walls = []
    state = None
    for _ in range(1 if args.repetitions or args.scale < 1 else SETUP_ROUNDS):
        state = None  # drop the previous inputs before building them again
        gc.unfreeze()
        started = time.perf_counter()
        state = workloads.setup(workload, args.seed, args.scale)
        setup_walls.append(time.perf_counter() - started)
        # the inputs and references are the benchmark's, not the program's:
        # keep the collector from rescanning them during every repetition
        gc.collect()
        gc.freeze()

    probe = workloads.Probe()
    tracer = trace.Tracer() if args.trace else None
    samples = _measure(workload, state, probe, args.seconds,
                       1 if args.trace else workload.min_repetitions,
                       args.repetitions, max(1, int(YARDSTICK_STEPS * args.scale)),
                       tracer)
    metrics = {
        "wall_rel": _summary([wall / yard for wall, _, yard in samples], "ratio"),
        "cpu_rel": _summary([cpu / yard for _, cpu, yard in samples], "ratio"),
        "peak_rss_mb": _summary([_peak_rss_mb()], "MiB"),
        "setup_s": _summary([imports_s + wall for wall in setup_walls], "s"),
    }
    raw = {"run.wall_s": _summary([wall for wall, _, _ in samples], "s"),
           "run.cpu_s": _summary([cpu for _, cpu, _ in samples], "s"),
           "run.yardstick_s": _summary([yard for _, _, yard in samples], "s")}
    result: Dict[str, Any] = {
        "workload": workload.name, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "fingerprint": host, "repetitions": len(samples),
        "raw": raw}
    if tracer is not None:
        layers = trace.layer_metrics(
            tracer, workloads.WORKERS,
            {name: entry["value"] for name, entry in raw.items()})
        result["layer_metrics"] = {
            name: {"value": layers[name], "unit": trace.unit_of(name)}
            for name in trace.layer_metric_names()}
        if args.out:
            result["spans"] = trace.spans_as_rows(tracer, workload.name)

    if args.record_expected and "observed" in state:
        with open(workloads.LABS_GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(state["observed"], handle, indent=1, sort_keys=True)
            handle.write("\n")

    result.update(metrics=metrics, attempted=probe.attempted,
                  failed=probe.failed, failures=probe.failures[:20])
    return result


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"e21: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    # run as a script, sys.path[0] is this directory, whose trace.py would
    # shadow the standard library's; the checkout root replaces it
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        sys.path[0] = ROOT
    else:
        sys.path.insert(0, ROOT)
    sys.path.insert(1, os.path.join(ROOT, "src"))

    os.makedirs(TMP_PARENT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
    tempfile.tempdir = scratch
    try:
        result = run(args)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass  # another run is still using it

    for failure in result["failures"]:
        print(f"e21: FAILED {failure}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    reported = result["layer_metrics"] if args.trace else result["metrics"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
