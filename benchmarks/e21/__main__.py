"""Run every workload, print every metric, or compare two result sets.

    PYTHONPATH=src python -m benchmarks.e21 --seed 12 [--trace] [--out A.json]
    PYTHONPATH=src python -m benchmarks.e21 --smoke
    PYTHONPATH=src python -m benchmarks.e21 --workload engine_wide --repetitions 5
    PYTHONPATH=src python -m benchmarks.e21 --check A.json B.json

Each workload runs in its own child process (``run.py``), so peak memory is
per workload; ``--trace`` adds a second child per workload whose traced
pass yields the per-layer numbers.  End-to-end metrics always come from the
untraced child.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

from . import check
from .run import ROOT, TMP_PARENT

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
DEFAULT_SEED = 12
SMOKE_SCALE = 0.05
CHILD_TIMEOUT_S = 600


def parse_args(contract: Dict[str, Any],
               argv: Optional[List[str]] = None) -> argparse.Namespace:
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e21",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", action="store_true",
                        help="add a traced pass for the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 input sizes, one repetition, checks on")
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    parser.add_argument("--repetitions", type=int, default=0,
                        help="exactly this many repetitions per workload")
    parser.add_argument("--out", default="", help="write the result set here")
    parser.add_argument("--check", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result sets instead of running")
    args = parser.parse_args(argv)
    args.seconds = args.seconds or contract["run_seconds"]
    args.workload = args.workload or names
    return args


def _run_child(workload: str, args: argparse.Namespace, trace: int,
               scratch: str) -> Dict[str, Any]:
    detail = os.path.join(scratch, f"{workload}.{trace}.json")
    command = [sys.executable, RUN_PY, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--out", detail]
    if args.smoke:
        command += ["--scale", str(SMOKE_SCALE), "--repetitions", "1"]
    elif args.repetitions:
        command += ["--repetitions", str(args.repetitions)]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               timeout=CHILD_TIMEOUT_S, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"workload {workload} exited with code "
                         f"{completed.returncode}")
    with open(detail, encoding="utf-8") as handle:
        result = json.load(handle)
    result.pop("spans", None)
    return result


def _print_result(result: Dict[str, Any]) -> None:
    share = result["failed"] / result["attempted"]
    print(f"\n== {result['workload']}  repetitions={result['repetitions']}  "
          f"operations={result['attempted']}  ops_failed_share={share:.4g}")
    for name, entry in {**result["metrics"], **result["raw"]}.items():
        print(f"  {name:32s} {entry['value']:12.6g} {entry['unit']:6s} "
              f"q1={entry['q1']:.6g} q3={entry['q3']:.6g} n={entry['n']}")
    for name, entry in result.get("layer_metrics", {}).items():
        print(f"  {name:32s} {entry['value']:12.6g} {entry['unit']}")


def run_all(args: argparse.Namespace) -> int:
    results: Dict[str, Any] = {}
    os.makedirs(TMP_PARENT, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix="front-", dir=TMP_PARENT) as scratch:
            for workload in args.workload:
                result = _run_child(workload, args, 0, scratch)
                if args.trace:
                    traced = _run_child(workload, args, 1, scratch)
                    result["layer_metrics"] = traced["layer_metrics"]
                    result["attempted"] += traced["attempted"]
                    result["failed"] += traced["failed"]
                    result["failures"] += traced["failures"]
                results[workload] = result
                _print_result(result)
    finally:
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass  # a concurrent run still uses it
    first = next(iter(results.values()))
    result_set = {"fingerprint": first["fingerprint"], "seed": args.seed,
                  "smoke": args.smoke, "results": results}
    print("\nhost: " + json.dumps(result_set["fingerprint"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result_set, handle, indent=1)
    failed = sum(result["failed"] for result in results.values())
    if failed:
        print(f"{failed} operations failed", file=sys.stderr)
    return 1 if failed else 0


def run_check(first_path: str, second_path: str) -> int:
    with open(first_path, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(second_path, encoding="utf-8") as handle:
        second = json.load(handle)
    try:
        rows = check.compare(first, second, check.load_bounds())
    except check.FingerprintMismatch as error:
        print(f"refusing to compare: {error}", file=sys.stderr)
        return 2
    print(check.render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    with open(check.BENCHMARK_JSON, encoding="utf-8") as handle:
        args = parse_args(json.load(handle), argv)
    if args.check:
        return run_check(*args.check)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
