"""Compare two result sets of ``python -m benchmarks.e21`` metric by metric.

One row per (end-to-end metric, workload): both medians with their
quartiles and a verdict against the bound ``BENCHMARK.json`` fixes for the
metric — ``same``, ``worse``, ``better``, or ``unresolved`` when either
side's own spread (quartile distance over median) is wider than the bound,
so the difference cannot be told from noise.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")

#: Fingerprint keys that must agree; commit and load are context only.
HOST_KEYS = ("nproc", "python", "serializer", "codec")


class FingerprintMismatch(ValueError):
    """The two result sets were not taken on comparable hosts."""


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """``metric -> (better, bound)`` for every end-to-end metric."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        contract = json.load(handle)
    return {metric["name"]: (metric["better"], metric["bound"])
            for metric in contract["end_to_end"]}


def _spread(entry: Dict[str, Any]) -> float:
    return (entry["q3"] - entry["q1"]) / entry["value"] if entry["value"] else 0.0


def verdict(first: Dict[str, Any], second: Dict[str, Any], better: str,
            bound: float) -> str:
    """``same | worse | better | unresolved`` for one metric of one workload."""
    if max(_spread(first), _spread(second)) > bound:
        return "unresolved"
    change = (second["value"] - first["value"]) / first["value"]
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def compare(first: Dict[str, Any], second: Dict[str, Any],
            bounds: Dict[str, Tuple[str, float]]) -> List[Dict[str, Any]]:
    """Rows for every (metric, workload) both result sets report."""
    differing = [key for key in HOST_KEYS
                 if first["fingerprint"].get(key) != second["fingerprint"].get(key)]
    if differing:
        raise FingerprintMismatch(
            "host fingerprints differ on " + ", ".join(
                f"{key} ({first['fingerprint'].get(key)} vs "
                f"{second['fingerprint'].get(key)})" for key in differing))
    rows = []
    for workload, result in first["results"].items():
        other = second["results"].get(workload)
        if other is None:
            continue
        more_failures = other["failed"] > result["failed"]
        for metric, (better, bound) in bounds.items():
            rows.append({
                "workload": workload, "metric": metric, "bound": bound,
                "first": result["metrics"][metric],
                "second": other["metrics"][metric],
                "verdict": ("worse" if more_failures else
                            verdict(result["metrics"][metric],
                                    other["metrics"][metric], better, bound))})
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    """The comparison as a plain-text table."""
    def cell(entry: Dict[str, Any]) -> str:
        return (f"{entry['value']:.4g} [{entry['q1']:.4g}, {entry['q3']:.4g}] "
                f"n={entry['n']}")

    lines = [f"{'workload':16s} {'metric':12s} {'first (median [q1, q3])':34s} "
             f"{'second':34s} {'bound':>6s}  verdict"]
    for row in rows:
        lines.append(f"{row['workload']:16s} {row['metric']:12s} "
                     f"{cell(row['first']):34s} {cell(row['second']):34s} "
                     f"{row['bound']:6.2f}  {row['verdict']}")
    return "\n".join(lines)
