"""Smoke test of the E21 harness.

Runs ``python -m benchmarks.e21 --smoke --trace`` (1/20 input sizes, one
repetition, every workload, untraced and traced) in a subprocess and
checks what a later change is most likely to break without noticing: a
layer callable the tracer wraps by name was renamed, a metric went missing
from a workload, a correctness check started failing, or a run left
files, worker processes or unclosed handles behind.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(command, **kwargs):
    env = dict(os.environ, PYTHONWARNINGS="error::ResourceWarning")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=170, **kwargs)


def _e21_processes():
    """Pids of processes (workers included: they are forks) running run.py."""
    script = os.path.join(HERE, "run.py").encode()
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if script in handle.read().split(b"\0"):
                    found.append(pid)
        except OSError:
            continue  # the process ended while we looked
    return found


def test_e21_smoke(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    out = tmp_path / "smoke.json"
    completed = _run([sys.executable, "-m", "benchmarks.e21", "--smoke",
                      "--trace", "--out", str(out)])
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert "ResourceWarning" not in completed.stderr, completed.stderr[-2000:]

    result_set = json.loads(out.read_text(encoding="utf-8"))
    assert set(result_set["fingerprint"]) >= {"nproc", "python", "serializer",
                                              "codec", "commit", "loadavg_1m"}
    end_to_end = {metric["name"]: metric["unit"]
                  for metric in contract["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"]
                 for metric in contract["per_layer"]}
    assert [workload["name"] for workload in contract["workloads"]] \
        == list(result_set["results"])
    for name, result in result_set["results"].items():
        assert result["attempted"] >= 1 and result["failed"] == 0, \
            (name, result["failures"])
        for reported, declared in ((result["metrics"], end_to_end),
                                   (result["layer_metrics"], per_layer)):
            assert set(reported) == set(declared), name
            for metric, entry in reported.items():
                assert NAME.match(metric), metric
                assert entry["unit"] == declared[metric], (name, metric)
                assert isinstance(entry["value"], (int, float)), (name, metric)
        assert all(entry["value"] > 0 for entry in result["metrics"].values()), name

    layers = {name: result["layer_metrics"]
              for name, result in result_set["results"].items()}
    assert layers["labs_scout"]["labs.trials"]["value"] == 33
    assert layers["compile_sweep"]["compiler.compiles"]["value"] > 0
    assert layers["engine_narrow"]["engine.shuffle_bytes"]["value"] == 0
    assert layers["engine_wide"]["engine.spills"]["value"] == 0
    assert layers["engine_spill"]["engine.spills"]["value"] > 0
    assert layers["engine_durable"]["engine.stages_recovered"]["value"] > 0
    assert layers["engine_durable"]["engine.journal_writes"]["value"] > 0

    assert not os.path.exists(os.path.join(ROOT, ".e21_tmp"))
    assert _e21_processes() == []


def test_e21_contract_line():
    """``run.py`` ends its output with exactly the contract's JSON object."""
    completed = _run([sys.executable, os.path.join(HERE, "run.py"),
                      "--workload", "compile_sweep", "--seed", "29",
                      "--seconds", "1", "--trace", "0", "--scale", "0.05"])
    assert completed.returncode == 0, completed.stderr[-2000:]
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {"wall_rel", "cpu_rel", "peak_rss_mb", "setup_s"}
    assert all(set(entry) == {"value", "unit"} for entry in line["metrics"].values())
