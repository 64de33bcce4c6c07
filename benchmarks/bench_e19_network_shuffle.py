"""E19 — networked shuffle: TCP transport overhead and resilience pricing.

PR 9 put the shuffle on a real socket: map output travels a length-prefixed
TCP protocol through a retrying, CRC-verifying fetch client, with worker
heartbeats, blacklisting and speculative execution layered on top.  This
experiment prices the wire: the same CPU-bound shuffle workload runs on
the local shared-file transport, on clean TCP, on TCP with seeded
connection drops (the retry/backoff ladder engages), and with an injected
straggler that speculation races (and beats).

Assertions are hardware-independent: every configuration must return
*identical* results, drops must surface as counted ``fetch_retries``,
and the straggler run must report at least one ``speculative_launches``
and one ``speculative_wins``.  Wall-clock ratios are recorded, never
asserted (socket and backoff costs are host-dependent) — the one-core CI
runner only checks the invariants.

Emits ``results/BENCH_E19.json`` via :func:`bench_utils.emit_json`.
"""

from __future__ import annotations

import os
import tempfile
import time

import pytest

from repro.config import EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext

from .bench_utils import emit_json, emit_table

if not serializer.supports_closures():  # pragma: no cover - cloudpickle ships
    pytest.skip("the network-shuffle benchmark needs cloudpickle for the "
                "process backend", allow_module_level=True)

ROWS = 40_000
BURN_ITERATIONS = 40
MAPS = 8
REDUCERS = 4
WORKERS = 2
REPS = 3
SEED = 15

#: Straggler injected for the speculation configuration: the marked pair
#: sleeps this long on its first attempt, far beyond the speculation
#: threshold of the surrounding sub-second tasks.
STRAGGLE_S = 1.0

#: (label, config overrides, counters that must be non-zero).
CONFIGS = (
    ("local transport", {"shuffle_transport": "local"}, ()),
    ("tcp clean", {"shuffle_transport": "tcp"}, ()),
    ("tcp + drops", {"shuffle_transport": "tcp", "faults": {"drop": 0.15},
                     "fetch_max_retries": 6, "fetch_backoff_s": 0.001},
     ("fetch_retries",)),
)

RESILIENCE_KEYS = ("fetch_retries", "speculative_launches",
                   "speculative_wins", "blacklisted_workers")


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


def _measure(overrides, pairs, mapper=_burn):
    """Median wall-clock of REPS fresh contexts (server + pool spawn included).

    Each repetition builds a fresh context so the seeded network chaos —
    a pure function of ``(seed, span, attempt)`` — replays identically;
    retries, backoff sleeps and recovery are all part of the measured
    wall-clock, exactly as a user would experience them.
    """
    walls, results, summaries = [], [], []
    for _ in range(REPS):
        config = EngineConfig(num_workers=WORKERS, default_parallelism=MAPS,
                              seed=SEED, executor_backend="process",
                              **overrides)
        started = time.perf_counter()
        with EngineContext(config) as ctx:
            result = (ctx.parallelize(pairs, MAPS)
                      .map(mapper)
                      .reduce_by_key(_add, REDUCERS)
                      .collect())
            summaries.append(ctx.metrics.summary())
        walls.append(time.perf_counter() - started)
        results.append(result)
    assert all(result == results[0] for result in results), \
        "the seeded network chaos must replay identically"
    return results[0], sorted(walls)[len(walls) // 2], summaries[0]


def _measure_speculation(pairs):
    """One run with an injected straggler that a speculative duplicate races.

    The marker file makes the straggle fire exactly once per context: the
    original attempt stalls, the duplicate (launched once the stage passes
    the completion quantile) runs it glitch-free and wins.
    """
    walls, results, summaries = [], [], []
    for _ in range(REPS):
        marker = tempfile.mktemp(prefix="bench-e19-straggler-")

        def stumble(pair, _marker=marker):
            if pair[1] == 0 and not os.path.exists(_marker):
                with open(_marker, "w"):
                    pass
                time.sleep(STRAGGLE_S)
            return _burn(pair)

        config = EngineConfig(num_workers=WORKERS, default_parallelism=MAPS,
                              seed=SEED, executor_backend="process",
                              speculation_multiplier=3.0,
                              speculation_quantile=0.5)
        started = time.perf_counter()
        try:
            with EngineContext(config) as ctx:
                result = (ctx.parallelize(pairs, MAPS)
                          .map(stumble)
                          .reduce_by_key(_add, REDUCERS)
                          .collect())
                summaries.append(ctx.metrics.summary())
        finally:
            if os.path.exists(marker):
                os.unlink(marker)
        walls.append(time.perf_counter() - started)
        results.append(result)
    assert all(result == results[0] for result in results)
    return results[0], sorted(walls)[len(walls) // 2], summaries[0]


def test_e19_network_shuffle(benchmark):
    """TCP shuffle: identical results, counted retries, winning speculation."""
    pairs = _pairs()

    measured = {}
    for label, overrides, required in CONFIGS:
        measured[label] = _measure(overrides, pairs)
    measured["speculative straggler"] = _measure_speculation(pairs)

    clean_result, clean_wall, clean_summary = measured["local transport"]
    for key in RESILIENCE_KEYS:
        assert clean_summary[key] == 0, \
            f"the local fault-free run must not report {key}"
    tcp_summary = measured["tcp clean"][2]
    assert tcp_summary["fetch_retries"] == 0, \
        "clean TCP must not consume retries"

    for label, overrides, required in CONFIGS[1:]:
        result, _, summary = measured[label]
        assert result == clean_result, \
            f"transport '{label}' changed the results"
        for key in required:
            assert summary[key] > 0, \
                (f"'{label}' injected no faults ({key} == 0) — the "
                 "configuration measures nothing; raise the rate or "
                 "change the seed")

    spec_result, _, spec_summary = measured["speculative straggler"]
    assert spec_result == clean_result, \
        "speculation changed the results"
    assert spec_summary["speculative_launches"] > 0, \
        "the straggler never triggered a speculative duplicate"
    assert spec_summary["speculative_wins"] > 0, \
        "no speculative duplicate beat the straggler"

    benchmark.pedantic(_measure, args=({"shuffle_transport": "tcp"}, pairs),
                       rounds=1, iterations=1)

    headers = ["configuration", "wall ms", "overhead vs local",
               "fetch retries", "speculative launches", "speculative wins",
               "stage retries"]
    rows = [(label, wall * 1000, wall / clean_wall,
             summary["fetch_retries"], summary["speculative_launches"],
             summary["speculative_wins"], summary["stage_retries"])
            for label, (result, wall, summary) in measured.items()]
    notes = [
        f"{ROWS} rows, {MAPS} map / {REDUCERS} reduce partitions, "
        f"{WORKERS} process workers, seed {SEED}; median of {REPS} fresh "
        "contexts per configuration, shuffle server and pool spawn included",
        "every configuration returned results identical to the local "
        "shared-file transport (asserted); drops surfaced as counted fetch "
        "retries and the injected straggler lost its race to a speculative "
        "duplicate (asserted); overhead ratios are recorded, not asserted "
        "— socket hops and backoff sleeps are host-dependent",
        "network chaos is a pure function of (seed, span, attempt): the "
        "same drop schedule replays on every repetition and every host; "
        f"the straggler sleeps {STRAGGLE_S}s on its first attempt only",
    ]
    emit_table("E19", "networked shuffle: TCP transport and resilience",
               headers, rows, notes=notes)
    emit_json("E19", "networked shuffle: TCP transport and resilience",
              headers, rows, notes=notes)
