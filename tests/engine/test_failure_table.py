"""One scenario per declared failure kind, checked against the table.

:data:`~repro.engine.retry.FAILURES` declares, for every way a run can
fail, the ledger it charges and the counter it ticks.  Each kind gets one
scenario below that triggers exactly that failure with the engine's own
injectors, and the test asserts what the table promises: the result is
the fault-free one, the kind's counter moved, and no counter of another
ledger moved.  A counter that kinds of two ledgers share (a failed
attempt is recorded wherever it was charged) only counts against the
ledgers that do not declare it.  The scenarios are keyed by kind, so a
kind added to the table without a scenario fails here.

:data:`~repro.engine.retry.FAULTS` declares every fail point the
injectors above arm; each point gets one scenario that arms it alone and
checks it exercises the kind it names, and the seeded draws are pinned to
the decisions recorded before the table existed.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time

import pytest

from repro.config import EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext
from repro.engine.memory import CODEC_NONE, corrupt_payload, dump_frames
from repro.engine.metrics import COUNTERS, JOB
from repro.engine.retry import (FAILURES, FAULTS, Faults, RetryPolicy,
                                policy)
from repro.engine.transport import TcpShuffleTransport
from repro.engine.worker import _AttemptFaults
from repro.errors import ConfigurationError, ShuffleCorruptionError

from test_memory_bounded import DATA, TINY_CAP

needs_closures = pytest.mark.skipif(
    not serializer.supports_closures(),
    reason="shipping task closures to worker processes needs cloudpickle")


def _add(a, b):
    return a + b


def _double(x):
    return 2 * x


def _engine(backend: str, **overrides) -> EngineContext:
    options = {"num_workers": 2, "default_parallelism": 4, "seed": 1,
               "executor_backend": backend}
    options.update(overrides)
    return EngineContext(EngineConfig(**options))


def _wide(ctx):
    return ctx.parallelize(DATA, 4).reduce_by_key(_add, 4)


def _run_wide(backend: str, **overrides):
    with _engine(backend, **overrides) as ctx:
        return _wide(ctx).collect(), ctx.metrics.summary()


def _fault_free_wide():
    with _engine("thread") as ctx:
        return _wide(ctx).collect()


def _flaky_tcp_reads(monkeypatch, failures: int) -> None:
    """The first ``failures`` TCP span reads find their span unreadable."""
    real = TcpShuffleTransport.read_span
    reads = itertools.count()

    def read_span(self, span):
        if next(reads) < failures:
            raise ShuffleCorruptionError("injected unreadable span",
                                         path=span.path, offset=span.offset)
        return real(self, span)

    monkeypatch.setattr(TcpShuffleTransport, "read_span", read_span)


#: One wide run per fail point that arms that point alone.
ARMED = {
    "task": dict(backend="thread", failure_rate=0.3, max_task_retries=8),
    "crash": dict(backend="thread", faults={"crash": 0.3},
                  max_task_retries=8),
    # on a thread, frames are written only where buckets spill
    "corrupt": dict(backend="thread", faults={"corrupt": 0.1},
                    shuffle_memory_bytes=TINY_CAP, max_stage_retries=8),
    "drop": dict(backend="thread", shuffle_transport="tcp",
                 faults={"drop": 0.3}, fetch_max_retries=8,
                 fetch_backoff_s=0.0),
    "delay": dict(backend="thread", shuffle_transport="tcp",
                  faults={"delay": 0.002}),
}


def _armed(point):
    result, summary = _run_wide(**ARMED[point])
    return result, _fault_free_wide(), summary


# -- one scenario per kind: () -> (result, fault-free result, summary) --------


def _task_error(tmp_path, monkeypatch):
    return _armed("task")


def _crash(tmp_path, monkeypatch):
    return _armed("crash")


def _deadline(tmp_path, monkeypatch):
    """The first attempt of one task parks on a gate; parking moves the
    injected clock past the deadline, and the retry opens the gate."""
    parked, gate = [], threading.Event()

    def park_once(pair):
        if pair[1] == 0:
            if parked:
                gate.set()
            else:
                parked.append(pair)
                gate.wait(60.0)
        return pair

    data = [(i % 2, i) for i in range(20)]
    with _engine("thread", task_timeout_s=600.0,
                 default_parallelism=1) as ctx:
        ctx.scheduler.executor._clock = lambda: 10_000.0 * len(parked)
        result = ctx.parallelize(data, 1).map(park_once).collect()
        return result, data, ctx.metrics.summary()


def _fetch_error(tmp_path, monkeypatch):
    return _armed("drop")


def _lost_output(tmp_path, monkeypatch):
    _flaky_tcp_reads(monkeypatch, failures=1)
    result, summary = _run_wide("thread", shuffle_transport="tcp")
    return result, _fault_free_wide(), summary


def _checkpoint(tmp_path, monkeypatch):
    with _engine("thread", checkpoint_dir=str(tmp_path)) as ctx:
        ds = _wide(ctx).checkpoint()
        directory = os.path.join(str(tmp_path), "checkpoints")
        for name in os.listdir(directory):
            with open(os.path.join(directory, name), "r+b") as handle:
                handle.truncate(3)
        return ds.collect(), _fault_free_wide(), ctx.metrics.summary()


def _stale_heartbeat(tmp_path, monkeypatch):
    """Between two jobs the tracker's clock leaps once: every live pool
    worker's beat file reads as stale at the next check."""
    with _engine("process", heartbeat_interval_s=0.05,
                 heartbeat_timeout_s=30.0) as ctx:
        ds = ctx.parallelize(range(100), 4).map(_double)
        ds.collect()
        leap = [time.time() + 1000.0]
        ctx.scheduler.executor.health._clock = \
            lambda: leap.pop() if leap else time.time()
        result = ds.collect()
        assert not leap, "the heartbeat check never ran"
        return result, [2 * x for x in range(100)], ctx.metrics.summary()


def _broken_pool(tmp_path, monkeypatch):
    result, summary = _run_wide("process", faults={"crash": 0.2},
                                max_stage_retries=8)
    return result, _fault_free_wide(), summary


SCENARIOS = {
    "task_error": _task_error,
    "crash": _crash,
    "deadline": _deadline,
    "fetch_error": _fetch_error,
    "lost_output": _lost_output,
    "checkpoint": _checkpoint,
    "stale_heartbeat": _stale_heartbeat,
    "broken_pool": _broken_pool,
}

_PROCESS_KINDS = ("stale_heartbeat", "broken_pool")


def _counters_of(ledgers) -> set:
    return {failure.counter.key(JOB) for failure in FAILURES.values()
            if failure.ledger in ledgers}


@pytest.mark.parametrize("kind", [
    pytest.param(kind, marks=needs_closures) if kind in _PROCESS_KINDS
    else kind for kind in FAILURES])
def test_each_kind_charges_its_own_ledger(kind, tmp_path, monkeypatch):
    assert kind in SCENARIOS, f"failure kind {kind!r} has no scenario"
    failure = FAILURES[kind]
    result, expected, summary = SCENARIOS[kind](tmp_path, monkeypatch)
    assert sorted(result) == sorted(expected)
    counter = failure.counter.key(JOB)
    assert summary[counter] > 0, f"{kind} did not tick {counter}"
    others = {ledger for ledger in ("attempt", "stage", "fetch", "worker")
              if ledger != failure.ledger}
    untouched = _counters_of(others) - _counters_of({failure.ledger})
    assert {name: summary[name] for name in untouched} == \
        dict.fromkeys(untouched, 0)


def test_every_scenario_is_a_declared_kind():
    assert set(SCENARIOS) == set(FAILURES)


def test_the_table_names_ledgers_and_counters_that_exist():
    for kind, failure in FAILURES.items():
        assert failure.ledger in ("attempt", "stage", "fetch", "worker"), kind
        assert failure.counter in COUNTERS, kind


def test_each_retry_policy_is_derived_from_its_knobs():
    config = EngineConfig(max_task_retries=5, max_stage_retries=6,
                          fetch_max_retries=7, fetch_backoff_s=0.2, seed=9)
    assert policy(config, "attempt") == RetryPolicy(max_retries=5, seed=9)
    assert policy(config, "stage") == RetryPolicy(max_retries=6, seed=9)
    assert policy(config, "fetch") == \
        RetryPolicy(max_retries=7, backoff_s=0.2, seed=9)
    assert policy(config, "bind") == \
        RetryPolicy(max_retries=4, backoff_s=0.05, seed=9)
    assert policy(config, "reread") == RetryPolicy(max_retries=1, seed=9)


def test_a_driver_producer_is_never_struck(monkeypatch):
    """Thread backend over TCP: the driver registers every map output, and
    losing two of them must not blacklist the "driver" producer — which
    would invalidate every map output of the run.  One worker runs the
    reads one at a time, so each loss is its own stage retry."""
    _flaky_tcp_reads(monkeypatch, failures=2)
    result, summary = _run_wide("thread", shuffle_transport="tcp",
                                num_workers=1, blacklist_failure_threshold=2)
    assert sorted(result) == sorted(_fault_free_wide())
    assert summary["lost_map_outputs"] == 2
    assert summary["blacklisted_workers"] == 0


# -- the fault table ------------------------------------------------------------


@pytest.mark.parametrize("point", list(FAULTS))
def test_each_fail_point_exercises_its_kind(point):
    assert point in ARMED, f"fail point {point!r} has no scenario"
    kind = FAULTS[point].kind
    assert kind in FAILURES if point != "delay" else kind is None, \
        f"fail point {point!r} names no failure kind"
    options = dict(ARMED[point])
    config = EngineConfig(executor_backend=options.pop("backend"), seed=1,
                          **options)
    armed = {name for name, value in Faults.of(config).values.items()
             if value}
    assert armed == {point}
    result, expected, summary = _armed(point)
    assert sorted(result) == sorted(expected)
    if kind is None:  # latency is no failure: nothing may tick
        assert {summary[failure.counter.key(JOB)]
                for failure in FAILURES.values()} == {0}
    else:
        counter = FAILURES[kind].counter.key(JOB)
        assert summary[counter] > 0, f"{point} did not tick {counter}"


#: Decision keys in the shapes the fail points use: ``task id:attempt``
#: (task, crash, a worker's frame), and a fetched span ``identity:attempt``
#: (drop, wire rot).
_KEYS = [f"{stage}-{part}:{attempt}" for stage in range(6)
         for part in range(12) for attempt in range(4)]
_SPANS = [f"shuffle-{shuffle}/map-{map_}:{offset}:{attempt}"
          for shuffle in range(3) for map_ in range(8)
          for offset in (0, 4096) for attempt in range(6)]


def test_fault_decisions_match_the_recorded_draws():
    """Digests of ``memory.should_inject``/``should_corrupt`` over the same
    keys, seed 7 and rate 0.3, recorded before the fault table: every
    point keeps its seed string."""
    faults = Faults(7, dict.fromkeys(("task", "crash", "corrupt", "drop"),
                                     0.3))
    shapes = {
        "task": [faults.fires("task", key) for key in _KEYS],
        "crash": [faults.fires("crash", key) for key in _KEYS],
        "worker": [faults.fires("corrupt", key) for key in _KEYS],
        "seq": [faults.fires("corrupt", f"{('spill', 'transport')[n % 2]}:{n}")
                for n in range(1, len(_KEYS) + 1)],
        "drop": [faults.fires("drop", span) for span in _SPANS],
        "wire": [faults.fires("corrupt", f"wire:{span}") for span in _SPANS],
    }
    digest = hashlib.sha256()
    for name, bits in shapes.items():
        digest.update(name.encode() + bytes(bits))
    assert digest.hexdigest()[:16] == "1e3f2af0077b8e3a"
    assert sum(map(sum, shapes.values())) == 513
    payload = dump_frames([(i, i * i) for i in range(64)], CODEC_NONE)
    damaged = hashlib.sha256()
    for key in _KEYS:
        written = faults.damage(payload, key)
        assert written in (payload, corrupt_payload(payload, 7, key))
        damaged.update(written)
    assert damaged.hexdigest()[:16] == "7e8037a8fea68322"


def test_a_worker_attempt_draws_corruption_once_at_its_first_frame():
    """A worker's ``corrupt`` decision is keyed ``task_id:attempt`` and
    drawn at the attempt's first frame only, whatever key the shuffle
    manager passes; an unarmed worker damages nothing."""
    faults = _AttemptFaults(7, {"corrupt": 1.0})
    payload = dump_frames([(i, i * i) for i in range(64)], CODEC_NONE)
    assert faults.damage(payload, "transport:1") == payload
    faults.arm("job0-s1-p2:0")
    assert faults.damage(payload, "transport:2") == \
        corrupt_payload(payload, 7, "job0-s1-p2:0") != payload
    assert faults.damage(payload, "transport:3") == payload


def test_faults_names_each_unknown_point_and_bounds_each_value():
    for faults, message in (({"crahs": 0.1}, r"faults\['crahs'\]"),
                            ({"task": 0.1}, "failure_rate arms task"),
                            ({"corrupt": 1.0}, r"faults\['corrupt'\]"),
                            ({"delay": 5.0}, r"\[0, 5.0\) seconds"),
                            (0.5, "mapping")):
        with pytest.raises(ConfigurationError, match=message):
            EngineConfig(faults=faults)
    config = EngineConfig(faults={"drop": 0.1, "crash": 0.2})
    assert config.faults == (("crash", 0.2), ("drop", 0.1))
    assert config == config.with_overrides(faults=dict(config.faults))
    assert hash(config) == hash(EngineConfig(faults=config.faults))
