"""Networked shuffle: TCP transport, retry/backoff, health, speculation.

The contract under test: with ``shuffle_transport = "tcp"`` every span a
reduce task reads travels a real socket — and the engine still returns
*identical* results and (timing aside) identical metrics to the local
shared-file transport, on both executor backends, under seeded network
chaos (dropped connections, delayed replies, on-the-wire corruption).
Resilience is layered and each layer must be observable in the metrics:
frame CRCs catch rot (``fetch_retries``), the fetch client retries with
seeded backoff, repeated failures blacklist the offending worker
(``blacklisted_workers``), lineage recovery recomputes what a retry
cannot fix (``stage_retries``), and speculative duplicates beat
stragglers (``speculative_launches`` / ``speculative_wins``).
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.config import EngineConfig
from repro.core.compiler import CampaignCompiler
from repro.engine import serializer
from repro.engine import shuffle as shuffle_module
from repro.engine.context import EngineContext
from repro.engine.memory import CODEC_NONE, Span, dump_frames
from repro.engine.retry import Faults, RetryPolicy
from repro.engine.retry import NodeHealthTracker
from repro.engine.shuffle_server import (FetchError, ShuffleFetchClient,
                                         ShuffleServer, span_chaos_key)
from repro.engine.transport import (ShuffleTransport, TcpShuffleTransport,
                                    build_worker_transport)
from repro.errors import ConfigurationError, ShuffleCorruptionError

from test_memory_bounded import DATA, OTHER_SIDE, PIPELINES, _VOLATILE_KEYS

_HAVE_CLOSURES = serializer.supports_closures()

needs_closures = pytest.mark.skipif(
    not _HAVE_CLOSURES,
    reason="shipping task closures to worker processes needs cloudpickle")

BACKENDS = ["thread", pytest.param("process", marks=needs_closures)]


def make_engine(backend: str, transport: str = "tcp", **overrides):
    options = {"num_workers": 2, "default_parallelism": 4, "seed": 1,
               "executor_backend": backend, "shuffle_transport": transport,
               "broadcast_threshold_bytes": 0}
    options.update(overrides)
    return EngineContext(EngineConfig(**options))


def run_pipeline(backend: str, pipeline_name: str, transport: str,
                 batch_size: int = 1024, **overrides):
    build = PIPELINES[pipeline_name]
    with make_engine(backend, transport=transport, batch_size=batch_size,
                     **overrides) as ctx:
        ds = build(ctx.parallelize(DATA, 4), ctx.parallelize(OTHER_SIDE, 2))
        first = ds.collect()
        second = ds.collect()
        summary = ctx.metrics.summary()
        return first, second, summary


def _comparable(summary: dict) -> dict:
    return {key: value for key, value in summary.items()
            if key not in _VOLATILE_KEYS}


# -- retry policy --------------------------------------------------------------


def test_retry_policy_validates_parameters():
    for bad in (dict(max_retries=-1), dict(backoff_s=-0.1),
                dict(multiplier=0.5), dict(jitter=1.5)):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**bad)


def test_retry_policy_zero_backoff_never_sleeps():
    policy = RetryPolicy(max_retries=5, backoff_s=0.0)
    assert all(policy.delay_s(n, "k") == 0.0 for n in range(6))


def test_retry_policy_backoff_is_exponential_capped_and_deterministic():
    policy = RetryPolicy(max_retries=8, backoff_s=0.1, multiplier=2.0,
                         max_backoff_s=0.5, jitter=0.5, seed=7)
    for attempt in range(9):
        base = min(0.1 * 2 ** attempt, 0.5)
        delay = policy.delay_s(attempt, "span-a")
        assert base * 0.5 <= delay <= base * 1.5
        # seeded: the same (seed, key, attempt) always draws the same jitter
        assert delay == policy.delay_s(attempt, "span-a")
    # different keys decorrelate
    schedule_a = [policy.delay_s(n, "span-a") for n in range(4)]
    schedule_b = [policy.delay_s(n, "span-b") for n in range(4)]
    assert schedule_a != schedule_b


def test_retry_policy_runs_until_success_and_counts_retries():
    calls = []
    retries = []

    def flaky(attempt):
        calls.append(attempt)
        if attempt < 2:
            raise OSError("transient")
        return "done"

    policy = RetryPolicy(max_retries=3, backoff_s=0.0)
    result = policy.run(flaky, key="k", retry_on=(OSError,),
                        on_retry=lambda n, e: retries.append(n))
    assert result == "done"
    assert calls == [0, 1, 2]
    assert retries == [0, 1]


def test_retry_policy_exhaustion_raises_last_error():
    policy = RetryPolicy(max_retries=2, backoff_s=0.0)
    with pytest.raises(OSError, match="always"):
        policy.run(lambda n: (_ for _ in ()).throw(OSError("always")),
                   retry_on=(OSError,))


def test_retry_policy_does_not_retry_foreign_errors():
    calls = []

    def wrong(attempt):
        calls.append(attempt)
        raise ValueError("not retryable")

    policy = RetryPolicy(max_retries=5, backoff_s=0.0)
    with pytest.raises(ValueError):
        policy.run(wrong, retry_on=(OSError,))
    assert calls == [0]


def test_retry_policy_sleeps_the_seeded_schedule():
    slept = []
    policy = RetryPolicy(max_retries=2, backoff_s=0.05, jitter=0.5, seed=3)

    def fail_twice(attempt):
        if attempt < 2:
            raise OSError("boom")
        return attempt

    assert policy.run(fail_twice, key="x", retry_on=(OSError,),
                      sleep=slept.append) == 2
    assert slept == [policy.delay_s(0, "x"), policy.delay_s(1, "x")]


# -- span chaos keys -----------------------------------------------------------


def test_span_chaos_key_strips_worker_pids():
    # the same logical span written by two different worker pids (and
    # write sequence numbers) must draw the same chaos decisions
    assert span_chaos_key("shuffle-3/map-1-71234-9.data", 128) == \
        span_chaos_key("shuffle-3/map-1-80021-2.data", 128)
    # but different maps, shuffles or offsets stay distinct
    keys = {span_chaos_key("shuffle-3/map-1-71234-9.data", 128),
            span_chaos_key("shuffle-3/map-2-71234-9.data", 128),
            span_chaos_key("shuffle-4/map-1-71234-9.data", 128),
            span_chaos_key("shuffle-3/map-1-71234-9.data", 256)}
    assert len(keys) == 4


# -- shuffle server + fetch client ---------------------------------------------


RECORDS = [(i % 5, f"value-{i}") for i in range(64)]


@pytest.fixture
def server_root(tmp_path):
    root = tmp_path / "transport"
    root.mkdir()
    payload = dump_frames(RECORDS, CODEC_NONE)
    span_dir = root / "shuffle-1"
    span_dir.mkdir()
    (span_dir / "map-0-1234-0.data").write_bytes(payload)
    return str(root), "shuffle-1/map-0-1234-0.data", len(payload)


def test_server_round_trips_spans(server_root):
    root, relpath, length = server_root
    server = ShuffleServer(root)
    try:
        client = ShuffleFetchClient(server.address)
        assert client.fetch_records(relpath, 0, length) == RECORDS
        assert client.drain_retries() == 0
        assert server.requests_served == 1
    finally:
        server.stop()


def test_server_rejects_unknown_files_and_traversal(server_root):
    root, _, _ = server_root
    server = ShuffleServer(root)
    policy = RetryPolicy(max_retries=0, backoff_s=0.0)
    try:
        client = ShuffleFetchClient(server.address, policy=policy)
        with pytest.raises(ShuffleCorruptionError, match="no file"):
            client.fetch_records("shuffle-1/missing.data", 0, 10)
        with pytest.raises(ShuffleCorruptionError, match="rejected"):
            client.fetch_records("../../etc/passwd", 0, 10)
    finally:
        server.stop()


def test_server_rejects_negative_offsets_and_lengths(server_root):
    """Both values arrive over the socket; a negative length would read to
    the end of the file, a negative offset fails in ``seek``."""
    root, relpath, length = server_root
    server = ShuffleServer(root)
    client = ShuffleFetchClient(server.address,
                                policy=RetryPolicy(max_retries=0))
    try:
        assert len(client.fetch_bytes(relpath, 10, length - 10, 0)) == \
            length - 10
        for offset, size in ((10, -1), (-1, 10), (-5, -5)):
            with pytest.raises(FetchError, match="status 2"):
                client.fetch_bytes(relpath, offset, size, 0)
    finally:
        server.stop()


def test_client_retries_through_dropped_connections(server_root):
    root, relpath, length = server_root
    # seeded drops: some attempts die, the retry budget rides them out
    server = ShuffleServer(root, Faults(11, {"drop": 0.5}))
    policy = RetryPolicy(max_retries=8, backoff_s=0.0, seed=11)
    try:
        client = ShuffleFetchClient(server.address, policy=policy)
        for _ in range(4):
            assert client.fetch_records(relpath, 0, length) == RECORDS
        # at 50% drop over 4 fetches at least one attempt must have died
        assert client.drain_retries() > 0
        assert client.drain_retries() == 0, "drain must reset the counter"
    finally:
        server.stop()


def test_client_detects_wire_corruption_and_escalates(server_root):
    root, relpath, length = server_root
    # every attempt corrupts: the frame CRC catches it, retries are spent,
    # the exhausted budget escalates as a corruption naming the tcp span
    server = ShuffleServer(root, Faults(2, {"corrupt": 1.0}))
    policy = RetryPolicy(max_retries=2, backoff_s=0.0)
    try:
        client = ShuffleFetchClient(server.address, policy=policy)
        with pytest.raises(ShuffleCorruptionError, match="tcp://"):
            client.fetch_records(relpath, 0, length)
        assert client.drain_retries() == 2
    finally:
        server.stop()


def test_client_survives_delayed_replies(server_root):
    root, relpath, length = server_root
    server = ShuffleServer(root, Faults(values={"delay": 0.05}))
    try:
        client = ShuffleFetchClient(server.address, timeout_s=5.0)
        assert client.fetch_records(relpath, 0, length) == RECORDS
    finally:
        server.stop()


def test_client_wraps_dead_server_into_corruption_error(server_root):
    root, relpath, length = server_root
    server = ShuffleServer(root)
    address = server.address
    server.stop()
    policy = RetryPolicy(max_retries=1, backoff_s=0.0)
    client = ShuffleFetchClient(address, policy=policy, timeout_s=0.5)
    with pytest.raises(ShuffleCorruptionError, match="failed after 2"):
        client.fetch_records(relpath, 0, length)


def test_fetched_spans_are_length_checked(server_root):
    root, relpath, length = server_root
    server = ShuffleServer(root)
    policy = RetryPolicy(max_retries=0, backoff_s=0.0)
    try:
        client = ShuffleFetchClient(server.address, policy=policy)
        # ask one byte past the end: the server truncates, the client balks
        with pytest.raises(ShuffleCorruptionError):
            client.fetch_records(relpath, 0, length + 1)
    finally:
        server.stop()


# -- transport selection -------------------------------------------------------


def test_tcp_transport_serves_remote_spans_and_local_spills(server_root):
    root, relpath, length = server_root
    server = ShuffleServer(root)
    try:
        transport = TcpShuffleTransport(root, server.address)
        # a span under the transport root goes over the wire
        span = Span(os.path.join(root, relpath), 0, length, len(RECORDS))
        assert transport.read_span(span) == RECORDS
        assert server.requests_served == 1
        # and is count-checked like a local read: a span that claims more
        # records than its frames hold is corrupt, even with every CRC good
        with pytest.raises(ShuffleCorruptionError, match="expected 65"):
            transport.read_span(span._replace(count=len(RECORDS) + 1))
        spec = transport.worker_spec()
        assert spec["mode"] == "tcp"
        assert tuple(spec["address"]) == tuple(server.address)
    finally:
        server.stop()


def test_tcp_transport_reads_foreign_paths_locally(tmp_path, server_root):
    root, _, _ = server_root
    server = ShuffleServer(root)
    try:
        transport = TcpShuffleTransport(root, server.address)
        # a worker-local spill file outside the transport root never
        # touches the network
        payload = dump_frames(RECORDS, CODEC_NONE)
        local = tmp_path / "local-spill.data"
        local.write_bytes(payload)
        span = Span(str(local), 0, len(payload), len(RECORDS))
        assert transport.read_span(span) == RECORDS
        assert server.requests_served == 0
    finally:
        server.stop()


def test_build_worker_transport_rebuilds_tcp_from_spec(server_root):
    root, relpath, length = server_root
    server = ShuffleServer(root)
    try:
        config = EngineConfig(fetch_max_retries=2, fetch_backoff_s=0.0)
        spec = TcpShuffleTransport(root, server.address).worker_spec()
        rebuilt = build_worker_transport(spec, config)
        assert isinstance(rebuilt, TcpShuffleTransport)
        span = Span(os.path.join(root, relpath), 0, length, len(RECORDS))
        assert rebuilt.read_span(span) == RECORDS
    finally:
        server.stop()


def test_build_worker_transport_accepts_local_specs(tmp_path):
    config = EngineConfig()
    spec = ShuffleTransport(str(tmp_path)).worker_spec()
    rebuilt = build_worker_transport(spec, config)
    assert isinstance(rebuilt, ShuffleTransport)


# -- transport parity: every wide operator, both backends ----------------------


@pytest.mark.parametrize("pipeline_name", sorted(PIPELINES))
def test_tcp_parity_thread_backend(pipeline_name):
    """TCP and local transports agree record-for-record on every operator."""
    tcp_first, tcp_second, tcp_summary = run_pipeline(
        "thread", pipeline_name, "tcp")
    local_first, local_second, local_summary = run_pipeline(
        "thread", pipeline_name, "local")
    assert tcp_first == local_first
    assert tcp_second == local_second
    assert _comparable(tcp_summary) == _comparable(local_summary)
    assert tcp_summary["fetch_retries"] == 0, "clean runs never retry"


@needs_closures
@pytest.mark.parametrize("pipeline_name", sorted(PIPELINES))
def test_tcp_parity_process_backend(pipeline_name):
    tcp_first, tcp_second, tcp_summary = run_pipeline(
        "process", pipeline_name, "tcp")
    local_first, local_second, local_summary = run_pipeline(
        "process", pipeline_name, "local")
    assert tcp_first == local_first
    assert tcp_second == local_second
    assert _comparable(tcp_summary) == _comparable(local_summary)
    assert tcp_summary["fetch_retries"] == 0


@pytest.mark.parametrize("batch_size", [1])
def test_tcp_parity_across_batch_sizes(batch_size):
    """Single-record batching rides the wire too."""
    for pipeline_name in ("reduce_by_key", "join"):
        tcp = run_pipeline("thread", pipeline_name, "tcp",
                           batch_size=batch_size)
        local = run_pipeline("thread", pipeline_name, "local",
                             batch_size=batch_size)
        assert tcp[0] == local[0]
        assert tcp[1] == local[1]


# -- spilled spans: one bounded in-place re-read before escalation -------------


def test_spilled_span_gets_one_in_place_reread(monkeypatch):
    """A transient glitch on a locally spilled span must not trigger
    lineage recovery: the shuffle layer re-reads the span once in place
    (counted as a fetch retry), and only a *persistent* failure escalates
    to ``FetchFailedError``."""
    real_load = shuffle_module.load_span
    glitched = []

    def flaky_load(span):
        key = (span.path, span.offset)
        if "spill" in os.path.basename(span.path) and key not in glitched:
            glitched.append(key)
            raise ShuffleCorruptionError("transient read glitch",
                                         path=span.path, offset=span.offset)
        return real_load(span)

    monkeypatch.setattr(shuffle_module, "load_span", flaky_load)
    # a tiny cap forces every bucket through the spill file; the optimizer
    # is off so its (corruption-tolerant) statistics sampler does not
    # consume the one-shot glitches before the authoritative read does
    with make_engine("thread", transport="local", optimizer_rules=(),
                     shuffle_memory_bytes=128) as ctx:
        ds = ctx.parallelize(DATA, 4).reduce_by_key(lambda a, b: a + b, 4)
        result = sorted(ds.collect())
        job = ctx.metrics.jobs[-1]
        assert glitched, "the tiny cap must actually route reads via spills"
        assert job.fetch_retries == len(glitched)
        assert job.stage_retries == 0, \
            "an in-place re-read must not escalate to lineage recovery"
    with make_engine("thread", transport="local") as ctx:
        expected = sorted(ctx.parallelize(DATA, 4)
                          .reduce_by_key(lambda a, b: a + b, 4).collect())
    assert result == expected


def test_persistently_corrupt_spill_still_recovers_via_lineage(monkeypatch):
    """When the re-read fails too, the existing PR 8 ladder takes over."""
    real_load = shuffle_module.load_span

    def rotten_load(span):
        if "spill" in os.path.basename(span.path):
            raise ShuffleCorruptionError("persistent rot",
                                         path=span.path, offset=span.offset)
        return real_load(span)

    with make_engine("thread", transport="local", optimizer_rules=(),
                     shuffle_memory_bytes=128, max_stage_retries=8) as ctx:
        ds = ctx.parallelize(DATA, 4).reduce_by_key(lambda a, b: a + b, 4)
        # rot the spill reads only after the map stage has written them
        monkeypatch.setattr(shuffle_module, "load_span", rotten_load)
        with pytest.raises(Exception):
            ds.collect()


# -- node health tracker -------------------------------------------------------


def test_health_tracker_blacklists_after_consecutive_failures():
    tracker = NodeHealthTracker(failure_threshold=3)
    assert tracker.strikes_enabled
    for _ in range(2):
        tracker.record_failure(101)
    assert not tracker.is_blacklisted(101)
    tracker.record_failure(101)
    assert tracker.is_blacklisted(101)
    assert tracker.drain_new() == [101]
    assert tracker.drain_new() == [], "drain must reset"


def test_health_tracker_success_resets_strikes():
    tracker = NodeHealthTracker(failure_threshold=2)
    tracker.record_failure(7)
    tracker.record_success(7)
    tracker.record_failure(7)
    assert not tracker.is_blacklisted(7), \
        "non-consecutive failures must not blacklist"
    tracker.record_failure(7)
    assert tracker.is_blacklisted(7)


def test_health_tracker_ignores_unknown_workers():
    tracker = NodeHealthTracker(failure_threshold=1)
    tracker.record_failure(None)  # producer unknown: nobody to blame
    assert tracker.blacklisted == set()


def test_health_tracker_disabled_without_threshold():
    tracker = NodeHealthTracker(failure_threshold=0)
    assert not tracker.strikes_enabled
    tracker.record_failure(5)
    tracker.record_failure(5)
    assert not tracker.is_blacklisted(5)


def test_health_tracker_detects_stale_heartbeats(tmp_path):
    beats = tmp_path / "heartbeats"
    beats.mkdir()
    now = [1000.0]
    tracker = NodeHealthTracker(heartbeat_timeout_s=1.0,
                                heartbeat_dir=lambda: str(beats),
                                clock=lambda: now[0])
    assert tracker.watches_beats
    fresh = beats / "4242"
    fresh.write_text("")
    os.utime(str(fresh), (now[0], now[0]))
    tracker.check_heartbeats()
    assert not tracker.is_blacklisted(4242)
    now[0] += 5.0  # the worker missed several beats
    tracker.check_heartbeats()
    assert tracker.is_blacklisted(4242)


# -- integration: blacklisting, speculation, heartbeats ------------------------


@needs_closures
def test_blacklisting_engages_and_results_survive():
    """Repeated injected failures blacklist workers; the job still finishes
    with exactly the fault-free answer and the counter proves it fired.

    A single worker keeps the strike sequence deterministic: with several
    workers the pool's task placement decides whether failures land
    *consecutively* on one pid, and the assertion would be a coin flip."""
    with make_engine("process", transport="local", failure_rate=0.6,
                     num_workers=1, max_task_retries=20, max_stage_retries=8,
                     blacklist_failure_threshold=2, seed=5) as ctx:
        ds = (ctx.parallelize(DATA, 4)
              .reduce_by_key(lambda a, b: a + b, 4))
        result = sorted(ds.collect())
        job = ctx.metrics.jobs[-1]
        assert job.blacklisted_workers >= 1, \
            "a 60% failure rate must strike out at least one worker"
    with make_engine("thread", transport="local") as ctx:
        expected = sorted(ctx.parallelize(DATA, 4)
                          .reduce_by_key(lambda a, b: a + b, 4).collect())
    assert result == expected


def _add(a, b):
    return a + b


def _straggler_pipeline(ctx, straggle):
    return ctx.parallelize(range(40), 4).map(straggle).reduce_by_key(_add)


def _parked_straggler():
    """A map function whose first call for ``0`` parks on a gate, and the
    injected clock that reads 10,000 s once it has parked.  The straggler
    is submitted before it parks, so it — and any attempt submitted before
    it parked — is past every speculation threshold; its duplicate (the
    second call for ``0``) passes straight through."""
    parked, gate = threading.Event(), threading.Event()

    def straggle(x):
        if x == 0 and not parked.is_set():
            parked.set()
            gate.wait(60.0)
        return (x % 3, x)

    return straggle, gate, lambda: 10_000.0 if parked.is_set() else 0.0


def _speculating_engine(**overrides):
    return make_engine("thread", transport="local", num_workers=3,
                       speculation_multiplier=2.0, speculation_quantile=0.5,
                       seed=3, **overrides)


def test_speculation_beats_an_injected_straggler():
    """One task stalls on its first attempt; past the completion quantile
    the driver launches a duplicate, the duplicate wins, and the result is
    identical to an unspeculated run."""
    straggle, gate, clock = _parked_straggler()
    with _speculating_engine() as ctx:
        ctx.scheduler.executor._clock = clock
        try:
            result = sorted(_straggler_pipeline(ctx, straggle).collect())
        finally:
            gate.set()
        job = ctx.metrics.jobs[-1]
        assert job.speculative_launches >= 1
        assert job.speculative_wins >= 1
    with make_engine("thread", transport="local") as ctx:
        expected = sorted(_straggler_pipeline(
            ctx, lambda x: (x % 3, x)).collect())
    assert result == expected


def test_a_spec_setting_only_speculation_multiplier_speculates():
    """The campaign-spec knob works on the default (thread) backend, as the
    deployment description promises."""
    deployment = CampaignCompiler().compile({
        "name": "speculation", "policy": "open_data",
        "source": {"scenario": "churn", "num_records": 200},
        "deployment": {"speculation_multiplier": 2.0},
        "goals": [{"id": "g", "task": "descriptive",
                   "params": {"fields": ["monthly_charges"]}}],
    }).deployment
    config = deployment.engine_config
    assert config.executor_backend == "thread"
    assert "stragglers over 2.0x median relaunched" in deployment.describe()
    straggle, gate, clock = _parked_straggler()
    with EngineContext(config) as ctx:
        ctx.scheduler.executor._clock = clock
        try:
            result = sorted(_straggler_pipeline(ctx, straggle).collect())
        finally:
            gate.set()
        job = ctx.metrics.jobs[-1]
    assert job.speculative_launches >= 1
    assert job.speculative_wins >= 1
    assert result == [(0, 273), (1, 247), (2, 260)]


def test_late_speculation_loser_write_is_idempotent():
    """A thread attempt cannot be killed: the loser of a speculation race
    finishes ``write_map_output`` after the winner settled, replacing the
    winner's identical buckets.  Replace-not-add accounting makes that
    harmless — a second action over the same shuffle reads the same
    records, and the shuffle totals and job metrics equal an unspeculated
    run's."""
    def run(engine, straggle, gate=None, clock=None):
        late_write = threading.Event()
        with engine as ctx:
            manager = ctx.shuffle_manager
            write = manager.write_map_output
            writes = []

            def counted_write(shuffle_id, map_partition, *args, **kwargs):
                written = write(shuffle_id, map_partition, *args, **kwargs)
                writes.append(map_partition)
                if writes.count(0) == 2:
                    late_write.set()
                return written

            manager.write_map_output = counted_write
            if clock is not None:
                ctx.scheduler.executor._clock = clock
            ds = _straggler_pipeline(ctx, straggle)
            try:
                first = sorted(ds.collect())
            finally:
                if gate is not None:
                    gate.set()
            if gate is not None:
                assert late_write.wait(60.0), "the loser's write must land"
                assert ctx.metrics.jobs[0].speculative_wins >= 1
            second = sorted(ds.collect())
            return ([first, second],
                    [(job.shuffle_bytes, job.records_written)
                     for job in ctx.metrics.jobs],
                    [(manager.bytes_written(shuffle_id),
                      manager.map_output_stats(shuffle_id),
                      manager.reduce_partition_bytes(shuffle_id))
                     for shuffle_id in sorted(manager.shuffle_ids())])

    speculated = run(_speculating_engine(), *_parked_straggler())
    plain = run(make_engine("thread", transport="local", num_workers=3,
                            seed=3), lambda x: (x % 3, x))
    assert speculated == plain


@needs_closures
def test_speculation_beats_an_injected_straggler_process(tmp_path):
    """Process backend: the same race on real time, the straggler's first
    attempt sleeping behind a marker file."""
    marker = str(tmp_path / "straggled-once")

    def straggle(x):
        if x == 0 and not os.path.exists(marker):
            with open(marker, "w"):
                pass
            time.sleep(2.0)
        return (x % 3, x)

    with make_engine("process", transport="local", num_workers=3,
                     speculation_multiplier=2.0, speculation_quantile=0.5,
                     seed=3) as ctx:
        result = sorted(_straggler_pipeline(ctx, straggle).collect())
        job = ctx.metrics.jobs[-1]
        assert job.speculative_launches >= 1
        assert job.speculative_wins >= 1
    with make_engine("thread", transport="local") as ctx:
        expected = sorted(_straggler_pipeline(
            ctx, lambda x: (x % 3, x)).collect())
    assert result == expected


@needs_closures
def test_heartbeats_run_clean_without_false_positives():
    """Healthy workers beating on time must never be blacklisted."""
    with make_engine("process", transport="local",
                     heartbeat_interval_s=0.05,
                     heartbeat_timeout_s=30.0) as ctx:
        ds = ctx.parallelize(DATA, 4).reduce_by_key(lambda a, b: a + b, 4)
        result = sorted(ds.collect())
        job = ctx.metrics.jobs[-1]
        assert job.blacklisted_workers == 0
    with make_engine("thread", transport="local") as ctx:
        expected = sorted(ctx.parallelize(DATA, 4)
                          .reduce_by_key(lambda a, b: a + b, 4).collect())
    assert result == expected


@needs_closures
def test_heartbeat_files_actually_appear():
    with make_engine("process", transport="local",
                     heartbeat_interval_s=0.05) as ctx:
        ds = ctx.parallelize(DATA, 4).reduce_by_key(lambda a, b: a + b, 4)
        ds.collect()
        beats = ctx._transport.heartbeat_dir()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if os.path.isdir(beats) and os.listdir(beats):
                break
            time.sleep(0.05)
        assert os.path.isdir(beats) and os.listdir(beats), \
            "pool workers must write pid-named heartbeat files"


# -- config surface ------------------------------------------------------------


def test_config_validates_network_knobs():
    for bad in (dict(shuffle_transport="udp"), dict(fetch_max_retries=-1),
                dict(fetch_backoff_s=-0.1), dict(faults={"drop": 1.5}),
                dict(faults={"delay": -1.0}), dict(speculation_multiplier=-1),
                dict(speculation_quantile=2.0),
                dict(blacklist_failure_threshold=-1),
                dict(heartbeat_interval_s=-1.0)):
        with pytest.raises(ConfigurationError):
            EngineConfig(**bad)


def test_tcp_server_lifecycle_is_owned_by_the_context():
    ctx = make_engine("thread", transport="tcp")
    server = ctx._shuffle_server
    assert server is not None
    address = server.address
    ctx.stop()
    # the socket is gone once the context stops
    with pytest.raises(OSError):
        probe = socket.create_connection(address, timeout=0.5)
        probe.close()
