"""Lineage-based fault recovery: crashes, corruption, deadlines, recovery.

The contract under test: with seeded faults injected — spurious task
failures (``failure_rate``), hard worker deaths (the ``crash`` fail point),
damaged spill/transport frames (``corrupt``) — every wide operator
still returns *identical* results to a fault-free run, on both executor
backends, because the engine detects the damage (checksummed frames),
invalidates exactly the lost map output, recomputes it from lineage and
retries the consuming stage.  Recovery must be visible in the job metrics
(``stage_retries``, ``recomputed_tasks``, ``lost_map_outputs``,
``timed_out_tasks``) and must never leak spill or transport files.
"""

from __future__ import annotations

import multiprocessing
import os
import struct
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext
from repro.engine.memory import (CODEC_NONE, CRC_FLAG, corrupt_payload,
                                 dump_frames, load_frames)
from repro.engine.retry import Faults
from repro.engine.shuffle import ShuffleManager
from repro.errors import (FetchFailedError, ShuffleCorruptionError,
                          TaskError)

from test_memory_bounded import DATA, OTHER_SIDE, PIPELINES, TINY_CAP
from payload_probe import recorded_payloads, shipped_graph

_HAVE_CLOSURES = serializer.supports_closures()

needs_closures = pytest.mark.skipif(
    not _HAVE_CLOSURES,
    reason="shipping task closures to worker processes needs cloudpickle")


def make_engine(backend: str, batch_size: int = 1024,
                **overrides) -> EngineContext:
    options = {"num_workers": 2, "default_parallelism": 4, "seed": 1,
               "batch_size": batch_size, "executor_backend": backend}
    options.update(overrides)
    return EngineContext(EngineConfig(**options))


def run_clean(backend: str, pipeline_name: str, batch_size: int = 1024,
              **overrides):
    """Fault-free reference run of one wide pipeline (collect twice)."""
    build = PIPELINES[pipeline_name]
    with make_engine(backend, batch_size=batch_size,
                     broadcast_threshold_bytes=0, **overrides) as ctx:
        ds = build(ctx.parallelize(DATA, 4), ctx.parallelize(OTHER_SIDE, 2))
        first = ds.collect()
        second = ds.collect()
        return first, second, ctx.metrics.summary()


# -- checksummed frames --------------------------------------------------------


_HEADER = struct.Struct("<BI")


def test_frames_round_trip_and_carry_crc(tmp_path):
    records = [(i % 7, f"value-{i}") for i in range(100)]
    payload = dump_frames(records, CODEC_NONE)
    assert payload[0] & CRC_FLAG, "new frames must announce their checksum"
    path = str(tmp_path / "frames.bin")
    with open(path, "wb") as handle:
        handle.write(payload)
    assert load_frames(path, 0, len(payload)) == records


def test_checksumless_frames_are_rejected(tmp_path):
    """A frame without CRC_FLAG is corrupt: every writer sets the flag."""
    import pickle
    records = [("unchecked", i) for i in range(50)]
    raw = pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)
    unchecked = _HEADER.pack(CODEC_NONE, len(raw)) + raw  # no CRC_FLAG, no CRC
    path = str(tmp_path / "unchecked.bin")
    with open(path, "wb") as handle:
        handle.write(unchecked)
    with pytest.raises(ShuffleCorruptionError, match="bad codec byte"):
        load_frames(path, 0, len(unchecked))


def test_bit_flip_is_detected_by_crc(tmp_path):
    records = [(i, i * i) for i in range(200)]
    payload = dump_frames(records, CODEC_NONE)
    flipped = bytearray(payload)
    flipped[len(payload) // 2] ^= 0x10  # damage the payload region
    path = str(tmp_path / "flipped.bin")
    with open(path, "wb") as handle:
        handle.write(bytes(flipped))
    with pytest.raises(ShuffleCorruptionError) as excinfo:
        load_frames(path, 0, len(flipped))
    assert excinfo.value.path == path


def test_truncated_payload_is_detected(tmp_path):
    payload = dump_frames([(i, "x" * 20) for i in range(100)], CODEC_NONE)
    path = str(tmp_path / "truncated.bin")
    with open(path, "wb") as handle:
        handle.write(payload[:len(payload) // 2])
    with pytest.raises(ShuffleCorruptionError):
        load_frames(path, 0, len(payload))


def test_unknown_codec_byte_is_detected(tmp_path):
    path = str(tmp_path / "garbage.bin")
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(0x7F, 4) + b"ruin")
    with pytest.raises(ShuffleCorruptionError):
        load_frames(path, 0, _HEADER.size + 4)


def test_missing_file_is_a_corruption_error():
    with pytest.raises(ShuffleCorruptionError):
        load_frames("/nonexistent/shuffle-99.spill", 0, 64)


def test_corruption_injection_is_seeded_and_deterministic():
    faults = Faults(5, {"corrupt": 0.5})
    decisions = [faults.fires("corrupt", f"t{i}:0") for i in range(64)]
    assert decisions == [faults.fires("corrupt", f"t{i}:0") for i in range(64)]
    assert any(decisions) and not all(decisions)
    assert not any(Faults(5).fires("corrupt", f"t{i}:0") for i in range(64))
    payload = dump_frames([(i, i) for i in range(100)], CODEC_NONE)
    damaged = corrupt_payload(payload, 5, "t3:0")
    assert damaged == corrupt_payload(payload, 5, "t3:0")
    assert damaged != payload


# -- invalidation and lineage bookkeeping --------------------------------------


BUCKETS = {0: [("a", i) for i in range(30)], 1: [("b", i) for i in range(15)]}


def test_invalidate_map_output_unmarks_and_retracts():
    manager = ShuffleManager(codec="none")
    manager.register_shuffle(3, 2)
    manager.write_map_output(3, 0, BUCKETS)
    manager.write_map_output(3, 1, BUCKETS)
    clean_stats = manager.map_output_stats(3)
    assert manager.is_complete(3)
    assert manager.missing_map_partitions(3) == []

    assert manager.invalidate_map_output(3, 1)
    assert not manager.is_complete(3)
    assert manager.missing_map_partitions(3) == [1]
    assert manager.map_output_stats(3) is None, \
        "an incomplete shuffle must not report runtime stats"

    # the lineage recomputation path: rewrite only the lost partition
    manager.write_map_output(3, 1, BUCKETS)
    assert manager.is_complete(3)
    assert manager.map_output_stats(3) == clean_stats
    assert manager.reduce_partition_bytes(3) == {
        0: manager.reduce_partition_bytes(3)[0],
        1: manager.reduce_partition_bytes(3)[1]}


def test_invalidate_unknown_partition_is_a_noop():
    manager = ShuffleManager(codec="none")
    manager.register_shuffle(4, 2)
    manager.write_map_output(4, 0, BUCKETS)
    assert not manager.invalidate_map_output(4, 1)  # never written
    assert not manager.invalidate_map_output(9, 0)  # never registered
    assert manager.missing_map_partitions(4) == [1]


# -- retried-attempt accounting (double-count regression) ----------------------


def test_retried_map_attempt_does_not_double_count():
    """A rewritten map partition replaces its totals instead of adding."""
    manager = ShuffleManager(codec="none")
    manager.register_shuffle(7, 2)
    manager.write_map_output(7, 0, BUCKETS)
    manager.write_map_output(7, 1, BUCKETS)
    clean_stats = manager.map_output_stats(7)
    clean_reduce = manager.reduce_partition_bytes(7)

    # a retried (or recomputed) attempt rewrites partition 0 wholesale
    manager.write_map_output(7, 0, BUCKETS)
    assert manager.map_output_stats(7) == clean_stats
    assert manager.bytes_written(7) == clean_stats[1]
    assert manager.reduce_partition_bytes(7) == clean_reduce


def test_retried_external_registration_does_not_double_count(tmp_path):
    from repro.engine.memory import SpillFile
    from repro.engine.shuffle import catalog_of, write_buckets

    manager = ShuffleManager(codec="none")
    manager.register_shuffle(8, 1)

    def register(attempt: int):
        writer = SpillFile(str(tmp_path / f"map-0-a{attempt}.data"))
        spans, sample = write_buckets(writer, 8, 0, BUCKETS,
                                      lambda payload: payload)
        manager.adopt_catalog(8, catalog_of({0: spans}, {0: sample}))

    register(0)
    clean_stats = manager.map_output_stats(8)
    register(1)  # the retried attempt overwrites, never adds
    assert manager.map_output_stats(8) == clean_stats
    assert manager.bytes_written(8) == clean_stats[1]


# -- chaos matrix: all wide operators survive injected faults ------------------


#: Fault rates low enough that the bounded retry budgets converge for every
#: (pipeline, backend) cell, high enough that faults actually fire across
#: the matrix (asserted in the aggregate below).
CHAOS = {"failure_rate": 0.05, "faults": {"crash": 0.05, "corrupt": 0.05},
         "max_task_retries": 8,
         "max_stage_retries": 8, "seed": 7}

_fault_hits = {"thread": 0, "process": 0}

#: On-disk frame corruption alone (no wire chaos), at a rate and seed where
#: a reduce side of the four-round chain below hits a damaged span.
CUT_CHAOS = {"faults": {"corrupt": 0.15}, "max_stage_retries": 8,
             "fetch_max_retries": 2, "fetch_backoff_s": 0.001, "seed": 7}


def run_chaos(backend: str, pipeline_name: str):
    build = PIPELINES[pipeline_name]
    overrides = dict(CHAOS)
    if backend == "thread":
        # thread-backend corruption fires on *spill* frames; a tiny budget
        # makes every bucket cross the disk
        overrides["shuffle_memory_bytes"] = TINY_CAP
    with make_engine(backend, broadcast_threshold_bytes=0,
                     **overrides) as ctx:
        ds = build(ctx.parallelize(DATA, 4), ctx.parallelize(OTHER_SIDE, 2))
        first = ds.collect()
        second = ds.collect()
        summary = ctx.metrics.summary()
        return first, second, summary


@pytest.mark.parametrize("pipeline_name", sorted(PIPELINES))
def test_chaos_thread_backend_matches_fault_free(pipeline_name):
    first, second, summary = run_chaos("thread", pipeline_name)
    clean_first, clean_second, _ = run_clean("thread", pipeline_name,
                                             seed=CHAOS["seed"])
    assert first == clean_first
    assert second == clean_second
    _fault_hits["thread"] += (summary["num_failed_attempts"]
                              + summary["lost_map_outputs"])


@needs_closures
@pytest.mark.parametrize("pipeline_name", sorted(PIPELINES))
def test_chaos_process_backend_matches_fault_free(pipeline_name):
    first, second, summary = run_chaos("process", pipeline_name)
    clean_first, clean_second, _ = run_clean("thread", pipeline_name,
                                             seed=CHAOS["seed"])
    assert first == clean_first
    assert second == clean_second
    _fault_hits["process"] += (summary["num_failed_attempts"]
                               + summary["lost_map_outputs"]
                               + summary["stage_retries"])


@needs_closures
def test_chaos_matrix_actually_injected_faults():
    """Guards the matrix above against silently running fault-free."""
    assert _fault_hits["thread"] > 0
    assert _fault_hits["process"] > 0


# -- network chaos matrix: TCP shuffle under drops, delays and wire rot --------


#: Network fault rates for the TCP transport: dropped connections, delayed
#: replies and on-the-wire corruption, stacked on top of injected worker
#: crashes.  Low enough for the fetch-retry and stage-retry budgets to
#: converge everywhere, high enough to actually fire (asserted below).
NETWORK_CHAOS = {"faults": {"drop": 0.08, "delay": 0.002, "corrupt": 0.05},
                 "fetch_max_retries": 4,
                 "fetch_backoff_s": 0.001, "max_task_retries": 8,
                 "max_stage_retries": 8, "seed": 7}

_network_fault_hits = {"thread": 0, "process": 0}


def run_network_chaos(backend: str, pipeline_name: str,
                      batch_size: int = 1024, **extra):
    build = PIPELINES[pipeline_name]
    overrides = dict(NETWORK_CHAOS)
    overrides.update(extra)
    with make_engine(backend, batch_size=batch_size,
                     broadcast_threshold_bytes=0, shuffle_transport="tcp",
                     **overrides) as ctx:
        ds = build(ctx.parallelize(DATA, 4), ctx.parallelize(OTHER_SIDE, 2))
        first = ds.collect()
        second = ds.collect()
        summary = ctx.metrics.summary()
        return first, second, summary


@pytest.mark.parametrize("pipeline_name", sorted(PIPELINES))
def test_network_chaos_thread_backend_matches_fault_free(pipeline_name):
    first, second, summary = run_network_chaos("thread", pipeline_name)
    clean_first, clean_second, _ = run_clean(
        "thread", pipeline_name, seed=NETWORK_CHAOS["seed"])
    assert first == clean_first
    assert second == clean_second
    _network_fault_hits["thread"] += (summary["fetch_retries"]
                                      + summary["stage_retries"])


@needs_closures
@pytest.mark.parametrize("pipeline_name", sorted(PIPELINES))
def test_network_chaos_process_backend_matches_fault_free(pipeline_name):
    first, second, summary = run_network_chaos(
        "process", pipeline_name,
        faults={**NETWORK_CHAOS["faults"], "crash": 0.05})
    clean_first, clean_second, _ = run_clean(
        "thread", pipeline_name, seed=NETWORK_CHAOS["seed"])
    assert first == clean_first
    assert second == clean_second
    _network_fault_hits["process"] += (summary["fetch_retries"]
                                       + summary["stage_retries"])


@pytest.mark.parametrize("batch_size", [1])
@pytest.mark.parametrize("backend", ["thread",
                                     pytest.param("process",
                                                  marks=needs_closures)])
def test_network_chaos_across_batch_sizes(backend, batch_size):
    """Single-record batches survive the wire too."""
    for pipeline_name in ("reduce_by_key", "join"):
        first, second, _ = run_network_chaos(backend, pipeline_name,
                                             batch_size=batch_size)
        clean_first, clean_second, _ = run_clean(
            "thread", pipeline_name, batch_size=batch_size,
            seed=NETWORK_CHAOS["seed"])
        assert first == clean_first
        assert second == clean_second


def test_network_chaos_matrix_actually_retried_fetches():
    """Guards the network matrix against silently running fault-free: the
    injected drops and wire rot must surface as counted fetch retries."""
    assert _network_fault_hits["thread"] > 0
    if _HAVE_CLOSURES:
        assert _network_fault_hits["process"] > 0


# -- crash recovery: jobs survive a broken process pool ------------------------


@needs_closures
def test_job_survives_broken_process_pool():
    with make_engine("process", faults={"crash": 0.2}, seed=1,
                     max_stage_retries=8) as ctx:
        ds = ctx.parallelize(DATA, 4).reduce_by_key(lambda a, b: a + b, 4)
        result = ds.collect()
        job = ctx.metrics.jobs[-1]
        assert job.stage_retries > 0, \
            "a 20% crash rate over 8 tasks must kill at least one worker"
    with make_engine("thread") as ctx:
        expected = (ctx.parallelize(DATA, 4)
                    .reduce_by_key(lambda a, b: a + b, 4).collect())
    assert result == expected


@needs_closures
def test_crash_retries_are_bounded():
    with make_engine("process", faults={"crash": 0.97}, seed=1,
                     max_stage_retries=2) as ctx:
        with pytest.raises(Exception):
            ctx.parallelize(DATA, 4).group_by_key(4).collect()


# -- corruption recovery: manual mid-file damage -------------------------------


def _flip_byte_mid_file(path: str) -> None:
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.seek(size // 2)
        byte = handle.read(1)
        handle.seek(size // 2)
        handle.write(bytes([byte[0] ^ 0x40]))


def _corrupt_one_shuffle_file(root: str, pattern: str) -> str:
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if pattern in name or pattern in dirpath:
                path = os.path.join(dirpath, name)
                if os.path.getsize(path) > 16:
                    _flip_byte_mid_file(path)
                    return path
    raise AssertionError(f"no {pattern!r} file found under {root}")


def test_corrupt_spill_frame_triggers_recomputation_thread():
    """Thread backend: a damaged spill span is recomputed from lineage."""
    with make_engine("thread", shuffle_memory_bytes=TINY_CAP,
                     max_stage_retries=4) as ctx:
        ds = ctx.parallelize(DATA, 4).group_by_key(4)
        first = ds.collect()
        _corrupt_one_shuffle_file(ctx._spill_root, ".spill")
        second = ds.collect()  # re-reads the shuffle, hits the bad CRC
        assert second == first
        job = ctx.metrics.jobs[-1]
        assert job.lost_map_outputs > 0
        assert job.recomputed_tasks > 0
        assert job.stage_retries > 0


@needs_closures
def test_corrupt_transport_frame_triggers_recomputation_process():
    """Process backend: a damaged transport frame is recomputed."""
    with make_engine("process", max_stage_retries=4) as ctx:
        ds = ctx.parallelize(DATA, 4).group_by_key(4)
        first = ds.collect()
        _corrupt_one_shuffle_file(
            os.path.join(ctx._spill_root, "transport"), "map-")
        second = ds.collect()
        assert second == first
        job = ctx.metrics.jobs[-1]
        assert job.lost_map_outputs > 0
        assert job.recomputed_tasks > 0
        assert job.stage_retries > 0


# -- recovery through a cut stage payload ---------------------------------------
#
# The process backend ships a stage only what it reads: the lineage behind a
# complete shuffle is a stub in the payload.  Recovery therefore has to come
# from the *driver's* graph — recompute the lost map output from the full
# lineage and publish a payload that again contains the needed parent.


def _chained(ctx, rounds: int = 3):
    dataset = ctx.parallelize(DATA, 4)
    for _ in range(rounds):
        dataset = dataset.reduce_by_key(lambda a, b: a + b, 4) \
            .map(lambda kv: ((kv[0] * 5 + 1) % 13, kv[1]))
    return dataset


def _shuffle_files(ctx, shuffle_id: int) -> list:
    directory = ctx._transport.shuffle_dir(shuffle_id)
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory))


@needs_closures
def test_damage_two_boundaries_upstream_recovers_through_the_cuts():
    """Lost spans at every boundary heal recursively from driver lineage."""
    with make_engine("thread") as ctx:
        expected = _chained(ctx).collect()
    with make_engine("process", shuffle_transport="tcp", max_stage_retries=4,
                     fetch_max_retries=1, fetch_backoff_s=0.001) as ctx:
        ds = _chained(ctx)
        with recorded_payloads(ctx) as cold:
            assert ds.collect() == expected
        # the stage reading the last shuffle never shipped what feeds it
        assert all(stubs for _, stubs in map(shipped_graph, cold[1:]))
        first, middle, last = sorted(
            dependency.shuffle_id
            for full, _ in map(shipped_graph, cold)
            for dataset in full.values()
            for dependency in dataset.dependencies
            if hasattr(dependency, "shuffle_id"))
        # the running (result) stage reads ``last``; ``first`` sits two
        # boundaries upstream of it.  Delete, truncate, delete.
        os.remove(_shuffle_files(ctx, last)[0])
        with open(_shuffle_files(ctx, middle)[0], "r+b") as handle:
            handle.truncate(5)
        os.remove(_shuffle_files(ctx, first)[0])
        with recorded_payloads(ctx) as healing:
            assert ds.collect() == expected
        job = ctx.metrics.jobs[-1]
        assert job.lost_map_outputs >= 3
        assert job.recomputed_tasks >= 3
        assert job.stage_retries >= 3
        # the recomputation of ``first`` was republished with the input the
        # cut payloads had dropped: full lineage, no stub
        republished = [shipped_graph(data) for data in healing]
        assert any(not stubs and
                   any(node.name == "parallelize" for node in full.values())
                   for full, stubs in republished)


@needs_closures
def test_injected_corruption_in_a_cut_stage_recomputes_from_lineage():
    with make_engine("thread", seed=CUT_CHAOS["seed"]) as ctx:
        expected = _chained(ctx, rounds=4).collect()
    with make_engine("process", shuffle_transport="tcp",
                     **CUT_CHAOS) as ctx:
        with recorded_payloads(ctx) as payloads:
            assert _chained(ctx, rounds=4).collect() == expected
        summary = ctx.metrics.summary()
        assert summary["lost_map_outputs"] > 0
        assert summary["recomputed_tasks"] > 0
        assert summary["stage_retries"] > 0
        # more payloads than the five fault-free stages: the recoveries
        assert len(payloads) > 5


def test_fetch_failure_without_retries_propagates():
    with make_engine("thread", shuffle_memory_bytes=TINY_CAP,
                     max_stage_retries=0) as ctx:
        ds = ctx.parallelize(DATA, 4).group_by_key(4)
        ds.collect()
        _corrupt_one_shuffle_file(ctx._spill_root, ".spill")
        with pytest.raises(FetchFailedError):
            ds.collect()


# -- task deadlines ------------------------------------------------------------
#
# Deadlines are enforced by the one stage driver both backends share.  The
# thread-backend cases run on an injected clock and a ``threading.Event``
# gate — no marker files, no sleeps raced against a timeout; one
# process-backend case of each stays on marker files, which cross the
# process boundary.


def _attempts_parked_clock(parked: list):
    """10,000 s per parked attempt: every attempt is submitted before it
    parks, so each park expires every earlier deadline of 600 s."""
    return lambda: 10_000.0 * len(parked)


def test_task_deadline_abandons_and_retries():
    """A running attempt that overruns its deadline is dropped and retried.

    The first attempt parks on a gate; parking moves the injected clock past
    the deadline, and the retry (which finds the attempt parked and returns
    at once) opens the gate — so the parked attempt's late result
    demonstrably arrives after the task settled.
    """
    parked, gate = [], threading.Event()

    def park_once(pair):
        if pair[1] == 0:
            if parked:
                gate.set()
            else:
                parked.append(pair)
                gate.wait(60.0)
        return pair

    with make_engine("thread", task_timeout_s=600.0,
                     default_parallelism=1) as ctx:
        ctx.scheduler.executor._clock = _attempts_parked_clock(parked)
        data = [(i % 2, i) for i in range(20)]
        result = ctx.parallelize(data, 1).map(park_once).collect()
        job = ctx.metrics.jobs[-1]
    assert gate.is_set(), "the retry never ran"
    assert result == data, \
        "the late attempt's result must be discarded, not merged"
    assert job.timed_out_tasks == 1
    timed_out = [task for stage in job.stages for task in stage.tasks
                 if task.timed_out]
    assert len(timed_out) == 1 and timed_out[0].failed
    assert [task.attempt for stage in job.stages for task in stage.tasks] \
        == [0, 1]


def test_task_deadline_exhaustion_raises():
    """Timeouts draw on the same retry budget as failures."""
    parked, gate = [], threading.Event()

    def always_parked(pair):
        if pair[1] == 1:
            parked.append(pair)
            gate.wait(60.0)
        return pair

    with make_engine("thread", task_timeout_s=600.0, max_task_retries=1,
                     default_parallelism=1) as ctx:
        ctx.scheduler.executor._clock = _attempts_parked_clock(parked)
        try:
            with pytest.raises(TaskError) as excinfo:
                ctx.parallelize([(0, 1), (1, 2)], 1).map(always_parked) \
                    .collect()
        finally:
            gate.set()
    assert "failed after 2 attempts" in str(excinfo.value)
    assert "deadline" in str(excinfo.value)
    assert len(parked) == 2


@needs_closures
def test_task_deadline_abandons_and_retries_process(tmp_path):
    """Process backend: the first attempt parks on a release file after
    raising its marker, the deadline expires on an *injected* clock that
    leaps forward once the marker is up, and the retry (which finds the
    marker and returns at once) is what releases the parked attempt."""
    marker = str(tmp_path / "first-attempt-running")
    release = str(tmp_path / "release")

    def park_once(pair):
        if pair[1] == 0:
            if os.path.exists(marker):
                open(release, "w").close()
            else:
                open(marker, "w").close()
                give_up = time.monotonic() + 60.0
                while not os.path.exists(release) and \
                        time.monotonic() < give_up:
                    time.sleep(0.01)
        return pair

    def clock():
        # an attempt's deadline starts at its submission, before it can
        # raise the marker, so the leap expires the parked attempt only
        return time.perf_counter() + \
            (10_000.0 if os.path.exists(marker) else 0.0)

    with make_engine("process", task_timeout_s=600.0, num_workers=2,
                     default_parallelism=1) as ctx:
        ctx.scheduler.executor._clock = clock
        data = [(i % 2, i) for i in range(20)]
        result = ctx.parallelize(data, 1).map(park_once).collect()
        job = ctx.metrics.jobs[-1]
        assert os.path.exists(release), "the retry never ran"
        assert sorted(result) == sorted(data), \
            "the late attempt's result must be discarded, not merged"
        assert job.timed_out_tasks == 1
        timed_out = [task for stage in job.stages for task in stage.tasks
                     if task.timed_out]
        assert len(timed_out) == 1 and timed_out[0].failed


@needs_closures
def test_task_deadline_exhaustion_raises_process():
    def always_slow(pair):
        time.sleep(1.0)
        return pair

    with make_engine("process", task_timeout_s=0.25, max_task_retries=1,
                     default_parallelism=2) as ctx:
        with pytest.raises(TaskError) as excinfo:
            ctx.parallelize([(0, 1), (1, 2)], 2).map(always_slow).collect()
        assert "deadline" in str(excinfo.value)


# -- no-leak regression --------------------------------------------------------


def _leftover_shuffle_files(root: str) -> list:
    found = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if "shuffle-" in dirpath or "shuffle-" in name \
                    or name.endswith(".payload"):
                found.append(os.path.join(dirpath, name))
    return sorted(found)


@needs_closures
def test_no_leak_after_crashing_stage_and_failed_job():
    """Worker crashes and failed jobs leave no shuffle/payload files behind."""
    def explode(pair):
        if pair[1] == 799:
            raise ValueError("boom")
        return pair

    ctx = make_engine("process", faults={"crash": 0.2}, seed=1,
                      max_stage_retries=8, max_task_retries=0)
    try:
        # a crashing-but-successful job, then a failing one
        assert ctx.parallelize(DATA, 4).repartition(4).count() == len(DATA)
        ctx.shuffle_manager.clear()
        with pytest.raises(TaskError):
            ctx.parallelize(DATA, 4).map(explode).group_by_key(4).collect()
        root = ctx._spill_root
        assert not _leftover_shuffle_files(root), \
            "failed jobs must sweep stage payloads and partial map output"
    finally:
        ctx.stop()
    assert not os.path.isdir(root), \
        "the context spill root (transport and worker scratch included) " \
        "must die with stop()"


def test_no_leak_after_failed_job_thread_backend():
    def explode(pair):
        if pair[1] == 799:
            raise ValueError("boom")
        return pair

    ctx = make_engine("thread", shuffle_memory_bytes=TINY_CAP,
                      max_task_retries=0)
    try:
        with pytest.raises(TaskError):
            ctx.parallelize(DATA, 4).map(explode).group_by_key(4).collect()
        root = ctx._spill_root
        if root is not None:
            assert not _leftover_shuffle_files(root)
    finally:
        ctx.stop()
    if root is not None:
        assert not os.path.isdir(root)


# -- no pool thread or process outlives stop() --------------------------------
#
# The first case of the leak fixture: whatever path a stage took — failed,
# an attempt abandoned at its deadline, a speculation race lost — once the
# context stops, no pool thread and no pool child process is left behind.
# Abandoned attempts and losers are still running when their stage
# settles, so ``stop()`` must join them.

#: How long the first attempt stalls: far past the 0.25 s deadline and the
#: speculation threshold even on a loaded host; ``stop()`` waits it out.
_STALL_S = 2.0


def _fail_a_stage(ctx, marker):
    def explode(pair):
        if pair[1] == 799:
            raise ValueError("boom")
        return pair

    with pytest.raises(TaskError):
        ctx.parallelize(DATA, 4).map(explode).group_by_key(4).collect()


def _abandon_an_attempt(ctx, marker):
    def stall_once(pair):
        if pair[1] == 0 and not os.path.exists(marker):
            open(marker, "w").close()
            time.sleep(_STALL_S)
        return pair

    data = [(i % 2, i) for i in range(20)]
    assert ctx.parallelize(data, 2).map(stall_once).collect() == data
    assert ctx.metrics.jobs[-1].timed_out_tasks >= 1


def _lose_a_speculation_race(ctx, marker):
    def straggle(x):
        if x == 0 and not os.path.exists(marker):
            open(marker, "w").close()
            time.sleep(_STALL_S)
        return (x % 3, x)

    ds = ctx.parallelize(range(40), 4).map(straggle) \
        .reduce_by_key(lambda a, b: a + b)
    assert sorted(ds.collect()) == [(0, 273), (1, 247), (2, 260)]
    assert ctx.metrics.jobs[-1].speculative_wins >= 1


LEAK_PATHS = {
    "failed_stage": ({"max_task_retries": 0}, _fail_a_stage),
    "timed_out_attempt": ({"task_timeout_s": 0.25}, _abandon_an_attempt),
    "speculation_loser": ({"num_workers": 3, "speculation_multiplier": 2.0,
                           "speculation_quantile": 0.5},
                          _lose_a_speculation_race),
}


@pytest.mark.parametrize("path", sorted(LEAK_PATHS))
@pytest.mark.parametrize("backend",
                         ["thread",
                          pytest.param("process", marks=needs_closures)])
def test_stop_leaks_no_pool_thread_or_process(backend, path, tmp_path):
    threads = set(threading.enumerate())
    children = {child.pid for child in multiprocessing.active_children()}
    overrides, drive = LEAK_PATHS[path]
    ctx = make_engine(backend, **overrides)
    try:
        drive(ctx, str(tmp_path / "marker"))
    finally:
        ctx.stop()
    assert [thread.name for thread in threading.enumerate()
            if thread not in threads
            and thread.name.startswith("repro-worker")] == []
    assert [child.pid for child in multiprocessing.active_children()
            if child.pid not in children] == []


# -- property: single-fault runs are observably fault-free ---------------------


#: Metric keys that legitimately differ once attempts are retried: timings,
#: the failure tallies themselves, and scheduling-dependent residency.
_FAULT_VOLATILE = ("wall_clock_s", "total_task_time_s",
                   "num_failed_attempts", "num_tasks", "spills",
                   "spill_bytes", "peak_shuffle_bytes")


def _comparable(summary: dict) -> dict:
    out = {key: value for key, value in summary.items()
           if key not in _FAULT_VOLATILE}
    # attempts vary under retries; *successful* tasks must not
    out["num_successful_tasks"] = (summary["num_tasks"]
                                   - summary["num_failed_attempts"])
    return out


@pytest.mark.parametrize("backend",
                         ["thread",
                          pytest.param("process", marks=needs_closures)])
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       pipeline_name=st.sampled_from(sorted(PIPELINES)),
       batch_size=st.sampled_from([1, 1024]))
def test_seeded_failures_leave_results_and_metrics_intact(
        backend, seed, pipeline_name, batch_size):
    """Plain injected failures: retried attempts change *only* the failure
    tallies — results and every other metric match a fault-free run, and
    the recovery counters stay zero (no output was ever lost)."""
    faulty = run_clean(backend, pipeline_name, batch_size=batch_size,
                       seed=seed, failure_rate=0.1, max_task_retries=8)
    clean = run_clean(backend, pipeline_name, batch_size=batch_size,
                      seed=seed)
    assert faulty[0] == clean[0]
    assert faulty[1] == clean[1]
    assert _comparable(faulty[2]) == _comparable(clean[2])
    for counter in ("stage_retries", "recomputed_tasks",
                    "lost_map_outputs", "timed_out_tasks"):
        assert faulty[2][counter] == 0
