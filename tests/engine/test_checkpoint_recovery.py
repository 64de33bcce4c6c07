"""Durable checkpointing, the job journal, and driver-crash recovery.

The contract under test: a context configured with ``checkpoint_dir``
journals each settled shuffle — a checkpoint is a shuffle with one bucket
per map — as one appended, fsynced line, and a context started with
``recover_from`` folds that journal — revalidating every recorded span by
CRC — so a driver killed with SIGKILL mid-job resumes with
*byte-identical* results and ``stages_recovered > 0``, on both executor
backends.  The journal is a hint, never a correctness dependency: a
corrupted, torn or outdated journal or span degrades to lineage
recomputation with identical results — never a wrong answer — and a
rotten checkpoint span recomputes its one partition.

Also covered here (same PR): ``NodeHealthTracker`` blacklist cooldown
rehabilitation driven by a fake clock, ``ShuffleServer`` graceful
shutdown drain and bounded EADDRINUSE bind retry, ``RetryPolicy`` edge
cases, and heartbeat-file cleanup after ``EngineContext.stop()``.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.config import EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext
from repro.engine.journal import (JOURNAL_NAME, JobJournal, atomic_write_bytes,
                                  load_journal_state, validate_shuffle_entry)
from repro.engine.memory import (CODEC_NONE, CODEC_ZLIB, CRC_FLAG, Span,
                                 dump_frames)
from repro.engine.retry import Faults, RetryPolicy
from repro.engine.retry import NodeHealthTracker
from repro.engine.shuffle_server import (AddressInUseError, ShuffleFetchClient,
                                         ShuffleServer)
from repro.errors import ConfigurationError, FetchFailedError

from payload_probe import recorded_payloads, shipped_graph
from test_checkpoint_truncation import REPARTITIONING

_HAVE_CLOSURES = serializer.supports_closures()

needs_closures = pytest.mark.skipif(
    not _HAVE_CLOSURES,
    reason="shipping task closures to worker processes needs cloudpickle")

BACKENDS = ["thread", pytest.param("process", marks=needs_closures)]

_SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def make_engine(backend: str, root=None, **overrides):
    options = {"num_workers": 2, "default_parallelism": 4, "seed": 1,
               "executor_backend": backend}
    if root is not None:
        options["checkpoint_dir"] = str(root)
    options.update(overrides)
    return EngineContext(EngineConfig(**options))


def build_pipeline(ctx):
    """Two chained shuffles — enough structure for journal/adoption tests."""
    pairs = ctx.range(0, 240).map(lambda x: (x % 7, x))
    totals = pairs.reduce_by_key(lambda a, b: a + b)
    return totals.map(lambda kv: (kv[0] % 3, kv[1])).reduce_by_key(
        lambda a, b: a + b)


def run_cold(backend: str):
    with make_engine(backend) as ctx:
        return sorted(build_pipeline(ctx).collect())


def checkpoint_buckets(ctx, ds):
    """Every non-empty bucket of ``ds``'s checkpoint, where it lives."""
    catalog = ctx.shuffle_manager.export_catalog(ds._checkpoint)
    return [source for source, _ in catalog["buckets"].values()]


def rot(span):
    """Flip one payload byte of ``span`` (header and CRC take 9 bytes)."""
    _flip_byte(span[0], span[1] + 9)


# -- journal primitives --------------------------------------------------------


def test_atomic_write_bytes_is_all_or_nothing(tmp_path):
    path = str(tmp_path / "doc.json")
    atomic_write_bytes(path, b"first version")
    atomic_write_bytes(path, b"second version")
    with open(path, "rb") as handle:
        assert handle.read() == b"second version"
    # no temporary droppings survive a successful rename
    assert os.listdir(tmp_path) == ["doc.json"]


def test_load_journal_state_treats_damage_as_absence(tmp_path):
    assert load_journal_state(str(tmp_path / "nowhere")) is None
    path = tmp_path / JOURNAL_NAME
    path.write_bytes(b'{"version": 1, "shuffles": ')  # truncated mid-write
    assert load_journal_state(str(tmp_path)) is None
    path.write_bytes(b'{"version": 999, "shuffles": {}, "checkpoints": {}}')
    assert load_journal_state(str(tmp_path)) is None
    # version-1 journals keyed shuffles by bare id — unsafe to resume from
    path.write_bytes(b'{"version": 1, "shuffles": {}, "checkpoints": {}}')
    assert load_journal_state(str(tmp_path)) is None
    # version-3 journals recorded checkpoints as file lists, not spans
    path.write_bytes(b'{"version": 3, "shuffles": {}, "checkpoints": {}}')
    assert load_journal_state(str(tmp_path)) is None
    # version-4 shuffle entries carry no key samples
    path.write_bytes(b'{"version": 4, "shuffles": {}, "checkpoints": {}}')
    assert load_journal_state(str(tmp_path)) is None
    # version 5 was one whole JSON document, rewritten on every record
    path.write_bytes(b'{"version":5,"jobs":[],"shuffles":{},"checkpoints":{}}')
    assert load_journal_state(str(tmp_path)) is None
    path.write_bytes(b'{"version":5,"jobs":[],"shuffles":{},"checkpoints":{}}\n')
    assert load_journal_state(str(tmp_path)) is None
    path.write_bytes(b'[1, 2, 3]')
    assert load_journal_state(str(tmp_path)) is None
    # version-6 shuffle outputs placed bool, integral-float and NaN keys
    # apart from the equal keys a resumed run places now
    path.write_bytes(b'{"version":6}\n')
    assert load_journal_state(str(tmp_path)) is None
    # a header cut before its newline is no header
    path.write_bytes(b'{"version":8}')
    assert load_journal_state(str(tmp_path)) is None
    path.write_bytes(b'{"version":8}\n')
    assert load_journal_state(str(tmp_path)) == {"shuffles": {}}


def test_journal_records_reload_across_instances(tmp_path):
    journal = JobJournal(str(tmp_path))
    journal.record_shuffle("shuffle:0", 0, 2, 1, {
        "maps": [0, 1],
        "buckets": {(0, 0): (Span("a.data", 0, 10, 3), 10),
                    (1, 0): (Span("b.data", 0, 12, 4), 12)},
    })
    assert journal.drain_bytes_written() > 0
    assert journal.drain_bytes_written() == 0  # drained means drained

    # a second instance over the same directory resumes the same state:
    # repeated crashes must not lose entries the first run journaled
    reloaded = JobJournal(str(tmp_path))
    state = load_journal_state(reloaded.directory)
    assert "jobs" not in state
    assert state["shuffles"]["shuffle:0"]["num_maps"] == 2
    assert state["shuffles"]["shuffle:0"]["num_reduces"] == 1
    # an entry holds span records: a Span, then its coordinates
    assert state["shuffles"]["shuffle:0"]["spans"][1] == \
        ["b.data", 0, 12, 4, 1, 0, 12]

    reloaded.forget_shuffle("shuffle:0")
    state = load_journal_state(reloaded.directory)
    assert state["shuffles"] == {}


def test_journal_appends_one_line_per_change(tmp_path):
    path = tmp_path / JOURNAL_NAME
    journal = JobJournal(str(tmp_path))
    assert path.read_bytes() == b'{"version":8}\n'

    def catalog(name):
        return {"maps": [0], "buckets": {
            (0, 0): (Span(str(tmp_path / name), 0, 9, 3), 9)}}

    journal.record_shuffle("shuffle:0:sig", 0, 1, 1, catalog("p0.data"))
    recorded = path.read_bytes()
    header, line = recorded.splitlines()
    assert json.loads(line) == {
        "kind": "shuffles", "key": "shuffle:0:sig",
        "entry": {"shuffle_id": 0, "num_maps": 1, "num_reduces": 1,
                  "maps": [0], "samples": [],
                  "spans": [[str(tmp_path / "p0.data"), 0, 9, 3, 0, 0, 9]]}}
    assert journal.drain_bytes_written() == len(recorded)

    # the live entry again, or a key that is not live: nothing to write
    journal.record_shuffle("shuffle:0:sig", 0, 1, 1, catalog("p0.data"))
    journal.forget_shuffle("shuffle:never")
    assert path.read_bytes() == recorded
    assert journal.drain_bytes_written() == 0

    journal.record_shuffle("shuffle:0:sig", 0, 1, 1, catalog("p1.data"))
    journal.forget_shuffle("shuffle:0:sig")
    lines = path.read_bytes().splitlines()
    assert len(lines) == 4 and json.loads(lines[-1])["entry"] is None
    assert load_journal_state(str(tmp_path))["shuffles"] == {}

    # opening compacts the file to its live records: here, none
    JobJournal(str(tmp_path))
    assert path.read_bytes() == header + b"\n"


def _write_frames(path, records):
    payload = dump_frames(records, CODEC_NONE)
    with open(path, "wb") as handle:
        handle.write(payload)
    return len(payload)


def _flip_byte(path, position):
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    blob[position] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


def test_validate_shuffle_entry_drops_corrupt_maps_wholesale(tmp_path):
    good = str(tmp_path / "map0.data")
    bad = str(tmp_path / "map1.data")
    good_len = _write_frames(good, [(1, "a"), (2, "b")])
    bad_len = _write_frames(bad, [(3, "c")])
    sample = str(tmp_path / "sample1.data")
    sample_len = _write_frames(sample, [(3, "c")])
    entry = {"shuffle_id": 0, "num_maps": 2, "maps": [0, 1],
             "spans": [[good, 0, good_len, 2, 0, 0, good_len],
                       [bad, 0, bad_len, 1, 1, 0, bad_len]],
             "samples": [[good, 0, good_len, 2, 0],
                         [sample, 0, sample_len, 1, 1]]}

    per_map, samples, num_maps, invalid = validate_shuffle_entry(entry)
    assert num_maps == 2 and invalid == 0
    assert sorted(per_map) == sorted(samples) == [0, 1]
    assert per_map[0][0] == (Span(good, 0, good_len, 2), good_len)
    assert samples[1] == Span(sample, 0, sample_len, 1)

    # flip a payload byte: the CRC check must reject the span and the
    # whole map partition with it — never serve a half-restored output
    _flip_byte(bad, -1)
    per_map, samples, _, invalid = validate_shuffle_entry(entry)
    assert invalid == 1
    assert sorted(per_map) == sorted(samples) == [0]

    os.remove(bad)  # missing is just as invalid as corrupt
    per_map, _, _, invalid = validate_shuffle_entry(entry)
    assert invalid == 1 and sorted(per_map) == [0]

    # a bad key sample drops its map like any other bad span of that map
    _write_frames(bad, [(3, "c")])
    _flip_byte(sample, -1)
    per_map, samples, _, invalid = validate_shuffle_entry(entry)
    assert invalid == 1
    assert sorted(per_map) == sorted(samples) == [0]

    assert validate_shuffle_entry({"nonsense": True}) == ({}, {}, 0, 1)


def test_validate_shuffle_entry_adopts_every_recorded_map(tmp_path):
    """A recorded map with no span wrote no records: it is adopted empty.
    A recorded map outside ``range(num_maps)``, and a span of a map the
    entry does not record, are invalid."""
    path = str(tmp_path / "map0.data")
    length = _write_frames(path, [(1, "a")])
    entry = {"shuffle_id": 0, "num_maps": 2, "maps": [0, 1, 2],
             "spans": [[path, 0, length, 1, 0, 0, length],
                       [path, 0, length, 1, 3, 0, length]],
             "samples": []}
    per_map, samples, num_maps, invalid = validate_shuffle_entry(entry)
    assert per_map == {0: {0: (Span(path, 0, length, 1), length)}, 1: {}}
    assert samples == {} and num_maps == 2 and invalid == 2


# -- Dataset.checkpoint() ------------------------------------------------------


def test_checkpoint_requires_checkpoint_dir():
    with make_engine("thread") as ctx:
        ds = ctx.range(0, 8).map(lambda x: x * 2)
        with pytest.raises(ConfigurationError):
            ds.checkpoint()


def test_checkpoint_interval_requires_checkpoint_dir():
    with pytest.raises(ConfigurationError):
        EngineConfig(checkpoint_interval=2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpoint_serves_identical_results(tmp_path, backend):
    expected = run_cold(backend)
    with make_engine(backend, tmp_path / "ckpt") as ctx:
        ds = build_pipeline(ctx)
        before = sorted(ds.collect())
        ds.checkpoint()
        assert ds.has_checkpoint
        # written where computed, kept durable: every bucket is a span
        # under checkpoint_dir, none is resident
        buckets = checkpoint_buckets(ctx, ds)
        after = sorted(ds.collect())
        assert before == after == expected
        ds.checkpoint()  # idempotent: no second materialisation
        summary = ctx.metrics.summary()
    assert summary["checkpoints_written"] == 1
    root = str(tmp_path / "ckpt") + os.sep
    assert buckets and all(isinstance(bucket, Span) and
                           bucket.path.startswith(root) for bucket in buckets)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_rotten_checkpoint_span_heals_its_partition(tmp_path, backend):
    """A checkpoint span that fails its checks is one lost map output: only
    its partition is recomputed, the checkpoint stays, and the journal
    records the healed span in place of the rotten one."""
    expected = run_cold("thread")
    root = tmp_path / "ckpt"
    with make_engine(backend, root) as ctx:
        ds = build_pipeline(ctx).checkpoint()
        ((key, entry),) = [
            item for item in load_journal_state(str(root))["shuffles"].items()
            if item[1]["shuffle_id"] == ds._checkpoint]
        rotten = entry["spans"][0]
        rot(rotten)
        assert sorted(ds.collect()) == expected
        assert ds.has_checkpoint
        summary = ctx.metrics.summary()
    assert (summary["lost_map_outputs"], summary["recomputed_tasks"]) == (1, 1)
    healed = load_journal_state(str(root))["shuffles"][key]
    (record,) = [record for record in healed["spans"]
                 if record[4] == rotten[4]]
    assert record[:2] != rotten[:2]
    per_map, _, _, invalid = validate_shuffle_entry(healed)
    assert invalid == 0 and rotten[4] in per_map


def test_a_rotten_checkpoint_span_fails_the_job_without_stage_retries(
        tmp_path):
    """``max_stage_retries=0``: a rotten checkpoint span is lost output like
    any other, and the first one fails the job."""
    with make_engine("thread", tmp_path / "ckpt", max_stage_retries=0) as ctx:
        ds = build_pipeline(ctx).checkpoint()
        rot(checkpoint_buckets(ctx, ds)[0])
        with pytest.raises(FetchFailedError):
            ds.collect()


@needs_closures
def test_corrupt_checkpoint_behind_a_cut_payload_heals_its_partition(
        tmp_path):
    """Process backend: the payload drops what feeds a checkpointed dataset;
    when a checkpoint span rots the driver republishes the lineage of that
    partition from its own graph."""
    expected = [(key, value + 1) for key, value in run_cold("thread")]
    with make_engine("process", tmp_path / "ckpt") as ctx:
        ds = build_pipeline(ctx).checkpoint()
        bumped = ds.map(lambda kv: (kv[0], kv[1] + 1))
        with recorded_payloads(ctx) as served:
            assert sorted(bumped.collect()) == expected
        # served from the checkpoint: the shuffle read that produced it is
        # behind the cut, and only the checkpoint's span catalog rides along
        (full, stubs), = map(shipped_graph, served)
        assert ds.id in full and len(stubs) == 1
        assert list(serializer.loads(served[0])["catalog"]) == \
            [ds._checkpoint]
        rot(checkpoint_buckets(ctx, ds)[0])
        with recorded_payloads(ctx) as healed:
            assert sorted(bumped.collect()) == expected
        assert ds.has_checkpoint
        # the failed attempt, the recompute of the lost map (reading the
        # shuffle behind the checkpoint) and the rerun
        assert [list(serializer.loads(payload)["catalog"])
                for payload in healed] == \
            [[ds._checkpoint], [ds._checkpoint - 1], [ds._checkpoint]]
        summary = ctx.metrics.summary()
    assert (summary["lost_map_outputs"], summary["recomputed_tasks"]) == (1, 1)


@pytest.mark.parametrize("rule", sorted(REPARTITIONING))
def test_checkpoint_after_collect_reruns_no_completed_map_task(tmp_path,
                                                              rule):
    """A rewrite gives the join's executable another partition count; the
    checkpoint is written over that executable, so after ``collect()`` it
    is one stage of one task per executable partition, and it reads the
    shuffles ``collect()`` completed instead of re-running their maps."""
    config = EngineConfig(num_workers=2, seed=3,
                          optimizer_rules=("cache_prune", rule),
                          checkpoint_dir=str(tmp_path),
                          **REPARTITIONING[rule])
    with EngineContext(config) as ctx:
        facts = ctx.parallelize([(key % 8, key) for key in range(40)], 4)
        dimension = ctx.parallelize([(key, -key) for key in range(0, 8, 2)],
                                    2)
        joined = facts.join(dimension, 3)
        expected = sorted(joined.collect())
        joined.checkpoint()
        job = ctx.metrics.jobs[-1]
        partitions = {"coalesce_shuffle": 1, "broadcast_join": 4}[rule]
        assert job.description == "checkpoint:join"
        assert [(stage.is_shuffle_map, stage.num_tasks)
                for stage in job.stages] == [(True, partitions)]
        assert joined.num_partitions == partitions
        assert sorted(joined.collect()) == expected


@pytest.mark.parametrize("rule", sorted(REPARTITIONING))
def test_a_dataset_built_before_the_checkpoint_reads_all_its_records(
        tmp_path, rule):
    """A dataset derived before ``checkpoint()`` was built for the old
    partition count; once the checkpoint takes the executable's count
    (3 -> 4 for the broadcast join) it must be rebuilt, not read
    partitions 0..2 and drop the fourth."""
    config = EngineConfig(num_workers=2, seed=3,
                          optimizer_rules=("cache_prune", rule),
                          checkpoint_dir=str(tmp_path),
                          **REPARTITIONING[rule])
    with EngineContext(config) as ctx:
        facts = ctx.parallelize([(key % 8, key) for key in range(40)], 4)
        dimension = ctx.parallelize([(key, -key) for key in range(0, 8, 2)],
                                    2)
        joined = facts.join(dimension, 3)
        values = joined.map(lambda pair: pair[1])
        expected = sorted(values.collect())
        joined.checkpoint()
        assert sorted(values.collect()) == expected


@needs_closures
def test_a_checkpoint_brings_no_records_to_the_driver(tmp_path, monkeypatch):
    """Process backend: what the driver unpickles from the checkpoint
    stage — each attempt's outcome — does not grow with the partitions;
    the records stay in the spans the workers wrote."""
    from repro.engine.executor import ProcessExecutor

    absorbed = []
    absorb = ProcessExecutor._absorb

    def counting(self, outcome, metrics):
        absorbed.append(len(pickle.dumps(outcome)))
        return absorb(self, outcome, metrics)

    monkeypatch.setattr(ProcessExecutor, "_absorb", counting)

    def checkpoint_stage_bytes(index, per_partition):
        with make_engine("process", tmp_path / f"ckpt-{index}") as ctx:
            ds = ctx.range(0, 4 * per_partition, num_partitions=4) \
                .map(lambda x: (x, str(x)))
            ds.count()
            absorbed.clear()
            ds.checkpoint()
            assert ctx.metrics.jobs[-1].records_written == 4 * per_partition
        return sum(absorbed)

    small = checkpoint_stage_bytes(0, 1_000)
    large = checkpoint_stage_bytes(1, 20_000)
    assert small > 0 and large < small * 1.1


def test_auto_checkpoint_interval_materialises_shuffle_consumers(tmp_path):
    with make_engine("thread", tmp_path / "ckpt",
                     checkpoint_interval=1) as ctx:
        result = sorted(build_pipeline(ctx).collect())
        summary = ctx.metrics.summary()
    assert result == run_cold("thread")
    assert summary["checkpoints_written"] >= 1
    # each checkpoint is journalled beside the pipeline's two shuffles
    assert len(load_journal_state(str(tmp_path / "ckpt"))["shuffles"]) == \
        2 + summary["checkpoints_written"]


# -- resume-on-restart ---------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_resume_adopts_journaled_shuffles(tmp_path, backend):
    root = tmp_path / "ckpt"
    with make_engine(backend, root) as ctx:
        expected = sorted(build_pipeline(ctx).collect())
    assert os.path.exists(root / JOURNAL_NAME)

    with make_engine(backend, root, recover_from=str(root)) as ctx:
        resumed = sorted(build_pipeline(ctx).collect())
        summary = ctx.metrics.summary()
    assert resumed == expected
    assert summary["stages_recovered"] > 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("limit", [30, 40])
def test_resume_adopts_a_shuffle_with_an_empty_map_partition(tmp_path,
                                                             backend, limit):
    """A map partition that wrote no records has no span record, only its
    place in the journalled ``"maps"``; resume adopts it like every other
    map, so the whole shuffle is recovered and only the reduce stage runs.
    ``limit=40`` is the control in which every map partition wrote
    records."""
    root = tmp_path / "ckpt"

    def job(ctx):
        return sorted(ctx.parallelize(range(40), 4)
                      .filter(lambda x: x < limit).map(lambda x: (x % 3, x))
                      .reduce_by_key(lambda a, b: a + b, 2).collect())

    with make_engine(backend, root) as ctx:
        expected = job(ctx)
    with make_engine(backend, root, recover_from=str(root)) as ctx:
        resumed = job(ctx)
        summary = ctx.metrics.summary()
    assert resumed == expected
    assert (summary["num_stages"], summary["num_tasks"],
            summary["stages_recovered"]) == (1, 2, 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_resumed_broadcast_join_runs_only_its_stream_stage(tmp_path,
                                                             backend):
    """A broadcast build is a one-bucket shuffle, journalled like any
    other: a resume adopts it and runs neither its map stage nor a
    collection job of its own."""
    root = tmp_path / "ckpt"

    def job(ctx):
        fact = ctx.parallelize([(i % 10, i) for i in range(400)], 4)
        dim = ctx.parallelize([(i, f"d{i}") for i in range(12)], 2)
        return sorted(fact.join(dim).collect())

    with make_engine(backend, root) as ctx:
        expected = job(ctx)
    with make_engine(backend, root, recover_from=str(root)) as ctx:
        resumed = job(ctx)
        jobs = ctx.metrics.jobs
    assert resumed == expected
    assert [j.description for j in jobs] == ["collect join"]
    assert [stage.name for stage in jobs[0].stages] == \
        ["result:broadcast_join(right)"]
    assert jobs[0].stages_recovered == 1


def test_resume_adopts_journaled_checkpoint(tmp_path):
    root = tmp_path / "ckpt"
    with make_engine("thread", root) as ctx:
        ds = build_pipeline(ctx).checkpoint()
        expected = sorted(ds.collect())

    with make_engine("thread", root, recover_from=str(root)) as ctx:
        ds = build_pipeline(ctx).checkpoint()  # adopted, not rewritten
        assert ds.has_checkpoint
        resumed = sorted(ds.collect())
        summary = ctx.metrics.summary()
    assert resumed == expected
    assert summary["stages_recovered"] > 0
    assert summary["checkpoints_written"] == 0


class _Box:
    """A value with the default, address-based ``repr``: no fingerprint."""

    k = 1


def test_resume_never_adopts_an_unfingerprintable_checkpoint(tmp_path):
    """A lineage without a fingerprint has no journal key: its checkpoint
    is written durably and truncates lineage in its own run, like any
    checkpoint, but is never journalled, so a resume over the same
    directory with another ``k`` computes the new answer."""
    root = tmp_path / "ckpt"
    box, calls = _Box(), []

    def times_k(x):
        calls.append(x)
        return x * box.k

    with make_engine("thread", root) as ctx:
        ds = ctx.parallelize(range(6), 2).map(times_k).checkpoint()
        buckets = checkpoint_buckets(ctx, ds)
        calls.clear()
        assert ds.map(lambda x: x + 1).collect() == [1, 2, 3, 4, 5, 6]
        assert calls == []  # truncated at the checkpoint
    assert all(bucket.path.startswith(str(root) + os.sep)
               for bucket in buckets)
    assert load_journal_state(str(root))["shuffles"] == {}

    box.k = 100
    with make_engine("thread", root, recover_from=str(root)) as ctx:
        resumed = ctx.parallelize(range(6), 2).map(times_k).checkpoint() \
            .collect()
        summary = ctx.metrics.summary()
    assert resumed == [0, 100, 200, 300, 400, 500]
    assert (summary["stages_recovered"], summary["checkpoints_written"]) == \
        (0, 1)


@needs_closures
@pytest.mark.parametrize("start", [0, 10])
def test_resume_adopts_a_checkpoint_over_published_input_only_if_unchanged(
        tmp_path, start):
    """Process backend: a parallelised input ships as spans once published,
    and the checkpoint's journal key still covers its records, so a resume
    adopts the checkpoint for the same input (``start=0``) and never for
    another one of the same size."""
    root = tmp_path / "ckpt"

    def job(ctx, first):
        ds = ctx.parallelize(range(first, first + 10), 2).map(
            lambda x: 2 * x)
        ds.count()  # publishes the input
        return ds.checkpoint().collect(), ctx.metrics.summary()

    with make_engine("process", root) as ctx:
        job(ctx, 0)
    with make_engine("process", root, recover_from=str(root)) as ctx:
        resumed, summary = job(ctx, start)
    assert resumed == [2 * x for x in range(start, start + 10)]
    assert summary["stages_recovered"] == (start == 0)


def test_resume_from_garbage_journal_degrades_to_cold_start(tmp_path):
    root = tmp_path / "ckpt"
    os.makedirs(root)
    (root / JOURNAL_NAME).write_bytes(b"\x00garbage, not json\xff")
    with make_engine("thread", root, recover_from=str(root)) as ctx:
        result = sorted(build_pipeline(ctx).collect())
        summary = ctx.metrics.summary()
    assert result == run_cold("thread")
    assert summary["stages_recovered"] == 0
    assert summary["recovery_invalid_entries"] >= 1


def test_resume_from_version_5_journal_degrades_to_cold_start(tmp_path):
    """A whole-document journal is never misread, even when every entry
    in it would still validate."""
    root = tmp_path / "ckpt"
    with make_engine("thread", root) as ctx:
        expected = sorted(build_pipeline(ctx).collect())
    state = load_journal_state(str(root))
    assert len(state["shuffles"]) == 2
    (root / JOURNAL_NAME).write_text(json.dumps(
        {"version": 5, "jobs": [], **state}))
    with make_engine("thread", root, recover_from=str(root)) as ctx:
        result = sorted(build_pipeline(ctx).collect())
        summary = ctx.metrics.summary()
    assert result == expected
    assert summary["stages_recovered"] == 0
    assert summary["recovery_invalid_entries"] >= 1


def test_resume_from_version_7_journal_with_a_checkpoint_line_degrades_to_cold_start(  # noqa: E501
        tmp_path):
    """A version-7 journal's ``checkpoints`` line is never adopted, even
    when every span it names still validates: the whole journal is a
    counted cold start."""
    root = tmp_path / "ckpt"
    with make_engine("thread", root) as ctx:
        expected = sorted(build_pipeline(ctx).checkpoint().collect())
    shuffles = load_journal_state(str(root))["shuffles"]
    key, entry = max(shuffles.items(), key=lambda item: item[1]["shuffle_id"])
    lines = [{"version": 7}] + [
        {"kind": "shuffles", "key": other, "entry": recorded}
        for other, recorded in shuffles.items() if other != key] + [
        {"kind": "checkpoints", "key": "fingerprint",
         "entry": {"name": "reduce_by_key", "num_partitions":
                   len(entry["spans"]),
                   "spans": [record[:4] for record in entry["spans"]]}}]
    (root / JOURNAL_NAME).write_text(
        "".join(json.dumps(line) + "\n" for line in lines))
    with make_engine("thread", root, recover_from=str(root)) as ctx:
        result = sorted(build_pipeline(ctx).checkpoint().collect())
        summary = ctx.metrics.summary()
    assert result == expected
    assert summary["stages_recovered"] == 0
    assert summary["recovery_invalid_entries"] >= 1
    assert summary["checkpoints_written"] == 1


# -- the append-only journal: fold, torn tail, compaction ----------------------


def test_torn_journal_tail_folds_to_its_complete_lines(tmp_path):
    """A crash mid-append leaves a torn last line: every byte prefix of a
    real run's journal folds exactly like its complete lines, and a resume
    from a cut inside a record adopts the shuffles recorded before it."""
    root = tmp_path / "ckpt"
    with make_engine("thread", root) as ctx:
        expected = sorted(build_pipeline(ctx).collect())
    blob = (root / JOURNAL_NAME).read_bytes()
    lines = blob.splitlines(keepends=True)
    assert len(lines) == 3  # the header, then one line per settled shuffle
    scratch = tmp_path / "prefix"
    os.makedirs(scratch)

    def fold(data):
        (scratch / JOURNAL_NAME).write_bytes(data)
        return load_journal_state(str(scratch))

    for cut in range(len(blob) + 1):
        prefix = blob[:cut]
        complete = prefix[:prefix.rfind(b"\n") + 1]
        state = fold(prefix)
        assert state == fold(complete)
        records = complete.count(b"\n") - 1
        assert (state is None) == (records < 0)
        assert state is None or len(state["shuffles"]) == records

    for index in (1, 2):
        start = len(b"".join(lines[:index]))
        for cut in (start + len(lines[index]) // 2,
                    start + len(lines[index]) - 1):  # all but the newline
            (root / JOURNAL_NAME).write_bytes(blob[:cut])
            # recover-only: the resume writes nothing under root
            with make_engine("thread", recover_from=str(root)) as ctx:
                resumed = sorted(build_pipeline(ctx).collect())
                summary = ctx.metrics.summary()
            assert resumed == expected
            assert summary["stages_recovered"] == index - 1
            assert summary["recovery_invalid_entries"] == 0

    # a writer opening a torn journal cuts the tail off before it appends,
    # so the record it writes next is not glued onto the torn line
    (root / JOURNAL_NAME).write_bytes(blob[:-1])
    with make_engine("thread", root, recover_from=str(root)) as ctx:
        assert sorted(build_pipeline(ctx).collect()) == expected
    assert len(load_journal_state(str(root))["shuffles"]) == 2


def test_reopening_keeps_the_journal_the_size_of_its_live_entries(tmp_path):
    """However many runs resume over one checkpoint_dir, the file holds
    the header and one line per live entry: no run leaves a per-job trace."""
    root = tmp_path / "ckpt"
    sizes = []
    for run in range(5):
        with make_engine("thread", root,
                         recover_from=str(root) if run else None) as ctx:
            build_pipeline(ctx).collect()
        sizes.append(os.path.getsize(root / JOURNAL_NAME))
    assert sizes == [sizes[0]] * 5
    state = load_journal_state(str(root))
    lines = (root / JOURNAL_NAME).read_bytes().splitlines()
    assert len(lines) == 1 + len(state["shuffles"])


@pytest.mark.parametrize("backend", BACKENDS)
def test_resume_adopting_everything_leaves_the_journal_byte_identical(
        tmp_path, backend):
    root = tmp_path / "ckpt"
    with make_engine(backend, root, checkpoint_interval=1) as ctx:
        expected = sorted(build_pipeline(ctx).collect())
    before = (root / JOURNAL_NAME).read_bytes()
    with make_engine(backend, root, checkpoint_interval=1,
                     recover_from=str(root)) as ctx:
        resumed = sorted(build_pipeline(ctx).collect())
        summary = ctx.metrics.summary()
    assert resumed == expected
    assert summary["stages_recovered"] > 0
    assert summary["checkpoints_written"] == 0
    assert (root / JOURNAL_NAME).read_bytes() == before
    # the one rewrite that opened the journal, and no record after it
    assert summary["journal_bytes"] == len(before)


def test_resume_with_corrupt_spans_recomputes_from_lineage(tmp_path):
    root = tmp_path / "ckpt"
    with make_engine("thread", root) as ctx:
        expected = sorted(build_pipeline(ctx).collect())

    # rot every durable span the journal recorded
    state = load_journal_state(str(root))
    assert state["shuffles"]
    for entry in state["shuffles"].values():
        for path, offset, *_ in entry["spans"]:
            _flip_byte(path, offset + 4)

    with make_engine("thread", root, recover_from=str(root)) as ctx:
        resumed = sorted(build_pipeline(ctx).collect())
        summary = ctx.metrics.summary()
    assert resumed == expected
    assert summary["recovery_invalid_entries"] >= 1


def _damage_span(record, damage):
    """Damage one journalled span record's bytes (or the record itself)."""
    path, offset, length = record[0], record[1], record[2]
    if damage == "payload_bit_flip":
        # header (codec byte + length) and CRC32 take the first 9 bytes
        with open(path, "r+b") as handle:
            handle.seek(offset + 9)
            byte = handle.read(1)[0]
            handle.seek(offset + 9)
            handle.write(bytes([byte ^ 0x10]))
    elif damage == "truncation":
        os.truncate(path, offset + length - 1)
    elif damage == "codec_byte":
        # another *valid* codec: the CRC covers the payload, not the header
        with open(path, "r+b") as handle:
            handle.seek(offset)
            codec = handle.read(1)[0] & ~CRC_FLAG
            handle.seek(offset)
            other = CODEC_ZLIB if codec == CODEC_NONE else CODEC_NONE
            handle.write(bytes([other | CRC_FLAG]))
    else:  # "record_count": the count lives in the journal, not the file
        record[3] += 1


def _damage_journal(root, kind, damage):
    """Damage the first non-empty span of the last shuffle (read by the
    result stage; a checkpoint, when the run ended with one), then append
    the entry again: the resume must fold to that superseding record."""
    state = load_journal_state(str(root))
    key, entry = max(state[kind].items(),
                     key=lambda item: item[1]["shuffle_id"])
    _damage_span(next(record for record in entry["spans"] if record[3]),
                 damage)
    with open(root / JOURNAL_NAME, "a") as handle:
        handle.write(json.dumps({"kind": kind, "key": key, "entry": entry})
                     + "\n")


@pytest.mark.parametrize("damage", ["payload_bit_flip", "truncation"])
def test_resume_rejects_damaged_payloads_at_validation(tmp_path, damage):
    root = tmp_path / "ckpt"
    with make_engine("thread", root) as ctx:
        expected = sorted(build_pipeline(ctx).collect())
    _damage_journal(root, "shuffles", damage)

    with make_engine("thread", root, recover_from=str(root)) as ctx:
        resumed = sorted(build_pipeline(ctx).collect())
        summary = ctx.metrics.summary()
    assert resumed == expected
    assert summary["recovery_invalid_entries"] >= 1
    # dropped before anything read it: the map recomputed as missing
    assert summary["lost_map_outputs"] == 0
    assert summary["recomputed_tasks"] == 0


@pytest.mark.parametrize("damage", ["record_count", "codec_byte"])
def test_resume_adopts_undecoded_damage_then_recomputes_at_the_read(
        tmp_path, damage):
    """Validation checks structure and CRCs only; what needs decoding is
    caught by the read, which recomputes the map from lineage."""
    root = tmp_path / "ckpt"
    with make_engine("thread", root) as ctx:
        expected = sorted(build_pipeline(ctx).collect())
    _damage_journal(root, "shuffles", damage)

    with make_engine("thread", root, recover_from=str(root)) as ctx:
        resumed = sorted(build_pipeline(ctx).collect())
        summary = ctx.metrics.summary()
    assert resumed == expected
    assert summary["recovery_invalid_entries"] == 0
    assert summary["stages_recovered"] >= 1
    assert summary["lost_map_outputs"] >= 1


@pytest.mark.parametrize("damage", ["record_count", "codec_byte"])
def test_resume_adopts_undecoded_checkpoint_damage_then_recomputes(
        tmp_path, damage):
    root = tmp_path / "ckpt"
    with make_engine("thread", root) as ctx:
        expected = sorted(build_pipeline(ctx).checkpoint().collect())
    _damage_journal(root, "shuffles", damage)

    with make_engine("thread", root, recover_from=str(root)) as ctx:
        ds = build_pipeline(ctx).checkpoint()
        assert ds.has_checkpoint  # adopted: validation decoded nothing
        resumed = sorted(ds.collect())
        assert ds.has_checkpoint  # the read raised, one partition healed
        summary = ctx.metrics.summary()
    assert resumed == expected
    assert summary["recovery_invalid_entries"] == 0
    assert (summary["lost_map_outputs"], summary["recomputed_tasks"]) == (1, 1)


def _run_once(tmp_path, map_func, data_end=240, **engine_kwargs):
    """One shuffle job over ``range(0, data_end).map(map_func)``."""
    with make_engine("thread", tmp_path / "ckpt", **engine_kwargs) as ctx:
        pairs = ctx.range(0, data_end).map(map_func)
        totals = sorted(pairs.reduce_by_key(lambda a, b: a + b).collect())
        return totals, ctx.metrics.summary()


def test_resume_never_adopts_a_changed_programs_map_output(tmp_path):
    """Same plan shape, same partition counts — only the map logic changed.

    Shuffle ids are per-context counters, so both programs use shuffle 0
    with identical num_maps; the spans on disk pass their CRCs.  Only the
    lineage-signature journal key stands between the resumed run and
    silently returning the *old* program's aggregates.
    """
    _run_once(tmp_path, lambda x: (x % 7, x))
    root = str(tmp_path / "ckpt")
    resumed, summary = _run_once(tmp_path, lambda x: (x % 7, x * 10),
                                 recover_from=root)
    with make_engine("thread") as ctx:
        expected = sorted(ctx.range(0, 240).map(lambda x: (x % 7, x * 10))
                          .reduce_by_key(lambda a, b: a + b).collect())
    assert resumed == expected
    assert summary["stages_recovered"] == 0


def test_resume_never_adopts_a_changed_inputs_map_output(tmp_path):
    """Identical program over different input data must not adopt either."""
    _run_once(tmp_path, lambda x: (x % 7, x), data_end=240)
    root = str(tmp_path / "ckpt")
    resumed, summary = _run_once(tmp_path, lambda x: (x % 7, x),
                                 data_end=260, recover_from=root)
    with make_engine("thread") as ctx:
        expected = sorted(ctx.range(0, 260).map(lambda x: (x % 7, x))
                          .reduce_by_key(lambda a, b: a + b).collect())
    assert resumed == expected
    assert summary["stages_recovered"] == 0


def test_resume_adopts_the_same_programs_map_output(tmp_path):
    """The twin control: an unchanged program still matches its entries."""
    expected, _ = _run_once(tmp_path, lambda x: (x % 7, x))
    root = str(tmp_path / "ckpt")
    resumed, summary = _run_once(tmp_path, lambda x: (x % 7, x),
                                 recover_from=root)
    assert resumed == expected
    assert summary["stages_recovered"] > 0


def _churn_charges_by_contract(tmp_path, source, **engine_kwargs):
    """One shuffle over a data source: total charges per contract type."""
    with make_engine("thread", tmp_path / "ckpt", **engine_kwargs) as ctx:
        sums = (ctx.from_source(source, 4)
                .map(lambda r: (r["contract_type"], r["monthly_charges"]))
                .reduce_by_key(lambda a, b: a + b).collect())
        return sorted(sums), ctx.metrics.summary()


def test_resume_never_adopts_another_generator_seeds_map_output(tmp_path):
    """Same scenario, same volume, same name — a different generator seed.

    The journal used to identify a source by its ``repr``, which for a
    ``GeneratorSource`` shows the name and the record count only, so the
    resumed run adopted seed 1's shuffle and returned seed 1's sums.
    """
    from repro.data.generators import ChurnDataGenerator
    from repro.data.sources import GeneratorSource

    def source(seed):
        return GeneratorSource(ChurnDataGenerator(seed=seed), 2000)

    assert repr(source(1)) == repr(source(2))
    first, _ = _churn_charges_by_contract(tmp_path, source(1))
    root = str(tmp_path / "ckpt")
    resumed, summary = _churn_charges_by_contract(tmp_path, source(2),
                                                  recover_from=root)
    cold, _ = _churn_charges_by_contract(tmp_path / "elsewhere", source(2))
    assert cold != first, "the two seeds must differ for the test to bite"
    assert summary["stages_recovered"] == 0
    assert resumed == cold

    # the twin control: the same seed still resumes from its own entries
    again, summary = _churn_charges_by_contract(tmp_path, source(2),
                                                recover_from=root)
    assert again == cold
    assert summary["stages_recovered"] == 1


def test_resume_never_adopts_an_edited_csv_files_map_output(tmp_path):
    """Same path, same row count — different cell values."""
    from repro.data.generators import ChurnDataGenerator
    from repro.data.schemas import CHURN_SCHEMA
    from repro.data.sources import CSVFileSource, write_csv

    path = str(tmp_path / "customers.csv")
    rows = ChurnDataGenerator(seed=1).generate(300)
    write_csv(path, rows, CHURN_SCHEMA)
    first, _ = _churn_charges_by_contract(
        tmp_path, CSVFileSource(path, CHURN_SCHEMA))
    for row in rows:
        row["monthly_charges"] += 1.0
    write_csv(path, rows, CHURN_SCHEMA)
    resumed, summary = _churn_charges_by_contract(
        tmp_path, CSVFileSource(path, CHURN_SCHEMA),
        recover_from=str(tmp_path / "ckpt"))
    assert summary["stages_recovered"] == 0
    assert resumed != first
    assert sum(total for _, total in resumed) == pytest.approx(
        sum(total for _, total in first) + 300.0)


def test_forget_unlinks_invalidated_files_inside_journal_root(tmp_path):
    journal = JobJournal(str(tmp_path))
    span = tmp_path / "transport" / "shuffle-0" / "map-0.data"
    os.makedirs(span.parent)
    span.write_bytes(b"span bytes")
    ckpt = tmp_path / "checkpoints" / "ds-0.data"
    os.makedirs(ckpt.parent)
    ckpt.write_bytes(b"ckpt bytes")
    outside = tmp_path.parent / "not-ours.data"
    outside.write_bytes(b"keep me")
    try:
        journal.record_shuffle("shuffle:0:sig", 0, 1, 1, {
            "maps": [0], "buckets": {(0, 0): (Span(str(span), 0, 10, 1), 10)}})
        journal.record_shuffle("shuffle:1:sig", 1, 2, 1, {
            "maps": [0, 1],
            "buckets": {(0, 0): (Span(str(ckpt), 0, 10, 1), 10),
                        (1, 0): (Span(str(outside), 0, 7, 1), 7)}})

        # superseding an entry unlinks the files it no longer references
        replacement = span.parent / "map-0.attempt2.data"
        replacement.write_bytes(b"fresh")
        journal.record_shuffle("shuffle:0:sig", 0, 1, 1, {
            "maps": [0],
            "buckets": {(0, 0): (Span(str(replacement), 0, 5, 1), 5)}})
        assert not span.exists() and replacement.exists()

        journal.forget_shuffle("shuffle:0:sig")
        assert not replacement.exists()
        assert not replacement.parent.exists()  # emptied dir swept too
        journal.forget_shuffle("shuffle:1:sig")
        assert not ckpt.exists()
        assert outside.exists()  # never touches files outside its root
    finally:
        if outside.exists():
            outside.unlink()


# -- driver-kill harness -------------------------------------------------------

_VICTIM_SCRIPT = '''\
"""Recovery-test victim: SIGKILLs its driver once a shuffle is journaled."""
import os
import signal
import sys
import threading
import time

from repro.config import EngineConfig
from repro.engine.context import EngineContext

root, backend = sys.argv[1], sys.argv[2]


def watch():
    path = os.path.join(root, "journal.json")
    while True:
        try:
            with open(path, "r") as handle:
                if '"shuffle:' in handle.read():
                    os.kill(os.getpid(), signal.SIGKILL)
        except OSError:
            pass
        time.sleep(0.005)


threading.Thread(target=watch, daemon=True).start()

ctx = EngineContext(EngineConfig(
    num_workers=2, default_parallelism=4, seed=1,
    executor_backend=backend, checkpoint_dir=root))
pairs = ctx.range(0, 240).map(lambda x: (x % 7, x))
totals = pairs.reduce_by_key(lambda a, b: a + b)


def slow(kv):
    time.sleep(0.2)  # widen the window between shuffle 0 and job end
    return (kv[0] % 3, kv[1])


final = totals.map(slow).reduce_by_key(lambda a, b: a + b)
final.collect()
print("COMPLETED", flush=True)
'''


@pytest.mark.parametrize("backend", BACKENDS)
def test_driver_kill_then_resume_is_byte_identical(tmp_path, backend):
    root = str(tmp_path / "ckpt")
    script = tmp_path / "victim.py"
    script.write_text(_VICTIM_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")

    # output goes to a file, not a pipe: the SIGKILLed driver's orphaned
    # pool workers inherit stdout, and a pipe read would wait on *them*
    out_path = tmp_path / "victim.out"
    with open(out_path, "w") as out:
        victim = subprocess.Popen(
            [sys.executable, str(script), root, backend],
            stdout=out, stderr=subprocess.STDOUT, env=env,
            start_new_session=True)
        try:
            returncode = victim.wait(timeout=180)
        finally:
            try:  # reap any orphaned pool workers left by the kill
                os.killpg(victim.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
    output = out_path.read_text()
    assert returncode == -signal.SIGKILL, \
        f"victim survived: rc={returncode}\n{output}"
    assert "COMPLETED" not in output  # it really died mid-job
    assert os.path.exists(os.path.join(root, JOURNAL_NAME))

    expected = run_cold(backend)
    with make_engine(backend, root, recover_from=root) as ctx:
        pairs = ctx.range(0, 240).map(lambda x: (x % 7, x))
        totals = pairs.reduce_by_key(lambda a, b: a + b)
        final = totals.map(lambda kv: (kv[0] % 3, kv[1])).reduce_by_key(
            lambda a, b: a + b)
        resumed = sorted(final.collect())
        summary = ctx.metrics.summary()
    assert resumed == expected
    assert summary["stages_recovered"] > 0


# -- blacklist cooldown rehabilitation (fake clock) ----------------------------


def test_blacklist_cooldown_rehabilitates_with_clean_ledger():
    now = [1000.0]
    tracker = NodeHealthTracker(failure_threshold=2,
                                clock=lambda: now[0],
                                blacklist_cooldown_s=30.0)
    assert not tracker.record_failure("w1")
    assert tracker.record_failure("w1")
    assert tracker.is_blacklisted("w1")

    now[0] += 29.9
    assert tracker.is_blacklisted("w1")  # sentence not yet served
    now[0] += 0.2
    assert not tracker.is_blacklisted("w1")
    assert tracker.blacklisted == set()

    # rehabilitation wiped the strike ledger: one fresh failure is not
    # enough to re-convict...
    assert not tracker.record_failure("w1")
    assert not tracker.is_blacklisted("w1")
    # ...but a full new streak earns a new sentence
    assert tracker.record_failure("w1")
    assert tracker.is_blacklisted("w1")


def test_blacklist_without_cooldown_is_permanent():
    now = [0.0]
    tracker = NodeHealthTracker(failure_threshold=1, clock=lambda: now[0])
    assert tracker.record_failure("w1")
    now[0] += 1e9
    assert tracker.is_blacklisted("w1")
    assert tracker.blacklisted == {"w1"}


def test_blacklist_cooldown_releases_each_worker_on_its_own_schedule():
    now = [0.0]
    tracker = NodeHealthTracker(failure_threshold=1,
                                clock=lambda: now[0],
                                blacklist_cooldown_s=10.0)
    tracker.record_failure("early")
    now[0] = 5.0
    tracker.record_failure("late")
    now[0] = 10.0
    assert not tracker.is_blacklisted("early")
    assert tracker.is_blacklisted("late")
    now[0] = 15.0
    assert tracker.blacklisted == set()


# -- shuffle server: bind retry and graceful drain -----------------------------


def _occupy_port():
    blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    return blocker, blocker.getsockname()[1]


def test_shuffle_server_bind_exhaustion_raises_address_in_use(tmp_path):
    blocker, port = _occupy_port()
    try:
        with pytest.raises(AddressInUseError):
            ShuffleServer(str(tmp_path), port=port,
                          bind_policy=RetryPolicy(max_retries=0))
    finally:
        blocker.close()


def test_shuffle_server_bind_retries_until_port_frees(tmp_path):
    blocker, port = _occupy_port()
    releaser = threading.Timer(0.15, blocker.close)
    releaser.start()
    try:
        server = ShuffleServer(
            str(tmp_path), port=port,
            bind_policy=RetryPolicy(max_retries=20, backoff_s=0.05,
                                    multiplier=1.0, max_backoff_s=0.05,
                                    jitter=0.0))
    finally:
        releaser.join()
        blocker.close()
    try:
        assert server.address[1] == port
    finally:
        server.stop()


def test_shuffle_server_stop_drains_in_flight_requests(tmp_path):
    records = [(k, k * k) for k in range(32)]
    length = _write_frames(str(tmp_path / "span.data"), records)
    server = ShuffleServer(str(tmp_path), Faults(values={"delay": 0.3}))
    client = ShuffleFetchClient(server.address)
    fetched = []

    def fetch():
        fetched.append(client.fetch_records("span.data", 0, length))

    worker = threading.Thread(target=fetch)
    worker.start()
    time.sleep(0.1)  # let the request reach the server's delay
    server.stop()  # must block until the in-flight response is written
    worker.join(timeout=10.0)
    assert fetched == [records]
    server.stop()  # idempotent


# -- retry policy edges --------------------------------------------------------


def test_retry_policy_zero_retries_is_a_single_attempt():
    calls = []
    policy = RetryPolicy(max_retries=0, backoff_s=1.0)

    def always_fails(attempt):
        calls.append(attempt)
        raise OSError("nope")

    with pytest.raises(OSError):
        policy.run(always_fails, key="k", retry_on=(OSError,),
                   on_retry=lambda n, e: pytest.fail("no retry budget"),
                   sleep=lambda s: pytest.fail("must not sleep"))
    assert calls == [0]


def test_retry_policy_delay_saturates_at_cap():
    policy = RetryPolicy(max_retries=8, backoff_s=0.1, multiplier=10.0,
                         max_backoff_s=0.25, jitter=0.0)
    delays = [policy.delay_s(n, "k") for n in range(4)]
    assert delays == [0.1, 0.25, 0.25, 0.25]


def test_retry_policy_jitter_is_deterministic_across_instances():
    twin_a = RetryPolicy(backoff_s=0.1, jitter=0.5, seed=42)
    twin_b = RetryPolicy(backoff_s=0.1, jitter=0.5, seed=42)
    other = RetryPolicy(backoff_s=0.1, jitter=0.5, seed=43)
    schedule_a = [twin_a.delay_s(n, "span") for n in range(6)]
    schedule_b = [twin_b.delay_s(n, "span") for n in range(6)]
    schedule_c = [other.delay_s(n, "span") for n in range(6)]
    assert schedule_a == schedule_b  # same seed: byte-identical schedule
    assert schedule_a != schedule_c  # different seed: decorrelated


# -- heartbeat file cleanup ----------------------------------------------------


@needs_closures
def test_heartbeat_files_removed_after_stop(tmp_path):
    ctx = make_engine("process", tmp_path / "ckpt",
                      heartbeat_interval_s=0.05)
    try:
        assert sorted(ctx.range(0, 16).map(lambda x: x + 1).collect()) == \
            list(range(1, 17))
        beat_dir = ctx._transport.heartbeat_dir()
        deadline = time.time() + 10.0
        while not os.listdir(beat_dir) and time.time() < deadline:
            time.sleep(0.05)
        assert os.listdir(beat_dir), "workers never wrote a beat file"
    finally:
        ctx.stop()
    # stop() swept the heartbeat files even under a durable transport
    # root (which otherwise survives for recover_from= resumes)
    assert not os.path.exists(beat_dir)
    assert os.path.exists(tmp_path / "ckpt" / JOURNAL_NAME)
