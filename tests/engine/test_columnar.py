"""Columnar batches, projection-aware scans and compressed spill frames.

Three contracts under test:

* :class:`~repro.engine.columnar.ColumnBatch` round-trips rows exactly
  (iteration, projection, slicing, null masks) — including a hypothesis
  property over generated records;
* columnar execution is invisible: for every wide operator, results, order
  and every non-timing metric of a pruned scan over a schema-bearing source
  (columnar) equal those of the same pipeline over a schema-less source
  (pruned in rows), across batch sizes and both executor backends;
* compressed spill frames: codec resolution, frame round-trips, measured
  byte estimates that are backend- and codec-consistent, and spill files
  that actually shrink under compression.
"""

from __future__ import annotations

import pickle
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.data.schemas import Field, Schema
from repro.data.sources import InMemorySource
from repro.engine.columnar import ColumnBatch
from repro.engine.context import EngineContext
from repro.engine.memory import (CODEC_LZ4, CODEC_NONE, CODEC_ZLIB,
                                 codec_name, decode_payload, dump_frames,
                                 encode_payload, iter_frames, load_frames,
                                 lz4_available, resolve_codec)
from repro.engine.shuffle import estimate_bytes
from repro.errors import ConfigurationError

from test_memory_bounded import DATA, OTHER_SIDE, PIPELINES, TINY_CAP

SCHEMA = Schema(name="kv_records",
                fields=(Field("k", "int"), Field("v", "int")))

RECORDS = [{"k": k, "v": v} for k, v in DATA]

#: Metric keys that legitimately differ across executor backends and
#: scan representations (everything else must match exactly).
_TIMING_KEYS = ("wall_clock_s", "total_task_time_s")


def make_engine(batch_size: int = 1024, backend: str = "thread",
                **overrides) -> EngineContext:
    options = {"num_workers": 2, "default_parallelism": 4, "seed": 1,
               "batch_size": batch_size, "executor_backend": backend,
               "broadcast_threshold_bytes": 0}
    options.update(overrides)
    return EngineContext(EngineConfig(**options))


def run_schema_pipeline(pipeline_name: str, schema=SCHEMA,
                        batch_size: int = 1024, backend: str = "thread",
                        **overrides):
    """One wide pipeline over a pruned scan; results + metrics.

    The projection is what makes a schema-bearing scan columnar: the UDF map
    above it then reads the ``ColumnBatch`` through its row view.  With
    ``schema=None`` the same scan is pruned in rows.
    """
    build = PIPELINES[pipeline_name]
    with make_engine(batch_size, backend, **overrides) as ctx:
        base = ctx.from_source(InMemorySource("kv", RECORDS, schema=schema),
                               num_partitions=4).project(["k", "v"])
        kv = base.map(lambda record: (record["k"], record["v"]))
        ds = build(kv, ctx.parallelize(OTHER_SIDE, 2))
        first = ds.collect()
        second = ds.collect()
        summary = ctx.metrics.summary()
        comparable = {key: value for key, value in summary.items()
                      if key not in _TIMING_KEYS}
        return first, second, comparable


# ---------------------------------------------------------------------------
# ColumnBatch
# ---------------------------------------------------------------------------


class TestColumnBatch:
    def test_from_records_roundtrip(self):
        records = [{"a": 1, "b": "x"}, {"a": 2, "b": None}]
        batch = ColumnBatch.from_records(records, ["a", "b"])
        assert len(batch) == 2
        assert batch.to_records() == records
        assert list(batch) == records

    def test_missing_fields_read_as_none(self):
        batch = ColumnBatch.from_records([{"a": 1}], ["a", "b"])
        assert batch.to_records() == [{"a": 1, "b": None}]

    def test_column_and_null_mask(self):
        batch = ColumnBatch.from_records(
            [{"a": 1}, {"a": None}, {"a": 3}], ["a"])
        assert batch.column("a") == [1, None, 3]
        assert batch.null_mask("a") == [False, True, False]
        # masks are cached per batch
        assert batch.null_mask("a") is batch.null_mask("a")

    def test_project_shares_column_vectors(self):
        batch = ColumnBatch.from_records(
            [{"a": i, "b": -i, "c": str(i)} for i in range(100)],
            ["a", "b", "c"])
        projected = batch.project(["a", "c"])
        assert projected.fields == ("a", "c")
        assert len(projected) == 100
        assert projected.column("a") is batch.column("a")
        assert projected.to_records() == \
            [{"a": i, "c": str(i)} for i in range(100)]

    def test_project_to_zero_fields_keeps_length(self):
        batch = ColumnBatch.from_records([{"a": 1}, {"a": 2}], ["a"])
        empty = batch.project([])
        assert len(empty) == 2
        assert empty.to_records() == [{}, {}]

    def test_slice(self):
        batch = ColumnBatch.from_records(
            [{"a": i} for i in range(10)], ["a"])
        chunk = batch.slice(3, 7)
        assert len(chunk) == 4
        assert chunk.to_records() == [{"a": i} for i in range(3, 7)]
        assert len(batch.slice(8, 100)) == 2
        assert len(batch.slice(20, 30)) == 0

    def test_has_fields(self):
        batch = ColumnBatch.from_records([{"a": 1, "b": 2}], ["a", "b"])
        assert batch.has_fields(["a"])
        assert batch.has_fields(["a", "b"])
        assert not batch.has_fields(["a", "z"])

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(st.fixed_dictionaries({
               "a": st.integers(-1000, 1000),
               "b": st.one_of(st.none(), st.text(max_size=6)),
               "c": st.floats(allow_nan=False, allow_infinity=False)}),
               max_size=40),
           keep=st.lists(st.sampled_from(["a", "b", "c"]), unique=True),
           cut=st.integers(0, 45))
    def test_roundtrip_property(self, records, keep, cut):
        """from_records -> iterate/project/slice reproduces row semantics."""
        fields = ["a", "b", "c"]
        batch = ColumnBatch.from_records(records, fields)
        assert len(batch) == len(records)
        assert batch.to_records() == records
        assert batch.project(keep).to_records() == \
            [{name: record.get(name) for name in keep} for record in records]
        assert batch.slice(0, cut).to_records() == records[:cut]
        assert batch.null_mask("b") == \
            [record["b"] is None for record in records]


# ---------------------------------------------------------------------------
# Columnar scans
# ---------------------------------------------------------------------------


class CountingRecord(dict):
    """A record that counts ``get`` calls per field (a pivot reads via get)."""

    reads: Counter = Counter()

    def get(self, name, default=None):
        CountingRecord.reads[name] += 1
        return super().get(name, default)


class TestColumnarScan:
    def test_full_width_scan_passes_source_records_through(self):
        """No consumer asked for columns: the scan hands over the rows."""
        source = InMemorySource("kv", RECORDS, schema=SCHEMA)
        with make_engine() as ctx:
            ds = ctx.from_source(source, num_partitions=2)
            batches = list(ds.compute_batches(0, _task_context(), 100))
            assert batches and all(isinstance(b, list) for b in batches)
            scanned = [record for batch in batches for record in batch]
            half = RECORDS[:len(RECORDS) // 2]
            assert len(scanned) == len(half)
            assert all(got is given for got, given in zip(scanned, half))
        assert source._column_store == {}

    def test_projection_over_source_scans_requested_columns(self):
        with make_engine() as ctx:
            ds = ctx.from_source(InMemorySource("kv", RECORDS, schema=SCHEMA),
                                 num_partitions=2).project(["v"])
            pruned = ctx._executable_for(ds)
            batches = list(pruned.compute_batches(0, _task_context(), 100))
            assert batches and all(isinstance(b, ColumnBatch) for b in batches)
            assert all(b.fields == ("v",) and set(b.columns) == {"v"}
                       for b in batches)
            assert sum(len(b) for b in batches) == len(RECORDS) // 2

    def test_schemaless_source_falls_back_to_rows(self):
        with make_engine() as ctx:
            ds = ctx.from_source(InMemorySource("kv", RECORDS, schema=None),
                                 num_partitions=2).project(["v"])
            batches = list(ctx._executable_for(ds).compute_batches(
                0, _task_context(), 100))
            assert batches and all(isinstance(b, list) for b in batches)
            assert batches[0][0] == {"v": DATA[0][1]}

    def test_map_partitions_over_pruned_scan_sees_row_dicts(self):
        """A partition UDF above a columnar scan gets plain row dicts."""
        with make_engine() as ctx:
            pruned = ctx.from_source(
                InMemorySource("kv", RECORDS, schema=SCHEMA),
                num_partitions=2).project(["v"])
            scan = ctx._executable_for(pruned)
            assert all(isinstance(batch, ColumnBatch) for batch in
                       scan.compute_batches(0, _task_context(), 100))
            seen = pruned.map_partitions(
                lambda rows: [(type(row), row) for row in rows])
            assert ctx._executable_for(seen).dependencies[0].parent is scan
            assert seen.collect() == [(dict, {"v": v}) for _, v in DATA]

    def test_pruned_scan_reads_only_requested_columns(self):
        source = InMemorySource("kv", RECORDS, schema=SCHEMA)
        with make_engine() as ctx:
            ds = ctx.from_source(source, num_partitions=2).project(["v"])
            rows = ds.collect()
            assert rows == [{"v": v} for _, v in DATA]
            # the source pivoted the one requested field, not the schema
            assert set(source._column_store) == {"v"}

    def test_each_requested_field_is_pivoted_once_across_threads(self):
        """More workers than cores, eight partitions, one pivot per field."""
        records = [CountingRecord(record) for record in RECORDS]
        source = InMemorySource("kv", records, schema=SCHEMA)
        CountingRecord.reads.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_engine(num_workers=4) as ctx:
                ds = ctx.from_source(source, num_partitions=8).project(["k"])
                assert ds.count() == len(RECORDS)
                assert ds.collect() == [{"k": k} for k, _ in DATA]
        finally:
            sys.setswitchinterval(interval)
        assert CountingRecord.reads == {"k": len(RECORDS)}

    def test_source_ships_to_workers_without_its_column_store(self):
        source = InMemorySource("kv", RECORDS, schema=SCHEMA)
        source.read_partition_columns(0, 2, ["k"])
        shipped = pickle.loads(pickle.dumps(source))
        assert shipped._column_store == {}
        assert shipped.read_partition_columns(1, 2, ["v"]).to_records() == \
            [{"v": v} for _, v in DATA[len(DATA) // 2:]]

    def test_count_over_projection_matches_rows(self):
        with make_engine() as ctx:
            ds = ctx.from_source(InMemorySource("kv", RECORDS, schema=SCHEMA),
                                 num_partitions=4).project(["k"])
            assert ds.count() == len(RECORDS)


def _task_context():
    from repro.engine.dataset import TaskContext
    return TaskContext()


# ---------------------------------------------------------------------------
# Records that do not conform to the declared schema
# ---------------------------------------------------------------------------

AB_SCHEMA = Schema(name="ab", fields=(Field("a", "int"), Field("b", "int")))

#: One record carries a field the schema does not declare, one lacks a
#: declared field.
RAGGED = [{"a": 1, "b": 2, "extra": 9}, {"a": 3}]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("batch_size", [1, 1024])
def test_full_width_scan_keeps_nonconforming_records(batch_size, backend):
    """A full-width scan never drops undeclared fields or fabricates Nones."""
    with make_engine(batch_size, backend) as ctx:
        ds = ctx.from_source(InMemorySource("ab", RAGGED, schema=AB_SCHEMA),
                             num_partitions=2)
        assert ds.collect() == RAGGED
        assert ds.map(lambda record: sorted(record)).collect() == \
            [["a", "b", "extra"], ["a"]]
        # a pruned scan keeps projection semantics: record.get -> None
        assert ds.project(["b"]).collect() == [{"b": 2}, {"b": None}]


def test_pruned_read_uses_record_get_for_any_field():
    """Hand-pruned scans may name fields the schema does not declare."""
    source = InMemorySource("ab", RAGGED, schema=AB_SCHEMA)
    assert source.read_partition_columns(
        0, 1, ["b", "extra", "nowhere"]).to_records() == [
            {"b": 2, "extra": 9, "nowhere": None},
            {"b": None, "extra": None, "nowhere": None}]


# ---------------------------------------------------------------------------
# Parity: columnar vs row-pruned scan x batch size x backend, all wide ops
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize("pipeline_name", sorted(PIPELINES))
def test_columnar_parity_thread(pipeline_name, batch_size):
    """A columnar scan and a row-pruned scan agree record-for-record and
    metric-for-metric."""
    columnar_first, columnar_second, columnar_metrics = run_schema_pipeline(
        pipeline_name, batch_size=batch_size)
    rows_first, rows_second, rows_metrics = run_schema_pipeline(
        pipeline_name, schema=None, batch_size=batch_size)
    assert columnar_first == rows_first
    assert columnar_second == rows_second
    assert columnar_metrics == rows_metrics


@pytest.mark.parametrize("pipeline_name", sorted(PIPELINES))
def test_columnar_parity_process_backend(pipeline_name):
    """The process backend sees the same columnar results and metrics."""
    thread = run_schema_pipeline(pipeline_name)
    process = run_schema_pipeline(pipeline_name, backend="process")
    assert process == thread


# ---------------------------------------------------------------------------
# Codec resolution and frame round-trips
# ---------------------------------------------------------------------------


class TestCodecResolution:
    def test_disabled_compression_resolves_to_none(self):
        # spill_codec="none" is the one way to switch compression off
        assert resolve_codec("none") == CODEC_NONE
        assert resolve_codec("NONE") == CODEC_NONE

    def test_auto_prefers_lz4_else_zlib(self):
        resolved = resolve_codec("auto")
        assert resolved == (CODEC_LZ4 if lz4_available() else CODEC_ZLIB)

    def test_explicit_codecs(self):
        assert resolve_codec("none") == CODEC_NONE
        assert resolve_codec("zlib") == CODEC_ZLIB

    def test_unknown_codec_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_codec("snappy")

    def test_explicit_lz4_without_package_rejected(self):
        if lz4_available():  # pragma: no cover - depends on environment
            assert resolve_codec("lz4") == CODEC_LZ4
        else:
            with pytest.raises(ConfigurationError):
                resolve_codec("lz4")

    def test_config_validates_spill_codec(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(spill_codec="gzip")

    def test_codec_names(self):
        assert codec_name(CODEC_NONE) == "none"
        assert codec_name(CODEC_ZLIB) == "zlib"
        assert codec_name(CODEC_LZ4) == "lz4"


class TestCompressedFrames:
    def test_payload_roundtrip(self):
        raw = b"abcabcabc" * 500
        for codec in (CODEC_NONE, CODEC_ZLIB):
            assert decode_payload(encode_payload(raw, codec), codec) == raw
        assert len(encode_payload(raw, CODEC_ZLIB)) < len(raw)

    def test_frames_roundtrip_compressed(self, tmp_path):
        records = [{"url": f"/page/{i % 20}", "status": 200}
                   for i in range(10_000)]
        plain = dump_frames(records, CODEC_NONE)
        packed = dump_frames(records, CODEC_ZLIB)
        assert len(packed) < len(plain) / 2
        path = tmp_path / "frames.bin"
        path.write_bytes(packed)
        assert load_frames(str(path), 0, len(packed)) == records

    def test_mixed_codec_frames_in_one_file(self, tmp_path):
        """Frames are self-describing: readers never consult the config."""
        head = dump_frames(["a"] * 10, CODEC_NONE)
        tail = dump_frames(["b"] * 10, CODEC_ZLIB)
        path = tmp_path / "mixed.bin"
        path.write_bytes(head + tail)
        frames = list(iter_frames(str(path), 0, len(head) + len(tail)))
        assert frames == [["a"] * 10, ["b"] * 10]

    def test_measured_estimate_tracks_codec(self):
        records = [{"url": f"/api/items?page={i % 20}", "service": "frontend"}
                   for i in range(2000)]
        plain = estimate_bytes(records, CODEC_NONE)
        packed = estimate_bytes(records, CODEC_ZLIB)
        assert packed < plain / 2  # measured ratio, not the old constant


# ---------------------------------------------------------------------------
# Backend- and codec-consistent byte accounting; spill shrinkage
# ---------------------------------------------------------------------------

#: Compressible pair records (web-log-ish values) for the byte tests.
LOG_PAIRS = [(i % 7, f"GET /api/items?page={i % 20}&session=s{i % 10:04d}")
             for i in range(2000)]


def run_log_group_by(backend: str, codec: str, **overrides):
    options = {"num_workers": 2, "default_parallelism": 4, "seed": 1,
               "executor_backend": backend, "spill_codec": codec,
               "broadcast_threshold_bytes": 0}
    options.update(overrides)
    with EngineContext(EngineConfig(**options)) as ctx:
        result = ctx.parallelize(LOG_PAIRS, 4).group_by_key(4).collect()
        summary = ctx.metrics.summary()
        comparable = {key: value for key, value in summary.items()
                      if key not in _TIMING_KEYS}
        return result, comparable


@pytest.mark.parametrize("codec", ["none", "zlib"])
def test_byte_metrics_backend_invariant_per_codec(codec):
    """Write-side measured estimates agree across thread/process backends."""
    thread = run_log_group_by("thread", codec)
    process = run_log_group_by("process", codec)
    assert process == thread


def test_compressed_estimates_below_uncompressed():
    _, none_metrics = run_log_group_by("thread", "none")
    _, zlib_metrics = run_log_group_by("thread", "zlib")
    assert zlib_metrics["shuffle_bytes"] < none_metrics["shuffle_bytes"]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_skew_split_parity_under_compression(backend):
    """Skew-split sub-reads stay exact over compressed, spilled shuffles."""
    overrides = {"skew_split_factor": 4, "skew_min_partition_bytes": 1,
                 "shuffle_memory_bytes": TINY_CAP}
    result, metrics = run_log_group_by(backend, "zlib", **overrides)
    plain_result, _ = run_log_group_by("thread", "none")
    assert result == plain_result
    assert metrics["spills"] > 0


def test_compression_shrinks_spill_bytes():
    """Acceptance: compressed spill frames move >= 2x fewer bytes to disk."""
    compressed_result, compressed = run_log_group_by(
        "thread", "zlib", shuffle_memory_bytes=TINY_CAP)
    plain_result, plain = run_log_group_by(
        "thread", "none", shuffle_memory_bytes=TINY_CAP)
    assert compressed_result == plain_result
    assert plain["spills"] > 0 and compressed["spills"] > 0
    assert compressed["spill_bytes"] * 2 <= plain["spill_bytes"]
