"""The frame store: one span type, one writer, one verified read.

Every framed file the engine writes goes through ``SpillFile.append`` and
comes back through ``load_span`` (or, over TCP, ``load_frames_bytes``
followed by the same record-count check).  The contract under test: a
span read returns exactly the records appended, and *any* single-bit flip
or truncation of a span — of the file under it, or of the span's own
length, including a cut exactly at a frame boundary — raises
``ShuffleCorruptionError`` instead of returning garbage or too few records.
"""

from __future__ import annotations

import os
import threading
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import memory
from repro.engine.memory import (CODEC_LZ4, CODEC_NONE, CODEC_ZLIB, Span,
                                 SpillFile, check_count, codec_name,
                                 load_frames_bytes, load_span, lz4_available)
from repro.errors import ShuffleCorruptionError

CODECS = [CODEC_NONE, CODEC_ZLIB] + ([CODEC_LZ4] if lz4_available() else [])

#: Records per frame in these tests: small frames keep every enumerated
#: damage cheap to read back while still giving a span several frames.
FRAME = 2

RECORDS = [(0, "a"), (1, "bb"), (2, "ccc"), (3, "dddd"), (4, "e")]


def small_frames():
    return mock.patch.object(memory, "SPILL_FRAME_RECORDS", FRAME)


def read_fetched(span: Span, payload: bytes):
    """The TCP read: decode the fetched bytes, then the shared count check."""
    records = load_frames_bytes(payload)
    check_count(span, len(records))
    return records


def write_span(path, records, codec):
    with small_frames(), SpillFile(str(path), codec) as writer:
        return writer.append(records)


def frame_boundaries(span: Span):
    """Offsets (relative to the span) where one frame ends and the next starts."""
    with open(span.path, "rb") as handle:
        handle.seek(span.offset)
        blob = handle.read(span.length)
    boundaries, position = [], 0
    while position < len(blob):
        (_, size) = memory._FRAME_HEADER.unpack_from(blob, position)
        position += memory._FRAME_HEADER.size + memory._FRAME_CRC.size + size
        boundaries.append(position)
    return boundaries


@pytest.mark.parametrize("codec", CODECS, ids=codec_name)
def test_every_bit_flip_and_truncation_is_detected(tmp_path, codec):
    path = tmp_path / "span.data"
    span = write_span(path, RECORDS, codec)
    pristine = path.read_bytes()
    assert len(frame_boundaries(span)) == 3, "the span must hold three frames"
    assert load_span(span) == read_fetched(span, pristine) == RECORDS

    frame_starts = [0] + frame_boundaries(span)[:-1]
    for position in range(len(pristine)):
        for bit in range(8):
            damaged = bytearray(pristine)
            damaged[position] ^= 1 << bit
            path.write_bytes(bytes(damaged))
            with pytest.raises(ShuffleCorruptionError):
                load_span(span)
            with pytest.raises(ShuffleCorruptionError):
                read_fetched(span, bytes(damaged))
            # the structural check misses only a codec byte that now names
            # another valid codec: the CRC covers the payload alone
            flagged = damaged[position]
            if position in frame_starts and flagged & memory.CRC_FLAG and \
                    flagged & ~memory.CRC_FLAG in memory._CODEC_NAMES:
                memory.verify_span(span)
            else:
                with pytest.raises(ShuffleCorruptionError):
                    memory.verify_span(span)

    for cut in range(len(pristine)):
        # the file loses its tail under an intact span...
        path.write_bytes(pristine[:cut])
        with pytest.raises(ShuffleCorruptionError):
            load_span(span)
        with pytest.raises(ShuffleCorruptionError):
            read_fetched(span, pristine[:cut])
        with pytest.raises(ShuffleCorruptionError):
            memory.verify_span(span)
        # ...or the span itself is cut short over an intact file
        path.write_bytes(pristine)
        with pytest.raises(ShuffleCorruptionError):
            load_span(span._replace(length=cut))
        if cut in frame_starts:  # whole frames: only the count can tell
            memory.verify_span(span._replace(length=cut))
        else:
            with pytest.raises(ShuffleCorruptionError):
                memory.verify_span(span._replace(length=cut))


@pytest.mark.parametrize("codec", CODECS, ids=codec_name)
def test_span_cut_at_a_frame_boundary_fails_the_count(tmp_path, codec):
    """Every frame left passes its CRC: only the record count can tell."""
    span = write_span(tmp_path / "span.data", RECORDS, codec)
    for boundary in frame_boundaries(span)[:-1]:
        with pytest.raises(ShuffleCorruptionError, match="expected 5"):
            load_span(span._replace(length=boundary))


def test_writer_appends_to_an_existing_file(tmp_path):
    """A second writer on one path appends: earlier spans stay valid."""
    path = tmp_path / "shared.spill"
    first = write_span(path, RECORDS, CODEC_ZLIB)
    second = write_span(path, ["later"], CODEC_NONE)
    assert second.offset == first.offset + first.length
    assert load_span(first) == RECORDS
    assert load_span(second) == ["later"]


def test_writer_creates_no_file_until_the_first_append(tmp_path):
    path = tmp_path / "never.data"
    with SpillFile(str(path)) as writer:
        writer.sync()  # nothing to sync yet
        with pytest.raises(TypeError):
            writer.append([threading.Lock()])  # refuses to pickle
    assert not os.path.exists(path)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(batches=st.lists(
           st.lists(st.one_of(st.integers(), st.text(max_size=8),
                              st.tuples(st.integers(), st.booleans())),
                    max_size=9),
           min_size=1, max_size=5),
       codec=st.sampled_from(CODECS))
def test_round_trip_through_file_and_fetched_reads(tmp_path, batches, codec):
    """Writer -> file read and writer -> fetched-bytes read, span by span."""
    path = tmp_path / "round-trip.data"
    if path.exists():  # tmp_path is shared by every generated example
        path.unlink()
    with small_frames(), SpillFile(str(path), codec) as writer:
        spans = [writer.append(batch) for batch in batches]
    blob = path.read_bytes()
    assert sum(span.length for span in spans) == len(blob)
    for span, batch in zip(spans, batches):
        assert span.count == len(batch)
        assert load_span(span) == batch
        fetched = blob[span.offset:span.offset + span.length]
        assert read_fetched(span, fetched) == batch
