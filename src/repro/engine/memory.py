"""Task memory manager and the frame store every on-disk payload goes through.

The engine's shuffle path is resident by default: map-output buckets and
reduce-side intermediates live in Python lists, so the largest workload is
bounded by RAM.  When ``EngineConfig.shuffle_memory_bytes`` is set, the
:class:`MemoryManager` tracks every shuffle bucket and reduce-side partial
against that budget, and the owners react to pressure by *spilling*:

* the :class:`~repro.engine.shuffle.ShuffleManager` serialises cold buckets
  to a per-shuffle spill file and streams them back on read;
* the wide operators in :mod:`repro.engine.dataset` fold their input into
  bounded partials, spill finished runs (:class:`SpillRun`) and merge the
  runs back with the per-operator slice-merge semantics.

Accounting deliberately reuses the estimated byte sizes the shuffle layer
already measures (``estimate_bytes``), so bounded and unbounded runs report
identical shuffle metrics; only the spill counters differ.

Every framed file the engine writes — spill runs, shuffle-bucket spills,
map output, checkpoint partitions, parallelised input — goes through one
*frame store*: :class:`SpillFile` appends records and returns their
:class:`Span` ``(path, offset, length, count)``, and :func:`load_span` is
the one verified read.  A payload is a sequence of pickled record batches
(frames), so readers can stream a large bucket or run back one frame at a
time.  Each frame is self-describing — a header carries the compression
codec and payload length — so readers need no configuration and
mixed-codec files stream back correctly.  Each frame also carries a CRC32
of its payload (the header's codec byte sets :data:`CRC_FLAG`), and every
read verifies it, requires the frames to fill the span exactly and checks
the span's record count: a mismatch, a malformed or checksum-less header,
or a span cut short raises :class:`~repro.errors.ShuffleCorruptionError`
instead of feeding garbage — or too few records — downstream.
:func:`verify_span` runs the same header, CRC and extent checks without
decoding a payload, for callers that only need to know a span is intact.
"""

from __future__ import annotations

import io
import os
import pickle
import random
import struct
import threading
import uuid
import zlib
from typing import (Any, BinaryIO, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from ..errors import ConfigurationError, ShuffleCorruptionError

try:  # optional accelerator codec; zlib is the stdlib fallback
    import lz4.frame as _lz4
except ImportError:  # pragma: no cover - lz4 is an optional dependency
    _lz4 = None

#: Records per pickle frame in spill payloads.  Small enough that streaming
#: readers hold one bounded batch in memory, large enough that framing
#: overhead is negligible.
SPILL_FRAME_RECORDS = 4096

# -- frame codecs -------------------------------------------------------------

#: Frame codec ids, stored in every frame header.
CODEC_NONE = 0
CODEC_ZLIB = 1
CODEC_LZ4 = 2

_CODEC_IDS = {"none": CODEC_NONE, "zlib": CODEC_ZLIB, "lz4": CODEC_LZ4}
_CODEC_NAMES = {value: key for key, value in _CODEC_IDS.items()}

#: Per-frame header: one codec byte + the compressed payload length.
_FRAME_HEADER = struct.Struct("<BI")

#: Bit set on the header's codec byte: a CRC32 of the payload follows the
#: header.  Every frame carries it; a frame without it is corrupt.
CRC_FLAG = 0x80

#: The CRC32 trailer of a frame, between header and payload.
_FRAME_CRC = struct.Struct("<I")


def lz4_available() -> bool:
    """Whether the optional ``lz4`` package is importable."""
    return _lz4 is not None


def codec_name(codec: int) -> str:
    """The configuration name of a frame codec id (for docs and benchmarks)."""
    return _CODEC_NAMES.get(codec, f"unknown-{codec}")


def resolve_codec(name: str = "auto") -> int:
    """Resolve a configured codec name to a frame codec id.

    ``auto`` prefers lz4 when the optional package is importable and falls
    back to the stdlib zlib otherwise; asking for ``lz4`` explicitly on a
    host without the package is a configuration error rather than a silent
    downgrade.  ``none`` (compression switched off) resolves to
    :data:`CODEC_NONE`.
    """
    key = (name or "auto").lower()
    if key == "auto":
        return CODEC_LZ4 if _lz4 is not None else CODEC_ZLIB
    if key not in _CODEC_IDS:
        raise ConfigurationError(f"unknown spill codec {name!r}; expected "
                                 "one of: auto, none, zlib, lz4")
    codec = _CODEC_IDS[key]
    if codec == CODEC_LZ4 and _lz4 is None:
        raise ConfigurationError("spill codec 'lz4' requested but the lz4 "
                                 "package is not installed")
    return codec


def encode_payload(raw: bytes, codec: int) -> bytes:
    """Compress one raw frame payload with ``codec``.

    zlib runs at level 1: spill and transport frames are written once and
    read back within the same job, so encode speed dominates ratio.
    """
    if codec == CODEC_ZLIB:
        return zlib.compress(raw, 1)
    if codec == CODEC_LZ4:
        return _lz4.compress(raw)  # pragma: no cover - needs optional lz4
    return raw


def decode_payload(payload: bytes, codec: int) -> bytes:
    """Decompress one frame payload written by :func:`encode_payload`."""
    if codec == CODEC_ZLIB:
        return zlib.decompress(payload)
    if codec == CODEC_LZ4:
        return _lz4.decompress(payload)  # pragma: no cover - optional lz4
    return payload


# -- corruption fault injection ----------------------------------------------


def should_inject(seed: int, rate: float, key: str) -> bool:
    """Seeded fault-injection decision, drawn with probability ``rate``.

    The decision is a pure function of ``(seed, key)``, so identical runs
    inject identical faults, while a retried attempt or a *re*-written
    payload (recomputed map output, re-spilled bucket — both carry a fresh
    key) draws a fresh decision instead of failing forever.
    """
    return rate > 0.0 and random.Random(f"{seed}:{key}").random() < rate


def should_corrupt(seed: int, rate: float, key: str) -> bool:
    """Seeded per-write decision of ``EngineConfig.corruption_rate``."""
    return should_inject(seed, rate, f"corrupt:{key}")


def corrupt_payload(payload: bytes, seed: int, key: str) -> bytes:
    """Deterministically damage one framed payload (fault injection).

    Half the draws truncate the payload mid-frame, the other half flip one
    bit at a seeded position — the two disk-rot shapes the checksummed
    readers must catch.  Tiny payloads always truncate (an empty payload
    stays empty: nothing to corrupt means nothing to detect, harmless).
    """
    rng = random.Random(f"{seed}:corrupt-shape:{key}")
    if len(payload) < 8 or rng.random() < 0.5:
        return payload[:len(payload) // 2]
    position = rng.randrange(len(payload))
    flipped = payload[position] ^ (1 << rng.randrange(8))
    return payload[:position] + bytes([flipped]) + payload[position + 1:]


class MemoryManager:
    """Tracks per-owner memory reservations against a shared budget.

    Owners (the shuffle manager's resident buckets, one entry per spilling
    reduce task) record *absolute* reservations; the manager maintains the
    total and its high-water mark.  With ``budget_bytes == 0`` the manager
    is unbounded: reservations are still tracked (so peak residency can be
    reported) but nobody is ever asked to spill.
    """

    def __init__(self, budget_bytes: int = 0):
        self.budget_bytes = max(0, int(budget_bytes))
        self._lock = threading.Lock()
        self._reservations: Dict[Any, int] = {}
        self._used = 0
        self._peak = 0

    @property
    def bounded(self) -> bool:
        """True when a non-zero budget is configured."""
        return self.budget_bytes > 0

    def reserve(self, owner: Any, nbytes: int) -> int:
        """Set ``owner``'s reservation to ``nbytes``; return total used bytes."""
        nbytes = max(0, int(nbytes))
        with self._lock:
            previous = self._reservations.pop(owner, 0)
            if nbytes:
                self._reservations[owner] = nbytes
            self._used += nbytes - previous
            if self._used > self._peak:
                self._peak = self._used
            return self._used

    def release(self, owner: Any) -> None:
        """Drop ``owner``'s reservation entirely."""
        self.reserve(owner, 0)

    @property
    def used_bytes(self) -> int:
        """Currently reserved bytes across all owners."""
        with self._lock:
            return self._used

    @property
    def peak_bytes(self) -> int:
        """High-water mark of :attr:`used_bytes` since the last reset."""
        with self._lock:
            return self._peak

    def reset_peak(self) -> None:
        """Reset the high-water mark to the current usage (benchmarks)."""
        with self._lock:
            self._peak = self._used

    def task_run_budget(self, num_workers: int) -> int:
        """Per-task byte budget of one reduce-side in-memory run.

        A quarter of the global budget, split across the worker slots that
        may be merging concurrently — so even with every slot holding a
        full run on top of a budget-full bucket store (plus one in-flight
        map output), total tracked residency stays within ~1.5x the budget.
        ``0`` when the manager is unbounded (callers then never engage the
        external path).
        """
        if not self.bounded:
            return 0
        return max(1, self.budget_bytes // (4 * max(1, num_workers)))


# ---------------------------------------------------------------------------
# The frame store: one span type, one writer, one verified read
# ---------------------------------------------------------------------------


class Span(NamedTuple):
    """Where one framed payload lives, and how many records its frames hold.

    The count is part of the span because CRCs alone cannot tell a span
    cut short at a frame boundary from a whole one: every read checks it.
    """

    path: str
    offset: int
    length: int
    count: int


def dump_frames(records: Sequence[Any], codec: int = CODEC_NONE) -> bytes:
    """Serialise ``records`` as a sequence of pickled, headed batch frames.

    Every frame is ``header (codec id | CRC_FLAG, payload length) + CRC32 +
    payload``; with a compressing ``codec`` the payload is the compressed
    pickle, so the returned length is the *measured* on-disk size — the
    number the spill and shuffle byte counters report.  The CRC32 lets
    every read verify the payload survived the disk round trip.
    """
    buffer = io.BytesIO()
    for start in range(0, len(records), SPILL_FRAME_RECORDS):
        raw = pickle.dumps(records[start:start + SPILL_FRAME_RECORDS],
                           protocol=pickle.HIGHEST_PROTOCOL)
        payload = encode_payload(raw, codec)
        buffer.write(_FRAME_HEADER.pack(codec | CRC_FLAG, len(payload)))
        buffer.write(_FRAME_CRC.pack(zlib.crc32(payload)))
        buffer.write(payload)
    return buffer.getvalue()


def load_frames(path: str, offset: int, length: int) -> List[Any]:
    """Load a whole framed payload back into one record list."""
    records: List[Any] = []
    for batch in iter_frames(path, offset, length):
        records.extend(batch)
    return records


def load_frames_bytes(payload: bytes, label: str = "<fetched>") -> List[Any]:
    """Load a framed payload already held in memory (a TCP-fetched span).

    The networked shuffle's fetch client verifies every frame of a fetched
    span through this path — the very CRC/structure checks on-disk reads
    run — so a payload damaged on the wire is caught before a single
    record reaches the reduce side; the caller, which holds the span, then
    applies :func:`check_count`.  ``label`` names the payload's origin in
    :class:`~repro.errors.ShuffleCorruptionError` diagnostics.
    """
    records: List[Any] = []
    for batch in _iter_frame_stream(io.BytesIO(payload), 0, len(payload),
                                    label):
        records.extend(batch)
    return records


def iter_frames(path: str, offset: int, length: int) -> Iterator[List[Any]]:
    """Stream a framed payload back one batch at a time, verifying CRCs.

    The per-frame headers make the payload self-describing: the reader
    needs no codec configuration, and frames written under different codecs
    coexist in one file.  Any integrity failure — CRC mismatch, truncated
    header or payload, a codec byte that is unknown or lacks
    :data:`CRC_FLAG`, a frame running past ``offset + length``, an
    undecodable payload — raises :class:`~repro.errors.ShuffleCorruptionError`
    naming the file and frame offset, never yielding garbage records.
    """
    with _open_frames(path, offset) as handle:
        yield from _iter_frame_stream(handle, offset, length, path)


def _open_frames(path: str, offset: int) -> BinaryIO:
    """Open a frame file for reading; unreadable is corrupt."""
    try:
        return open(path, "rb")
    except OSError as error:
        raise ShuffleCorruptionError(
            f"framed payload {path!r} is unreadable: {error}",
            path=path, offset=offset) from error


def _corrupt_frame(label: str, frame_offset: int,
                   reason: str) -> ShuffleCorruptionError:
    return ShuffleCorruptionError(
        f"corrupt frame in {label!r} at offset {frame_offset}: {reason}",
        path=label, offset=frame_offset)


def _iter_payloads(handle: BinaryIO, offset: int, length: int,
                   label: str) -> Iterator[Tuple[int, bytes, int]]:
    """``(codec, payload, frame offset)`` of each frame, structure and CRC
    checked, payload still encoded and pickled."""
    handle.seek(offset)
    end = offset + length
    while handle.tell() < end:
        frame_offset = handle.tell()
        header = handle.read(_FRAME_HEADER.size)
        if len(header) < _FRAME_HEADER.size:
            raise _corrupt_frame(label, frame_offset, "truncated frame header")
        flagged_codec, size = _FRAME_HEADER.unpack(header)
        codec = flagged_codec & ~CRC_FLAG
        if not flagged_codec & CRC_FLAG or codec not in _CODEC_NAMES:
            raise _corrupt_frame(label, frame_offset,
                                 f"bad codec byte {flagged_codec:#x}")
        trailer = handle.read(_FRAME_CRC.size)
        if len(trailer) < _FRAME_CRC.size:
            raise _corrupt_frame(label, frame_offset,
                                 "truncated frame checksum")
        (expected_crc,) = _FRAME_CRC.unpack(trailer)
        if handle.tell() + size > end:
            raise _corrupt_frame(
                label, frame_offset,
                f"{size}-byte payload runs past the end of the span")
        payload = handle.read(size)
        if len(payload) < size:
            raise _corrupt_frame(
                label, frame_offset,
                f"payload truncated to {len(payload)} of {size} bytes")
        if zlib.crc32(payload) != expected_crc:
            raise _corrupt_frame(label, frame_offset,
                                 f"CRC32 mismatch over {size} payload bytes")
        yield codec, payload, frame_offset


def _iter_frame_stream(handle: BinaryIO, offset: int, length: int,
                       label: str) -> Iterator[List[Any]]:
    """Frame-decoding core shared by file and in-memory payload readers."""
    for codec, payload, frame_offset in _iter_payloads(handle, offset, length,
                                                       label):
        try:
            batch = pickle.loads(decode_payload(payload, codec))
        except Exception as error:  # noqa: BLE001 - any decode failure is rot
            # the CRC covers the payload only: a flipped codec byte that
            # names another valid codec gets this far
            raise _corrupt_frame(label, frame_offset,
                                 f"payload failed to decode: {error}") from error
        yield batch


def check_count(span: Span, count: int) -> None:
    """Raise unless ``count`` records came back from ``span``.

    The last step of every span read, from a file (:func:`load_span`,
    :meth:`SpillRun.iter_records`) or over TCP
    (:meth:`~repro.engine.transport.TcpShuffleTransport.read_span`).
    """
    if count != span.count:
        raise ShuffleCorruptionError(
            f"span of {span.path!r} at offset {span.offset} came back "
            f"{count} records, expected {span.count}",
            path=span.path, offset=span.offset)


def load_span(span: Span) -> List[Any]:
    """The verified read: one span's records, every CRC and the count checked."""
    records = load_frames(span.path, span.offset, span.length)
    check_count(span, len(records))
    return records


def verify_span(span: Span) -> None:
    """The structural check: every header and CRC, frames filling the span.

    Raises :class:`~repro.errors.ShuffleCorruptionError` on exactly the
    damage :func:`load_span` finds before decoding, but never decompresses
    or unpickles a payload, so it cannot see a codec byte flipped to
    another valid codec or a wrong record count.  Journal revalidation
    uses it; every consumer still reads through :func:`load_span`, which
    catches the rest.
    """
    with _open_frames(span.path, span.offset) as handle:
        for _ in _iter_payloads(handle, span.offset, span.length, span.path):
            pass


class SpillFile:
    """The one frame-file writer: append records, get back their span.

    Appends only ever add to the end of the file, so a returned span stays
    valid for as long as the file exists and readers need no coordination
    with the writer.  The file is opened (created if absent) on the first
    append, after its records are framed: records that refuse to pickle
    raise before the disk is touched, and an output-less writer leaves no
    file.  The writer never deletes its file — the directory it lives in
    decides that (``docs/architecture.md``, "Frames and spans").
    """

    def __init__(self, path: str, codec: int = CODEC_NONE):
        self.path = path
        self.codec = codec
        self._handle: Optional[BinaryIO] = None

    def append(self, records: Sequence[Any],
               damage: Optional[Callable[[bytes], bytes]] = None) -> Span:
        """Frame ``records`` onto the end of the file; return their span.

        ``damage`` is a seeded corruption injector: it is handed the framed
        bytes and returns the bytes to write, so the span stays truthful and
        only the read-side checks can expose the loss.  The offset is re-read
        from the file on every append, so an append that died mid-write
        (disk full) cannot desynchronise later spans from the file.
        """
        payload = dump_frames(records, self.codec)
        if damage is not None:
            payload = damage(payload)
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.seek(0, os.SEEK_END)
        offset = self._handle.tell()
        self._handle.write(payload)
        self._handle.flush()
        return Span(self.path, offset, len(payload), len(records))

    def sync(self) -> None:
        """Force everything appended so far to durable storage (fsync).

        Checkpoints and journalled shuffle files call this so their spans
        survive a driver crash; scratch files skip the cost — they only need
        to outlive the writer, not the machine.
        """
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the write handle, keeping the file for readers (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SpillFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SpillRun:
    """One spilled reduce-side partial: a sorted run / dict of combiners.

    ``kind`` records how the payload was framed so the merge phase knows how
    to bring it back:

    ``"list"``
        frames of records; :meth:`iter_records` streams them (sorted runs
        feed ``heapq.merge`` without ever materialising the whole run).
    ``"dict"``
        frames of ``(key, value)`` items; :meth:`load_dict` rebuilds the
        partial dict (grouping and combiner merges fold partials one at a
        time, so at most one run is resident during the merge).
    """

    def __init__(self, span: Span, kind: str):
        self.span = span
        self.kind = kind

    @classmethod
    def write(cls, spill_dir: str, partial: Any,
              codec: int = CODEC_NONE) -> "SpillRun":
        """Write one partial to a fresh run file under ``spill_dir``.

        Records that refuse to pickle raise before the file exists (the
        caller keeps the partial resident); a disk failure raises
        ``OSError``, which must propagate — silently growing unbounded would
        defeat the configured memory budget.
        """
        if isinstance(partial, dict):
            kind, records = "dict", list(partial.items())
        else:
            kind, records = "list", list(partial)
        path = os.path.join(spill_dir, f"run-{uuid.uuid4().hex}.spill")
        with SpillFile(path, codec) as writer:
            return cls(writer.append(records), kind)

    def iter_records(self) -> Iterator[Any]:
        """Stream a ``list`` run back record by record (one frame resident).

        The record count is checked once the run is drained.
        """
        path, offset, length, _ = self.span
        count = 0
        for batch in iter_frames(path, offset, length):
            count += len(batch)
            yield from batch
        check_count(self.span, count)

    def load_dict(self) -> Dict[Any, Any]:
        """Rebuild a ``dict`` run (frames of items) into one dict."""
        return dict(load_span(self.span))

    def delete(self) -> None:
        """Remove the run file (idempotent)."""
        try:
            os.remove(self.span.path)
        except OSError:
            pass


