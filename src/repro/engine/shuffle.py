"""Shuffle manager with optional spill-to-disk buckets.

Wide transformations are executed in two steps, exactly as in a distributed
engine: map-side tasks bucket their output records by reduce partition and
register the buckets here; reduce-side tasks then fetch and concatenate the
buckets addressed to them.  Byte accounting is estimated from a sample of the
bucket so that shuffle volume can be reported without serialising everything.

A bucket lives in one of two places: resident, as a Python list, or on
disk, as a :class:`~repro.engine.memory.Span` of a frame file — spilled by
this manager, written by a worker process or by the networked write path,
or re-registered from a journal.  By default every bucket stays resident.
When the owning context runs memory-bounded
(``EngineConfig.shuffle_memory_bytes`` > 0, tracked by a
:class:`~repro.engine.memory.MemoryManager`), writes that push the resident
total over the budget spill the coldest buckets to a per-shuffle spill file
(see :mod:`repro.engine.memory`); reads — full, ranged (``map_range=``) and
streaming — transparently bring spans back.  Byte accounting always uses
the map-side estimates measured at write time, so bounded and unbounded
runs report identical shuffle metrics; with compression on, the estimates
are scaled by the measured ratio of the active codec rather than a
simulated constant.

Every map task also keeps a bounded key sample of its own output
(:func:`sample_map_output`) next to it — a list of references on the
resident path, one more span in the map-output file where the buckets are
framed — so the statistics layer estimates a shuffle's key distribution by
reading samples, never by decoding the shuffle.  Samples are outside all
byte, record and memory accounting.
"""

from __future__ import annotations

import bisect
import itertools
import os
import pickle
import random
import threading
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..errors import FetchFailedError, ShuffleCorruptionError, ShuffleError
from .memory import (CODEC_NONE, MemoryManager, Span, SpillFile,
                     encode_payload, load_span, resolve_codec)
from .retry import Faults, policy

#: Reduce partition -> (span, estimated bytes): the map output one task
#: registers, and (keyed by ``(map, reduce)``) a shuffle's span catalog.
SpanMap = Dict[Any, Tuple[Span, int]]

#: Records in one map task's key sample, and the most a key-distribution
#: estimate decodes per map.
KEY_SAMPLE_SIZE = 512

_SAMPLE_SIZE = 20
#: Records in the (larger) sample used to *measure* the compression ratio.
#: Codecs need enough context to find repetition; a 20-record sample is
#: overhead-dominated and would systematically understate the ratio the
#: 4096-record spill frames actually achieve.
_RATIO_SAMPLE_SIZE = 256


def _stride_sample(records: Sequence[Any], size: int) -> List[Any]:
    """Pick up to ``size`` records evenly spread across ``records``.

    A head sample (``records[:size]``) is badly biased on sorted or
    heterogeneous data — e.g. buckets whose small records sort first — so the
    sample strides the whole sequence instead.
    """
    total = len(records)
    if total <= size:
        return list(records)
    step = total / size
    return [records[int(index * step)] for index in range(size)]


def estimate_bytes(records: Sequence[Any], codec: Optional[int] = None) -> int:
    """Estimate the serialised size of ``records``.

    A small stride-sample across the whole sequence is pickled and the
    average record size is extrapolated.  Unless ``codec`` is
    :data:`~repro.engine.memory.CODEC_NONE` (the uncompressed size) the
    extrapolation is scaled by a *measured* compression ratio: a larger
    stride sample is pickled and run through ``codec`` (the frame codec
    spill and transport frames are actually written with; ``None`` means
    the ``auto`` one), replacing the constant 2.5x ratio earlier revisions
    merely simulated.  The ratio is
    capped at 1.0 — tiny payloads where codec overhead wins never inflate
    the estimate above the uncompressed one.  Unpicklable records fall back
    to ``repr`` lengths; that fallback never applies compression — a
    ``repr`` is not a compressible serialised payload, and scaling it
    systematically undercounted such buckets.
    """
    if not records:
        return 0
    sample = _stride_sample(records, _SAMPLE_SIZE)
    fallback = False
    try:
        raw = pickle.dumps(sample, protocol=pickle.HIGHEST_PROTOCOL)
        sample_bytes = len(raw)
    except Exception:
        sample_bytes = sum(len(repr(record)) for record in sample)
        fallback = True
    per_record = max(1.0, sample_bytes / len(sample))
    total = int(per_record * len(records))
    if not fallback:
        if codec is None:
            codec = resolve_codec()
        if codec != CODEC_NONE:
            if len(records) > _SAMPLE_SIZE:
                # a smaller bucket is its own ratio sample, pickled above
                raw = pickle.dumps(_stride_sample(records, _RATIO_SAMPLE_SIZE),
                                   protocol=pickle.HIGHEST_PROTOCOL)
            ratio = min(1.0, len(encode_payload(raw, codec)) / max(1, len(raw)))
            total = int(total * ratio)
    return max(1, total)


def sample_map_output(shuffle_id: int, map_partition: int,
                      buckets: Dict[int, Sequence[Any]]) -> List[Any]:
    """One map task's key sample: up to :data:`KEY_SAMPLE_SIZE` records.

    The map's records are taken in reduce-partition order and the sample
    is ``KEY_SAMPLE_SIZE`` seeded random positions among them — all of
    them when the map wrote no more — kept in draw order, so every prefix
    of the sample is itself a uniform sample (:meth:`ShuffleManager.
    sample_records` reads prefixes).  The seed is the shuffle and map ids:
    the sample is a function of the map's output alone, identical on
    every backend, transport and memory budget and for every attempt.
    """
    ordered = [buckets[reduce] for reduce in sorted(buckets) if buckets[reduce]]
    ends = list(itertools.accumulate(len(records) for records in ordered))
    if not ends:
        return []
    rng = random.Random(f"shuffle-sample:{shuffle_id}:{map_partition}")
    sample = []
    for position in rng.sample(range(ends[-1]), min(ends[-1], KEY_SAMPLE_SIZE)):
        index = bisect.bisect_right(ends, position)
        records = ordered[index]
        sample.append(records[position - ends[index] + len(records)])
    return sample


def _largest_remainder(size: int, counts: Sequence[int]) -> List[int]:
    """Split ``size`` slots over ``counts`` proportionally; every count
    whole when they total no more than ``size``."""
    total = sum(counts)
    if total <= size:
        return list(counts)
    shares = [size * count // total for count in counts]
    by_remainder = sorted(range(len(counts)),
                          key=lambda index: -(size * counts[index] % total))
    for index in by_remainder[:size - sum(shares)]:
        shares[index] += 1
    return shares


def write_buckets(writer: SpillFile, shuffle_id: int, map_partition: int,
                  buckets: Dict[int, List[Any]],
                  damage: Callable[[bytes], bytes]
                  ) -> Tuple[SpanMap, Optional[Span]]:
    """Frame one map task's buckets and key sample into ``writer``.

    Returns the bucket spans and the span of the map's key sample
    (:func:`sample_map_output`, ``None`` when the map wrote no records),
    appended last to the same file; the writer is closed.  Each bucket's
    size is the ``estimate_bytes`` measurement the resident path records,
    so registering these spans reproduces the thread backend's shuffle
    metrics exactly.  ``damage`` is the caller's seeded corruption
    injector (see :meth:`SpillFile.append`); it spares the sample, which
    only feeds statistics.
    """
    sample = sample_map_output(shuffle_id, map_partition, buckets)
    with writer:
        spans = {reduce_partition: (
                     writer.append(records, damage),
                     estimate_bytes(records, writer.codec))
                 for reduce_partition, records in buckets.items()}
        return spans, writer.append(sample) if sample else None


@contextmanager
def lost_map_output(shuffle_id: int, map_partition: int) -> Iterator[None]:
    """Turn a damaged span read into the fetch failure the scheduler acts on.

    A span that cannot be produced means one map partition's output is
    lost; :class:`FetchFailedError` names it, so the scheduler invalidates
    exactly that output and recomputes it from lineage rather than failing
    the job or blindly retrying the reduce task against the same bytes.
    """
    try:
        yield
    except ShuffleCorruptionError as exc:
        raise FetchFailedError(
            f"lost map output {map_partition} of shuffle {shuffle_id}: "
            f"{exc}", shuffle_id=shuffle_id,
            map_partition=map_partition) from exc


class ShuffleManager:
    """Stores map-side shuffle output, keyed by shuffle id and partition."""

    def __init__(self, memory_manager: Optional[MemoryManager] = None,
                 spill_dir=None, transport=None, codec: str = "auto",
                 faults: Optional[Faults] = None):
        self._lock = threading.Lock()
        self._buckets: Dict[Tuple[int, int, int], List[Any]] = {}
        #: Per-bucket byte estimates, measured once on the map side; the
        #: reduce side sums these instead of re-sampling and re-pickling the
        #: very data the map side already measured.  Entries survive a
        #: bucket's spill: accounting never depends on where the bucket is.
        self._bucket_bytes: Dict[Tuple[int, int, int], int] = {}
        #: (shuffle_id, reduce_partition) -> byte total, maintained
        #: incrementally on write so skew detection (which runs on every
        #: adaptive re-plan) never scans all buckets under the lock.
        self._reduce_bytes: Dict[Tuple[int, int], int] = {}
        self._completed_maps: Dict[int, set] = {}
        self._expected_maps: Dict[int, int] = {}
        self._bytes_written: Dict[int, int] = {}
        self._records_written: Dict[int, int] = {}
        #: Resolved frame codec id; every spill-file and transport frame this
        #: manager writes is compressed with it, and ``estimate_bytes``
        #: measures its ratio so accounting matches the on-disk format.
        self.codec = resolve_codec(codec)
        #: Memory accounting: resident bucket bytes are reserved with the
        #: context's memory manager under one owner key; ``None`` keeps the
        #: manager optional for directly constructed ShuffleManagers.
        self.memory = memory_manager
        #: Zero-argument callable returning the context's spill directory
        #: (created lazily); ``None`` disables spilling entirely.
        self._spill_dir = spill_dir
        #: Bucket key -> span, for every bucket on disk rather than in
        #: ``_buckets`` (spilled here, or registered by a writer elsewhere).
        self._spans: Dict[Tuple[int, int, int], Span] = {}
        #: ``(shuffle_id, map_partition)`` -> (records the map wrote, its
        #: key sample): a resident list or a span.  Only maps that wrote
        #: records have one; it is never counted as bucket bytes.
        self._samples: Dict[Tuple[int, int],
                            Tuple[int, Union[List[Any], Span]]] = {}
        #: Buckets whose records refused to pickle; they stay resident.
        self._unspillable: set = set()
        #: Estimated bytes of all resident buckets, and of all spans.
        self._resident_bytes = 0
        self._span_bytes = 0
        self._spill_count = 0
        self._spill_bytes = 0
        #: The ``corrupt`` fail point: each framed bucket draws a decision
        #: keyed by a monotonic sequence number, so a re-written
        #: (recomputed) bucket is not doomed to re-corrupt.
        self.faults = faults or Faults()
        self._write_seq = itertools.count(1)
        #: One in-place re-read of a locally spilled span.
        self._reread = policy(self.faults, "reread")
        #: Shuffle transport of the process backend; owns the frame files
        #: that worker-written map output lives in.  ``None`` on the thread
        #: backend.
        self.transport = transport
        #: ``(shuffle_id, map_partition)`` -> producer identity (worker pid,
        #: ``"driver"`` or, for journal adoption, ``"recovered"``) of
        #: externally registered map output; the scheduler strikes a lost
        #: span's producer when it is a worker pid and heals a blacklisted
        #: worker's outputs wholesale.
        self._producers: Dict[Tuple[int, int], Any] = {}
        #: Local re-reads of spilled spans that healed a transient
        #: corruption read (drained into stage metrics alongside the
        #: transport's network fetch retries).
        self._fetch_retries = 0

    # -- memory accounting -----------------------------------------------------

    @property
    def _memory_owner(self) -> Tuple[str, int]:
        return ("shuffle-buckets", id(self))

    def _sync_memory(self) -> None:
        """Mirror the bucket bytes this manager holds into the memory manager.

        Spans live on disk, so under a bounded budget they must not consume
        it; in the unbounded default (where nothing spills, so every span
        was written elsewhere) they stand in for the resident buckets the
        thread backend would have held, which keeps peak-residency
        accounting backend-invariant.
        """
        if self.memory is not None:
            held = self._resident_bytes
            if not self.memory.bounded:
                held += self._span_bytes
            self.memory.reserve(self._memory_owner, held)

    def _damage(self, kind: str) -> Callable[[bytes], bytes]:
        """The ``corrupt`` fail point of the framed bucket writes of one
        ``kind`` (``spill`` or ``transport``)."""
        return lambda payload: self.faults.damage(
            payload, f"{kind}:{next(self._write_seq)}")

    def _spill_path(self, shuffle_id: int) -> str:
        return os.path.join(self._spill_dir(), f"shuffle-{shuffle_id}.spill")

    def resident_bytes(self) -> int:
        """Estimated bytes of the buckets currently held in memory."""
        with self._lock:
            return self._resident_bytes

    def spill_stats(self) -> Tuple[int, int]:
        """Lifetime ``(buckets spilled, serialised bytes spilled)``."""
        with self._lock:
            return self._spill_count, self._spill_bytes

    def _source_locked(self, key: Tuple[int, int, int]
                       ) -> Union[List[Any], Span, None]:
        """A bucket's records if resident, its span if on disk; ``None``
        when it is absent or empty (lock held)."""
        source = self._buckets.get(key) or self._spans.get(key)
        if isinstance(source, Span) and not source.count:
            return None
        return source

    def _drop_bucket_locked(self, key: Tuple[int, int, int]
                            ) -> Tuple[int, int]:
        """Forget one bucket wherever it lives; ``(bytes, records)`` it had."""
        size = self._bucket_bytes.pop(key, 0)
        self._unspillable.discard(key)
        bucket = self._buckets.pop(key, None)
        if bucket is not None:
            self._resident_bytes -= size
            return size, len(bucket)
        span = self._spans.pop(key, None)
        if span is not None:
            self._span_bytes -= size
            return size, span.count
        return size, 0

    def _set_sample_locked(self, shuffle_id: int, map_partition: int,
                           records: int,
                           sample: Union[List[Any], Span, None]) -> None:
        """Install a map's key sample, replacing any earlier attempt's."""
        if records and sample:
            self._samples[(shuffle_id, map_partition)] = (records, sample)
        else:
            self._samples.pop((shuffle_id, map_partition), None)

    # -- map side ------------------------------------------------------------

    def register_shuffle(self, shuffle_id: int, num_map_partitions: int) -> None:
        """Declare a shuffle and the number of map tasks that will feed it."""
        with self._lock:
            self._expected_maps.setdefault(shuffle_id, num_map_partitions)
            self._completed_maps.setdefault(shuffle_id, set())
            self._bytes_written.setdefault(shuffle_id, 0)
            self._records_written.setdefault(shuffle_id, 0)

    def write_map_output(self, shuffle_id: int, map_partition: int,
                         buckets: Dict[int, List[Any]],
                         task_context=None) -> int:
        """Store the buckets produced by one map task; return bytes written.

        Bucket copies, byte estimation (which pickles a sample of every
        bucket) and the map's key sample happen *outside* the global lock so
        concurrent map tasks never serialise behind each other; the lock
        only guards the final dictionary swap-in and counter updates.  Under
        a memory budget the swap-in is followed — still under the lock — by
        spilling the coldest buckets until the resident total fits again;
        ``task_context`` (when given) receives the spill counters and the
        residency high-water mark.
        """
        with self._lock:
            if shuffle_id not in self._expected_maps:
                raise ShuffleError(f"shuffle {shuffle_id} was never registered")
        if self.transport is not None and self.transport.networked:
            # networked shuffle: even driver-side (thread backend) map
            # output goes through transport frame files, so reduce reads
            # cross the wire and the whole retry/CRC ladder is exercised
            return self._write_networked_map_output(shuffle_id, map_partition,
                                                    buckets, task_context)
        copies = {reduce_partition: list(records)
                  for reduce_partition, records in buckets.items()}
        sample = sample_map_output(shuffle_id, map_partition, copies)
        entries = [(reduce_partition, copied, estimate_bytes(copied, self.codec))
                   for reduce_partition, copied in copies.items()]
        with self._lock:
            written = self._install_map_output_locked(
                shuffle_id, map_partition, entries, sample)
            if task_context is not None and self.memory is not None:
                task_context.note_peak(self.memory.used_bytes)
            self._spill_over_budget(task_context)
        return written

    def _spill_over_budget(self, task_context=None) -> None:
        """Spill the coldest buckets until the resident total fits the budget.

        Called with the manager lock held.  Victims are taken in bucket
        insertion order (oldest write first); each is framed onto its
        shuffle's spill file, its records are dropped from memory, and its
        byte *estimate* stays on record so read-side accounting is
        unchanged.  Buckets that refuse to pickle are marked unspillable and
        stay resident.  Spilling performs file I/O under the lock — the
        price of a consistent resident total; the unbounded default path
        never reaches this method.
        """
        if self.memory is None or not self.memory.bounded or \
                self._spill_dir is None:
            return
        budget = self.memory.budget_bytes
        if self._resident_bytes <= budget:
            return
        for key in list(self._buckets):
            if self._resident_bytes <= budget:
                break
            if key in self._unspillable:
                continue
            bucket = self._buckets[key]
            if not bucket:
                continue
            try:
                with SpillFile(self._spill_path(key[0]), self.codec) as spill:
                    span = spill.append(bucket, self._damage("spill"))
            except OSError:
                raise
            except Exception:  # records that refuse to pickle stay resident
                self._unspillable.add(key)
                continue
            self._spans[key] = span
            del self._buckets[key]
            size = self._bucket_bytes.get(key, 0)
            self._resident_bytes -= size
            self._span_bytes += size
            self._spill_count += 1
            self._spill_bytes += span.length
            if task_context is not None:
                task_context.spills += 1
                task_context.spill_bytes += span.length
        self._sync_memory()

    def _write_networked_map_output(self, shuffle_id: int, map_partition: int,
                                    buckets: Dict[int, List[Any]],
                                    task_context=None) -> int:
        """Frame one map task's buckets to a transport file and register it.

        The networked twin of the resident write path: every reader then
        fetches the buckets over TCP.
        """
        spans, sample = write_buckets(
            self.transport.map_output_writer(shuffle_id, map_partition,
                                             self.codec),
            shuffle_id, map_partition, buckets, self._damage("transport"))
        written = self.register_external_map_output(
            shuffle_id, map_partition, spans, worker="driver", sample=sample)
        if task_context is not None and self.memory is not None:
            task_context.note_peak(self.memory.used_bytes)
        return written

    def register_external_map_output(self, shuffle_id: int,
                                     map_partition: int, spans: SpanMap,
                                     worker: Any = None,
                                     sample: Optional[Span] = None) -> int:
        """Adopt map output another writer framed to disk.

        ``spans`` maps each reduce partition to ``(span, estimated bytes)``
        and ``sample`` is the span of the map's key sample
        (:func:`write_buckets`); the bytes are the writer-side
        ``estimate_bytes`` measurement, so read-side accounting matches the
        thread backend exactly.  Retried map tasks overwrite their previous
        registration the same way :meth:`write_map_output` overwrites
        resident buckets; the stale frame file lives on until the shuffle is
        removed.  Returns the estimated bytes written, mirroring
        :meth:`write_map_output`.
        """
        with self._lock:
            return self._install_map_output_locked(
                shuffle_id, map_partition,
                [(reduce_partition, span, size)
                 for reduce_partition, (span, size) in spans.items()],
                sample, worker)

    def _install_map_output_locked(
            self, shuffle_id: int, map_partition: int,
            entries: List[Tuple[int, Union[List[Any], Span], int]],
            sample: Union[List[Any], Span, None], worker: Any = None) -> int:
        """Install one map attempt's ``(reduce, records or span, bytes)``
        buckets and key sample; return the bytes written (lock held).

        A retried, recomputed or late duplicate attempt replaces its map
        partition's earlier output: the stale buckets are retracted from the
        per-shuffle totals, so `bytes_written` and `map_output_stats` never
        double-count (a stale span just goes stale in its append-only file).
        """
        if shuffle_id not in self._expected_maps:
            raise ShuffleError(f"shuffle {shuffle_id} was never registered")
        written = records_out = stale_bytes = stale_records = 0
        for reduce_partition, source, size in entries:
            key = (shuffle_id, map_partition, reduce_partition)
            previous, previous_records = self._drop_bucket_locked(key)
            stale_bytes += previous
            stale_records += previous_records
            self._bucket_bytes[key] = size
            if isinstance(source, Span):
                self._spans[key] = source
                self._span_bytes += size
                records_out += source.count
            else:
                self._buckets[key] = source
                self._resident_bytes += size
                records_out += len(source)
            reduce_key = (shuffle_id, reduce_partition)
            self._reduce_bytes[reduce_key] = \
                self._reduce_bytes.get(reduce_key, 0) - previous + size
            written += size
        self._completed_maps[shuffle_id].add(map_partition)
        self._set_sample_locked(shuffle_id, map_partition, records_out, sample)
        if worker is not None:
            self._producers[(shuffle_id, map_partition)] = worker
        self._bytes_written[shuffle_id] += written - stale_bytes
        self._records_written[shuffle_id] += records_out - stale_records
        self._sync_memory()
        return written

    def _catalog_entries_locked(self, shuffle_id: int) -> List[
            Tuple[Tuple[int, int], Union[List[Any], Span], int]]:
        """``((map, reduce), bucket or span, bytes)`` of each non-empty bucket."""
        self._check_readable(shuffle_id)
        entries = []
        for key, size in self._bucket_bytes.items():
            if key[0] == shuffle_id:
                source = self._source_locked(key)
                if source is not None:
                    entries.append(((key[1], key[2]), source, size))
        return entries

    def export_catalog(self, shuffle_id: int) -> Dict[str, Any]:
        """Span catalog of one complete shuffle for worker-process reads.

        Returns ``{"maps": [map partitions in order], "buckets": {(map,
        reduce): (span, estimated bytes)}}``.  Buckets already on disk
        export their spans directly.  Resident buckets — only reachable when
        a directly constructed manager mixed thread-side writes into a
        process-backend read — are framed to transport files on demand, one
        file per bucket, swept with the shuffle; an unpicklable resident
        bucket cannot cross the process boundary and the pickling error
        propagates.
        """
        with self._lock:
            entries = self._catalog_entries_locked(shuffle_id)
            maps = sorted(self._completed_maps[shuffle_id])
        buckets: SpanMap = {}
        for (map_partition, reduce_partition), source, size in entries:
            if not isinstance(source, Span):
                if self.transport is None:
                    raise ShuffleError(
                        f"shuffle {shuffle_id} holds resident buckets but no "
                        f"transport is attached to export them")
                with self.transport.map_output_writer(
                        shuffle_id, map_partition, self.codec) as writer:
                    source = writer.append(source)
            buckets[(map_partition, reduce_partition)] = (source, size)
        return {"maps": maps, "buckets": buckets}

    def export_durable_catalog(self, shuffle_id: int,
                               directory: str) -> Dict[str, Any]:
        """Span catalog of one complete shuffle with every span durable.

        The journaling twin of :meth:`export_catalog`: spans whose frame
        files already live under ``directory`` (the engine's checkpoint
        dir — where a durable transport roots its shuffle files) are
        reused as-is; everything else — resident buckets, spilled spans,
        spans outside the durable root — is re-framed into fsynced per-map
        files under ``directory/shuffle-<id>/``.  Key samples go the same
        way and come back as ``"samples": {map: span}``.  The result is
        safe to record in the job journal: every path in it survives a
        driver crash.
        """
        prefix = os.path.abspath(directory) + os.sep
        with self._lock:
            entries = self._catalog_entries_locked(shuffle_id)
            maps = sorted(self._completed_maps[shuffle_id])
            # a sample rides in the slot of reduce partition ``None``
            entries += [((map_partition, None), sample, 0)
                        for (sid, map_partition), (_, sample)
                        in self._samples.items() if sid == shuffle_id]
        buckets: SpanMap = {}
        samples: Dict[int, Span] = {}

        def place(map_partition, reduce_partition, span, size):
            if reduce_partition is None:
                samples[map_partition] = span
            else:
                buckets[(map_partition, reduce_partition)] = (span, size)

        pending: Dict[int, List[Tuple[Optional[int],
                                      Union[List[Any], Span], int]]] = {}
        for (map_partition, reduce_partition), source, size in entries:
            if isinstance(source, Span) and \
                    os.path.abspath(source.path).startswith(prefix):
                place(map_partition, reduce_partition, source, size)
            else:
                pending.setdefault(map_partition, []).append(
                    (reduce_partition, source, size))
        # re-framing happens outside the lock: resident buckets are
        # immutable once written and frame files append-only
        shuffle_dir = os.path.join(directory, f"shuffle-{shuffle_id}")
        for map_partition, items in sorted(pending.items()):
            os.makedirs(shuffle_dir, exist_ok=True)
            path = os.path.join(
                shuffle_dir,
                f"map-{map_partition}-{os.getpid()}-journal.data")
            with SpillFile(path, self.codec) as writer:
                for reduce_partition, source, size in items:
                    if isinstance(source, Span):
                        source = load_span(source)
                    place(map_partition, reduce_partition,
                          writer.append(source), size)
                writer.sync()
        return {"maps": maps, "buckets": buckets, "samples": samples}

    # -- reduce side ----------------------------------------------------------

    def is_complete(self, shuffle_id: int) -> bool:
        """True when every map task of the shuffle has reported its output."""
        with self._lock:
            expected = self._expected_maps.get(shuffle_id)
            if expected is None:
                return False
            return len(self._completed_maps[shuffle_id]) >= expected

    def _bucket_refs(self, shuffle_id: int, reduce_partition: int,
                     map_range: Optional[Tuple[int, int]]):
        """Snapshot ``(map partition, bucket or span, size)`` in map order.

        Called with the lock held.  Resident buckets contribute their
        (immutable) list reference, on-disk buckets their span; either way
        the size is the write-side estimate.  The map partition lets a
        read-side integrity failure name the exact lost output.
        """
        refs: List[Tuple[int, Union[List[Any], Span], int]] = []
        for map_partition in sorted(self._completed_maps[shuffle_id]):
            if map_range is not None and \
                    not map_range[0] <= map_partition < map_range[1]:
                continue
            key = (shuffle_id, map_partition, reduce_partition)
            source = self._source_locked(key)
            if source is not None:
                refs.append((map_partition, source,
                             self._bucket_bytes.get(key, 0)))
        return refs

    def _load(self, shuffle_id: int, map_partition: int,
              source: Union[List[Any], Span]) -> List[Any]:
        """A resident bucket as is, or one span read back verified.

        With a transport the read goes through it — a plain file read on
        the local transport, a retried TCP fetch on the networked one.
        Without one, the span is on this machine's disk and gets one bounded
        in-place re-read before escalating: a transient read glitch does not
        warrant recomputing the map partition from lineage.
        """
        if not isinstance(source, Span):
            return source
        with lost_map_output(shuffle_id, map_partition):
            if self.transport is not None:
                return self.transport.read_span(source)
            return self._reread.run(lambda attempt: load_span(source),
                                    retry_on=(ShuffleCorruptionError,),
                                    on_retry=self._count_reread)

    def _count_reread(self, attempt: int, error: BaseException) -> None:
        with self._lock:
            self._fetch_retries += 1

    def drain_fetch_retries(self) -> int:
        """Retried reads (local re-reads + network fetches) since last drain.

        Driver-side counts only: worker processes drain their own transport
        and ship the count back inside the task counters.
        """
        with self._lock:
            count, self._fetch_retries = self._fetch_retries, 0
        if self.transport is not None:
            count += self.transport.drain_fetch_retries()
        return count

    def producer_of(self, shuffle_id: int, map_partition: int) -> Any:
        """Worker identity that registered a map output (None if unknown)."""
        with self._lock:
            return self._producers.get((shuffle_id, map_partition))

    def outputs_of(self, worker: Any) -> List[Tuple[int, int]]:
        """``(shuffle_id, map_partition)`` of every registered map output
        ``worker`` produced."""
        with self._lock:
            return [key for key, who in self._producers.items()
                    if who == worker]

    def _check_readable(self, shuffle_id: int) -> None:
        if shuffle_id not in self._expected_maps:
            raise ShuffleError(f"shuffle {shuffle_id} was never registered")
        if len(self._completed_maps[shuffle_id]) < self._expected_maps[shuffle_id]:
            raise ShuffleError(
                f"shuffle {shuffle_id} read before all map outputs were written")

    def read_reduce_input(self, shuffle_id: int, reduce_partition: int,
                          map_range: Optional[Tuple[int, int]] = None
                          ) -> Tuple[List[Any], int]:
        """Return (records, estimated bytes) addressed to ``reduce_partition``.

        ``map_range=(lo, hi)`` restricts the read to the buckets written by
        map partitions ``lo <= m < hi``: one oversized reduce partition can
        be served as several sub-reads over disjoint map-output slices whose
        concatenation (in range order) is exactly the full read.

        The byte count is the sum of the per-bucket estimates measured when
        the map side wrote its output — no data is re-sampled or re-pickled
        on the read path, and read-side accounting matches write-side
        accounting exactly (spilled buckets included).  Only the bucket-ref
        snapshot happens under the manager lock; concatenation and any
        spill-file reads — linear in the partition size — run outside it, so
        concurrent sub-partition readers never serialise behind each other.
        Resident buckets are immutable once written and spill-file spans are
        append-only, which is what makes the snapshot safe.
        """
        with self._lock:
            self._check_readable(shuffle_id)
            refs = self._bucket_refs(shuffle_id, reduce_partition, map_range)
        records: List[Any] = []
        size = 0
        for map_partition, source, bucket_size in refs:
            records.extend(self._load(shuffle_id, map_partition, source))
            size += bucket_size
        return records, size

    def iter_reduce_input(self, shuffle_id: int, reduce_partition: int,
                          map_range: Optional[Tuple[int, int]] = None
                          ) -> Iterator[Tuple[List[Any], int]]:
        """Stream ``(bucket records, estimated bytes)`` in map order.

        The streaming counterpart of :meth:`read_reduce_input` used by the
        memory-bounded external merge: spilled buckets are loaded one at a
        time, so at most one bucket's records are brought back per step
        instead of the whole partition.  Concatenating every yielded bucket
        (and summing the sizes) reproduces the full read exactly.
        """
        with self._lock:
            self._check_readable(shuffle_id)
            refs = self._bucket_refs(shuffle_id, reduce_partition, map_range)
        for map_partition, source, bucket_size in refs:
            yield self._load(shuffle_id, map_partition, source), bucket_size

    def reduce_partition_bytes(self, shuffle_id: int) -> Dict[int, int]:
        """Per-reduce-partition byte totals of a shuffle's map output.

        Aggregates the per-bucket estimates measured on the write side; this
        is the signal the ``split_skewed_shuffle`` rule reads after the map
        stages complete to decide which reduce partitions are skewed.  The
        totals are maintained incrementally by :meth:`write_map_output`, so
        this never scans buckets under the lock.
        """
        with self._lock:
            return {reduce_partition: size
                    for (sid, reduce_partition), size in self._reduce_bytes.items()
                    if sid == shuffle_id}

    def reduce_partition_map_bytes(self, shuffle_id: int,
                                   reduce_partition: int) -> List[Tuple[int, int]]:
        """Bytes each map partition contributed to one reduce partition.

        Returns ``[(map_partition, bytes), ...]`` for every expected map
        partition in index order (0 for maps that wrote nothing to this
        reduce partition) — the weights the skew rule balances contiguous
        map ranges over.
        """
        with self._lock:
            expected = self._expected_maps.get(shuffle_id, 0)
            return [(m, self._bucket_bytes.get((shuffle_id, m, reduce_partition), 0))
                    for m in range(expected)]

    def sample_records(self, shuffle_ids: Sequence[int],
                       size: int) -> List[Any]:
        """A stratified sample of up to ``size`` records of the map output
        of every shuffle in ``shuffle_ids``.

        Used by the statistics layer to estimate key distributions (distinct
        keys, heavy-hitter shares) of completed shuffles.  Each completed
        map gets a share of ``size`` proportional to the records it wrote
        (largest remainder) and contributes that prefix of its key sample
        (:func:`sample_map_output`), so a share never exceeds the map's
        sample while ``size <= KEY_SAMPLE_SIZE``; when all the maps together
        wrote at most ``size`` records, every record comes back and the
        distribution is exact.  Maps are taken in shuffle, then map order,
        and each sample depends only on its map's output, so identical runs
        — on any backend, transport or memory budget, cold or resumed —
        sample identical records.  A sample span is decoded only when its
        map has a share: at most ``KEY_SAMPLE_SIZE`` records per map, never
        the shuffle itself.
        """
        with self._lock:
            strata = [self._samples.get((shuffle_id, map_partition), (0, None))
                      for shuffle_id in shuffle_ids
                      for map_partition in sorted(
                          self._completed_maps.get(shuffle_id, ()))]
        shares = _largest_remainder(max(0, size),
                                    [records for records, _ in strata])
        sample: List[Any] = []
        for (_, source), share in zip(strata, shares):
            if not share:
                continue
            if isinstance(source, Span):
                try:
                    source = load_span(source)
                except ShuffleCorruptionError:
                    # sampling is advisory (statistics only): a damaged
                    # sample contributes nothing — the authoritative read
                    # path surfaces damaged map output as a fetch failure
                    continue
            sample.extend(source[:share])
        return sample

    # -- bookkeeping -----------------------------------------------------------

    def bytes_written(self, shuffle_id: int) -> int:
        """Total estimated bytes written for the shuffle so far."""
        with self._lock:
            return self._bytes_written.get(shuffle_id, 0)

    def map_output_stats(self, shuffle_id: int) -> Optional[Tuple[int, int]]:
        """Actual ``(records, bytes)`` of a *complete* shuffle's map output.

        ``None`` while any map task is still missing.  This is the runtime
        feedback the statistics layer prefers over plan-time estimates when a
        shuffle-map stage has already executed (adaptive re-optimization).
        """
        with self._lock:
            expected = self._expected_maps.get(shuffle_id)
            if expected is None or len(self._completed_maps[shuffle_id]) < expected:
                return None
            return (self._records_written[shuffle_id],
                    self._bytes_written[shuffle_id])

    def invalidate_map_output(self, shuffle_id: int,
                              map_partition: int) -> bool:
        """Drop one map partition's output after a fetch failure.

        Removes every bucket the partition contributed, resident or on
        disk, retracts its share of the per-shuffle and per-reduce
        byte/record totals, and un-marks the partition as completed so
        :meth:`is_complete` turns false and :meth:`missing_map_partitions`
        reports it.  The scheduler then recomputes just that partition from
        lineage and re-registers its output.  Stale spans in append-only
        frame files are simply abandoned (they are swept with the shuffle).
        Returns True when the partition had registered output.
        """
        with self._lock:
            completed = self._completed_maps.get(shuffle_id)
            if completed is None or map_partition not in completed:
                return False
            stale = [key for key in self._bucket_bytes
                     if key[0] == shuffle_id and key[1] == map_partition]
            for key in stale:
                size, records = self._drop_bucket_locked(key)
                self._bytes_written[shuffle_id] -= size
                self._records_written[shuffle_id] -= records
                reduce_key = (shuffle_id, key[2])
                remaining = self._reduce_bytes.get(reduce_key, 0) - size
                if remaining > 0:
                    self._reduce_bytes[reduce_key] = remaining
                else:
                    self._reduce_bytes.pop(reduce_key, None)
            completed.discard(map_partition)
            self._producers.pop((shuffle_id, map_partition), None)
            self._samples.pop((shuffle_id, map_partition), None)
            self._sync_memory()
            return True

    def missing_map_partitions(self, shuffle_id: int) -> List[int]:
        """Expected map partitions whose output is absent (sorted).

        Non-empty between an :meth:`invalidate_map_output` and the lineage
        recomputation that restores the lost output; also lists partitions
        that never reported at all.
        """
        with self._lock:
            expected = self._expected_maps.get(shuffle_id)
            if expected is None:
                return []
            completed = self._completed_maps.get(shuffle_id, set())
            return [m for m in range(expected) if m not in completed]

    def remove_shuffle(self, shuffle_id: int) -> None:
        """Discard all data of a shuffle, including its spill file."""
        with self._lock:
            # delete only the matching keys; rebuilding the whole dict would
            # copy every other shuffle's entries under the lock
            for key in [key for key in self._bucket_bytes
                        if key[0] == shuffle_id]:
                self._drop_bucket_locked(key)
            stale_reduce = [key for key in self._reduce_bytes
                            if key[0] == shuffle_id]
            for key in stale_reduce:
                del self._reduce_bytes[key]
            self._completed_maps.pop(shuffle_id, None)
            self._expected_maps.pop(shuffle_id, None)
            self._bytes_written.pop(shuffle_id, None)
            self._records_written.pop(shuffle_id, None)
            for owned in (self._producers, self._samples):
                for key in [key for key in owned if key[0] == shuffle_id]:
                    del owned[key]
            self._remove_spill_file_locked(shuffle_id)
            self._sync_memory()
            # sweeps registered frame files and partial output of failed
            # map attempts alike
            if self.transport is not None:
                self.transport.remove_shuffle(shuffle_id)

    def _remove_spill_file_locked(self, shuffle_id: int) -> None:
        # the spill directory exists once anything has spilled; asking for
        # it before that would create it for nothing
        if self._spill_count:
            try:
                os.remove(self._spill_path(shuffle_id))
            except OSError:
                pass

    def clear(self) -> None:
        """Discard every shuffle (used when an engine context shuts down)."""
        with self._lock:
            for shuffle_id in self._expected_maps:
                self._remove_spill_file_locked(shuffle_id)
                if self.transport is not None and not self.transport.durable:
                    # a durable transport's frame files are recovery state:
                    # they must survive stop() so a restarted context can
                    # re-register them from the journal
                    self.transport.remove_shuffle(shuffle_id)
            self._buckets.clear()
            self._spans.clear()
            self._bucket_bytes.clear()
            self._reduce_bytes.clear()
            self._completed_maps.clear()
            self._expected_maps.clear()
            self._bytes_written.clear()
            self._records_written.clear()
            self._unspillable.clear()
            self._producers.clear()
            self._samples.clear()
            self._fetch_retries = 0
            self._resident_bytes = 0
            self._span_bytes = 0
            self._sync_memory()
