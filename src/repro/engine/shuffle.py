"""Shuffle manager with optional spill-to-disk buckets.

Wide transformations are executed in two steps, exactly as in a distributed
engine: map-side tasks bucket their output records by reduce partition and
register the buckets here; reduce-side tasks then fetch and concatenate the
buckets addressed to them.  Byte accounting is estimated from a sample of the
bucket so that shuffle volume can be reported without serialising everything.

The manager keeps one record per registered shuffle (its map count and
the output of each map that has reported) and each map's output whole:
its non-empty buckets with their byte estimates, its record count, key
sample and producer.  A retried, recomputed or late attempt replaces the
record, an invalidation pops it, and every statistic is read off the
records of the one shuffle asked about.

A bucket lives in one of two places: resident, as a Python list, or on
disk, as a :class:`~repro.engine.memory.Span` of a frame file — spilled by
this manager, framed into its transport, or adopted from another manager's
span catalog (:func:`catalog_of`: a worker's map output, a stage payload,
a journal).  Without a transport every bucket starts resident.  When the
owning context runs memory-bounded (``EngineConfig.shuffle_memory_bytes``
> 0, tracked by a :class:`~repro.engine.memory.MemoryManager`), writes
that push the resident total over the budget spill the coldest resident
buckets, in write order across all shuffles, to a per-shuffle spill file
(see :mod:`repro.engine.memory`); reads — full, ranged (``map_range=``)
and streaming — transparently bring spans back.
Byte accounting always uses the map-side estimates measured at write
time, so bounded and unbounded runs report identical shuffle metrics; with
compression on, the estimates are scaled by the measured ratio of the
active codec rather than a simulated constant.

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
from types import MappingProxyType
from typing import (Any, Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from ..errors import FetchFailedError, ShuffleCorruptionError, ShuffleError
from .memory import (CODEC_NONE, MemoryManager, Span, SpillFile,
                     encode_payload, load_span, resolve_codec)
from .retry import Faults, policy

#: Where a bucket or key sample lives: resident records, or a span on disk.
Source = Union[List[Any], Span]

#: Reduce partition -> (source, estimated bytes): one map's buckets.
SpanMap = Dict[int, Tuple[Source, int]]


def catalog_of(maps: Dict[int, SpanMap],
               samples: Dict[int, Source]) -> Dict[str, Any]:
    """The span catalog of some map partitions' output.

    ``maps`` holds each map partition's buckets — empty for a map that
    wrote no records — and ``samples`` the key sample of each map that
    wrote some.  The catalog is ``{"maps": [map partitions in order],
    "buckets": {(map, reduce): (source, estimated bytes)}, "samples": {map:
    source}}``: what :meth:`ShuffleManager.export_catalog` returns and
    :meth:`ShuffleManager.adopt_catalog` registers — a stage payload's
    complete shuffles, a worker's map output, a journal's recovered
    shuffle.  Sources are whatever the exporting manager held, so a
    catalog shipped to another process holds only spans when the exporter
    frames into a transport.
    """
    return {"maps": sorted(maps),
            "buckets": {(map_partition, reduce_partition): bucket
                        for map_partition, buckets in sorted(maps.items())
                        for reduce_partition, bucket in buckets.items()},
            "samples": samples}


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


class _MapOutput(NamedTuple):
    """One map attempt's output, installed and dropped whole.

    ``buckets`` holds the non-empty buckets only, each with its write-side
    byte estimate; a spill swaps a resident bucket's records for its span.
    ``records`` and ``size`` are the map's totals, ``sample`` its key sample
    (``None`` when it wrote no records) and ``producer`` the identity that
    registered it: a worker pid, ``"recovered"`` or ``None``.
    """
    buckets: SpanMap
    records: int
    size: int
    sample: Optional[Source]
    producer: Any


class _Shuffle(NamedTuple):
    """A registered shuffle: its map count, whether its frame files are
    recovery state, and the output of every map that has reported."""
    expected: int
    journalled: bool
    maps: Dict[int, _MapOutput]


#: What a read of a shuffle that is not registered sees.
_UNREGISTERED = _Shuffle(0, True, MappingProxyType({}))


class ShuffleManager:
    """Stores map-side shuffle output: one record per registered shuffle,
    holding each completed map's output whole."""

    def __init__(self, memory_manager: Optional[MemoryManager] = None,
                 spill_dir=None, transport=None, codec: str = "auto",
                 faults: Optional[Faults] = None):
        self._lock = threading.Lock()
        #: Every registered shuffle, in registration order.
        self._shuffles: Dict[Any, _Shuffle] = {}
        #: ``(shuffle, map, reduce)`` of each resident bucket not yet tried
        #: as a spill victim, in write order: the coldest comes first.
        self._resident: Dict[Tuple[Any, int, int], None] = {}
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
        #: Estimated bytes of all resident buckets, and of all spans.
        self._resident_bytes = 0
        self._span_bytes = 0
        self._spill_count = 0
        self._spill_bytes = 0
        #: The ``corrupt`` fail point: each framed bucket draws a decision
        #: keyed by a monotonic sequence number, so a re-written
        #: (recomputed) bucket is not doomed to re-corrupt.  A worker's
        #: faults draw once per task attempt instead (``engine/worker.py``).
        self.faults = faults or Faults()
        self._write_seq = itertools.count(1)
        #: One in-place re-read of a locally spilled span.
        self._reread = policy(self.faults, "reread")
        #: Shuffle transport of the process backend or of the TCP shuffle;
        #: when set, every map output is framed into its files and every
        #: span read goes through it.  ``None`` keeps buckets resident.
        self.transport = transport
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
        was framed into a transport or adopted) they stand in for the
        resident buckets the thread backend would have held, which keeps
        peak-residency accounting backend-invariant.
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

    def _retract_locked(self, shuffle_id: Any, map_partition: int,
                        output: Optional[_MapOutput]) -> None:
        """Take a map output that was dropped (if any) out of the byte
        totals and the spill order (lock held)."""
        if output is None:
            return
        for reduce_partition, (source, size) in output.buckets.items():
            if isinstance(source, Span):
                self._span_bytes -= size
            else:
                self._resident_bytes -= size
                self._resident.pop(
                    (shuffle_id, map_partition, reduce_partition), None)

    # -- map side ------------------------------------------------------------

    def register_shuffle(self, shuffle_id: int, num_map_partitions: int,
                         journalled: bool = True) -> None:
        """Declare a shuffle and the number of map tasks that will feed it
        (a repeated declaration changes nothing)."""
        with self._lock:
            if shuffle_id not in self._shuffles:
                self._shuffles[shuffle_id] = _Shuffle(num_map_partitions,
                                                      journalled, {})

    def write_map_output(self, shuffle_id: int, map_partition: int,
                         buckets: Dict[int, List[Any]],
                         task_context=None) -> int:
        """Store the buckets produced by one map task; return bytes written.

        A manager that has a transport frames every map output into it
        (:func:`write_buckets`) and registers the spans, so every reader —
        in this process or another, over TCP or not — reads frames.
        Without one the buckets are copied and stay resident.  Framing,
        bucket copies, byte estimation (which pickles a sample of every
        bucket) and the map's key sample happen *outside* the global lock so
        concurrent map tasks never serialise behind each other; the lock
        only guards installing the map's record.  Under a memory budget the
        install is followed — still under the lock — by spilling the
        coldest buckets until the resident total fits again;
        ``task_context`` (when given) receives the spill counters and the
        residency high-water mark.
        """
        with self._lock:
            if shuffle_id not in self._shuffles:
                raise ShuffleError(f"shuffle {shuffle_id} was never registered")
        if self.transport is not None:
            spans, sample = write_buckets(
                self.transport.map_output_writer(shuffle_id, map_partition,
                                                 self.codec),
                shuffle_id, map_partition, buckets, self._damage("transport"))
            entries = [(reduce_partition, span, size)
                       for reduce_partition, (span, size) in spans.items()]
        else:
            copies = {reduce_partition: list(records)
                      for reduce_partition, records in buckets.items()}
            sample = sample_map_output(shuffle_id, map_partition, copies)
            entries = [(reduce_partition, copied,
                        estimate_bytes(copied, self.codec))
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

        Called with the manager lock held.  Victims are the resident
        buckets in write order (oldest first); each is framed onto its
        shuffle's spill file and its record keeps the span and its byte
        *estimate* in place of the records, so read-side accounting is
        unchanged.  A bucket that refuses to pickle is tried once and stays
        resident.  Spilling performs file I/O under the lock — the price of
        a consistent resident total; the unbounded default path never
        reaches this method.
        """
        if self.memory is None or not self.memory.bounded or \
                self._spill_dir is None:
            return
        while self._resident and \
                self._resident_bytes > self.memory.budget_bytes:
            key = next(iter(self._resident))
            shuffle_id, map_partition, reduce_partition = key
            buckets = self._shuffles[shuffle_id].maps[map_partition].buckets
            records, size = buckets[reduce_partition]
            try:
                with SpillFile(self._spill_path(shuffle_id), self.codec) as spill:
                    span = spill.append(records, self._damage("spill"))
            except OSError:
                raise
            except Exception:  # records that refuse to pickle stay resident
                span = None
            del self._resident[key]
            if span is None:
                continue
            buckets[reduce_partition] = (span, size)
            self._resident_bytes -= size
            self._span_bytes += size
            self._spill_count += 1
            self._spill_bytes += span.length
            if task_context is not None:
                task_context.spills += 1
                task_context.spill_bytes += span.length
        self._sync_memory()

    def _install_map_output_locked(
            self, shuffle_id: int, map_partition: int,
            entries: Iterable[Tuple[int, Source, int]],
            sample: Optional[Source], producer: Any = None) -> int:
        """Install one map attempt's ``(reduce, records or span, bytes)``
        buckets and key sample; return the bytes written (lock held).

        A retried, recomputed or late duplicate attempt replaces its map
        partition's earlier output whole, so no bucket of the earlier
        attempt is read or counted again (a stale span just goes stale in
        its append-only file).
        """
        shuffle = self._shuffles.get(shuffle_id)
        if shuffle is None:
            raise ShuffleError(f"shuffle {shuffle_id} was never registered")
        buckets: SpanMap = {}
        written = records = 0
        for reduce_partition, source, size in entries:
            count = source.count if isinstance(source, Span) else len(source)
            if count:
                buckets[reduce_partition] = (source, size)
                records += count
                written += size
        self._retract_locked(shuffle_id, map_partition,
                             shuffle.maps.pop(map_partition, None))
        shuffle.maps[map_partition] = _MapOutput(
            buckets, records, written, sample if records else None, producer)
        for reduce_partition, (source, size) in buckets.items():
            if isinstance(source, Span):
                self._span_bytes += size
            else:
                self._resident_bytes += size
                self._resident[(shuffle_id, map_partition,
                                reduce_partition)] = None
        self._sync_memory()
        return written

    def export_catalog(self, shuffle_id: int,
                       maps: Optional[Iterable[int]] = None) -> Dict[str, Any]:
        """The span catalog of ``maps`` (default: every completed map).

        Each bucket and key sample is exported where it lives — resident
        records or a span — with its write-side byte estimate.
        :meth:`adopt_catalog` is the inverse.
        """
        with self._lock:
            outputs = self._shuffles[shuffle_id].maps
            return catalog_of(*_export(outputs,
                                       outputs if maps is None else maps))

    def adopt_catalog(self, shuffle_id: int, catalog: Dict[str, Any],
                      producer: Any = None) -> int:
        """Register every map output ``catalog`` lists; return its bytes.

        The one way map output written elsewhere becomes this manager's:
        each listed map partition's buckets and key sample replace any
        earlier attempt's, with the writer's byte estimates, so read-side
        accounting matches the thread backend exactly.  A shuffle this
        manager does not know yet is registered complete, with the listed
        maps as its map count (a stage payload's shuffles).  ``producer`` is
        the identity a lost span's strike goes to (a worker pid) or
        ``"recovered"`` for journal adoption.
        """
        self.register_shuffle(shuffle_id, len(catalog["maps"]))
        per_map: Dict[int, List[Tuple[int, Source, int]]] = {
            map_partition: [] for map_partition in catalog["maps"]}
        for (map_partition, reduce_partition), (source, size) in \
                catalog["buckets"].items():
            per_map[map_partition].append((reduce_partition, source, size))
        samples = catalog["samples"]
        with self._lock:
            return sum(self._install_map_output_locked(
                shuffle_id, map_partition, entries,
                samples.get(map_partition), producer)
                for map_partition, entries in per_map.items())

    def export_durable_catalog(self, shuffle_id: int,
                               directory: str) -> Dict[str, Any]:
        """:meth:`export_catalog` of a complete shuffle, every span durable.

        Spans whose frame files already live under ``directory`` (the
        engine's checkpoint dir — where a durable transport roots its
        shuffle files) are reused as-is; every other bucket and key sample
        of a map — resident, spilled, or outside the durable root — is
        re-framed into one fsynced file per map under
        ``directory/shuffle-<id>/``.  The result is safe to record in the
        job journal: every path in it survives a driver crash.
        """
        prefix = os.path.abspath(directory) + os.sep

        def durable(source: Source) -> bool:
            return isinstance(source, Span) and \
                os.path.abspath(source.path).startswith(prefix)

        def records(source: Source) -> List[Any]:
            return load_span(source) if isinstance(source, Span) else source

        with self._lock:
            outputs = self._readable_maps(shuffle_id)
            maps, samples = _export(outputs, sorted(outputs))
        # re-framing happens outside the lock: resident buckets are
        # immutable once written and frame files append-only
        shuffle_dir = os.path.join(directory, f"shuffle-{shuffle_id}")
        for map_partition, buckets in maps.items():
            pending = [reduce_partition
                       for reduce_partition, (source, _) in buckets.items()
                       if not durable(source)]
            sample = samples.get(map_partition)
            reframe_sample = sample is not None and not durable(sample)
            if not pending and not reframe_sample:
                continue
            os.makedirs(shuffle_dir, exist_ok=True)
            path = os.path.join(
                shuffle_dir,
                f"map-{map_partition}-{os.getpid()}-journal.data")
            with SpillFile(path, self.codec) as writer:
                for reduce_partition in pending:
                    source, size = buckets[reduce_partition]
                    buckets[reduce_partition] = (
                        writer.append(records(source)), size)
                if reframe_sample:
                    samples[map_partition] = writer.append(records(sample))
                writer.sync()
        return catalog_of(maps, samples)

    # -- reduce side ----------------------------------------------------------

    def has_map_output(self, shuffle_id: int, map_partition: int) -> bool:
        """True when map ``map_partition`` of the shuffle has registered
        output (a complete shuffle or not)."""
        with self._lock:
            return map_partition in self._shuffles.get(
                shuffle_id, _UNREGISTERED).maps

    def shuffle_ids(self) -> List[Any]:
        """Every registered shuffle's id, in registration order."""
        with self._lock:
            return list(self._shuffles)

    def is_complete(self, shuffle_id: int) -> bool:
        """True when every map task of the shuffle has reported its output."""
        with self._lock:
            shuffle = self._shuffles.get(shuffle_id)
            return shuffle is not None and \
                len(shuffle.maps) >= shuffle.expected

    def _load(self, shuffle_id: int, map_partition: int,
              source: Source) -> List[Any]:
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

        Counts of this process only: a worker drains its own manager and
        ships the count back inside the task counters.
        """
        with self._lock:
            count, self._fetch_retries = self._fetch_retries, 0
        if self.transport is not None:
            count += self.transport.drain_fetch_retries()
        return count

    def producer_of(self, shuffle_id: int, map_partition: int) -> Any:
        """Worker identity that registered a map output (None if unknown)."""
        with self._lock:
            output = self._shuffles.get(
                shuffle_id, _UNREGISTERED).maps.get(map_partition)
            return output.producer if output is not None else None

    def outputs_of(self, worker: Any) -> List[Tuple[int, int]]:
        """``(shuffle_id, map_partition)`` of every registered map output
        ``worker`` produced."""
        with self._lock:
            return [(shuffle_id, map_partition)
                    for shuffle_id, shuffle in self._shuffles.items()
                    for map_partition, output in shuffle.maps.items()
                    if output.producer == worker]

    def _readable_maps(self, shuffle_id: int,
                       map_range: Optional[Tuple[int, int]] = None
                       ) -> Dict[int, _MapOutput]:
        """The map outputs of a shuffle a read may use (lock held): a read
        needs every map output it covers, a ranged read only those of its
        range."""
        shuffle = self._shuffles.get(shuffle_id)
        if shuffle is None:
            raise ShuffleError(f"shuffle {shuffle_id} was never registered")
        if not (all(m in shuffle.maps for m in range(*map_range)) if map_range
                else len(shuffle.maps) >= shuffle.expected):
            raise ShuffleError(
                f"shuffle {shuffle_id} read before all map outputs were written")
        return shuffle.maps

    def read_reduce_input(self, shuffle_id: int, reduce_partition: int,
                          map_range: Optional[Tuple[int, int]] = None
                          ) -> Tuple[List[Any], int]:
        """Return (records, estimated bytes) addressed to ``reduce_partition``:
        the concatenation of :meth:`iter_reduce_input`'s buckets and the
        sum of their sizes."""
        records: List[Any] = []
        size = 0
        for bucket, bucket_size in self.iter_reduce_input(
                shuffle_id, reduce_partition, map_range):
            records.extend(bucket)
            size += bucket_size
        return records, size

    def iter_reduce_input(self, shuffle_id: int, reduce_partition: int,
                          map_range: Optional[Tuple[int, int]] = None
                          ) -> Iterator[Tuple[List[Any], int]]:
        """Stream ``(bucket records, estimated bytes)`` in map order.

        ``map_range=(lo, hi)`` restricts the read to the buckets written by
        map partitions ``lo <= m < hi``: one oversized reduce partition can
        be served as several sub-reads over disjoint map-output slices whose
        concatenation (in range order) is exactly the full read.  Spilled
        buckets are loaded one at a time, so the memory-bounded external
        merge brings back at most one bucket's records per step.

        The sizes are the per-bucket estimates measured when the map side
        wrote its output — no data is re-sampled or re-pickled on the read
        path, and read-side accounting matches write-side accounting
        exactly (spilled buckets included).  Only the bucket-ref snapshot
        happens under the manager lock; span reads run outside it, so
        concurrent sub-partition readers never serialise behind each other.
        A resident bucket is immutable once written and spill-file spans
        are append-only, which is what makes the snapshot safe.
        """
        with self._lock:
            maps = self._readable_maps(shuffle_id, map_range)
            refs = [(map_partition, maps[map_partition].buckets[reduce_partition])
                    for map_partition in sorted(maps)
                    if (map_range is None
                        or map_range[0] <= map_partition < map_range[1])
                    and reduce_partition in maps[map_partition].buckets]
        for map_partition, (source, size) in refs:
            yield self._load(shuffle_id, map_partition, source), size

    def reduce_partition_bytes(self, shuffle_id: int) -> Dict[int, int]:
        """Per-reduce-partition byte totals of a shuffle's map output.

        Summed from the per-bucket estimates measured on the write side,
        over the shuffle's own map outputs (a reduce partition no map wrote
        to is absent); this is the signal the ``split_skewed_shuffle`` rule
        reads after the map stages complete to decide which reduce
        partitions are skewed.
        """
        totals: Dict[int, int] = {}
        with self._lock:
            for output in self._shuffles.get(shuffle_id,
                                             _UNREGISTERED).maps.values():
                for reduce_partition, (_, size) in output.buckets.items():
                    totals[reduce_partition] = \
                        totals.get(reduce_partition, 0) + size
        return totals

    def reduce_partition_map_bytes(self, shuffle_id: int,
                                   reduce_partition: int) -> List[Tuple[int, int]]:
        """Bytes each map partition contributed to one reduce partition.

        Returns ``[(map_partition, bytes), ...]`` for every expected map
        partition in index order (0 for maps that wrote nothing to this
        reduce partition) — the weights the skew rule balances contiguous
        map ranges over.
        """
        with self._lock:
            shuffle = self._shuffles.get(shuffle_id, _UNREGISTERED)
            sizes = {m: output.buckets[reduce_partition][1]
                     for m, output in shuffle.maps.items()
                     if reduce_partition in output.buckets}
            return [(m, sizes.get(m, 0)) for m in range(shuffle.expected)]

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
            strata = [output for shuffle_id in shuffle_ids
                      for _, output in sorted(self._shuffles.get(
                          shuffle_id, _UNREGISTERED).maps.items())]
        shares = _largest_remainder(
            max(0, size), [output.records if output.sample is not None else 0
                           for output in strata])
        sample: List[Any] = []
        for output, share in zip(strata, shares):
            if not share:
                continue
            source = output.sample
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
            return sum(output.size for output in self._shuffles.get(
                shuffle_id, _UNREGISTERED).maps.values())

    def map_output_stats(self, shuffle_id: int) -> Optional[Tuple[int, int]]:
        """Actual ``(records, bytes)`` of a *complete* shuffle's map output.

        ``None`` while any map task is still missing.  This is the runtime
        feedback the statistics layer prefers over plan-time estimates when a
        shuffle-map stage has already executed (adaptive re-optimization).
        """
        with self._lock:
            shuffle = self._shuffles.get(shuffle_id)
            if shuffle is None or len(shuffle.maps) < shuffle.expected:
                return None
            return (sum(output.records for output in shuffle.maps.values()),
                    sum(output.size for output in shuffle.maps.values()))

    def invalidate_map_output(self, shuffle_id: int,
                              map_partition: int) -> bool:
        """Drop one map partition's output after a fetch failure.

        Pops the partition's record, so its buckets — resident or on disk —
        leave every read and total, :meth:`is_complete` turns false and
        :meth:`missing_map_partitions` reports it.  The scheduler then
        recomputes just that partition from lineage and re-registers its
        output.  Stale spans in append-only frame files are simply
        abandoned (they are swept with the shuffle).  Returns True when the
        partition had registered output.
        """
        with self._lock:
            shuffle = self._shuffles.get(shuffle_id)
            output = shuffle.maps.pop(map_partition, None) \
                if shuffle is not None else None
            self._retract_locked(shuffle_id, map_partition, output)
            self._sync_memory()
            return output is not None

    def missing_map_partitions(self, shuffle_id: int) -> List[int]:
        """Expected map partitions whose output is absent (sorted).

        Non-empty between an :meth:`invalidate_map_output` and the lineage
        recomputation that restores the lost output; also lists partitions
        that never reported at all.
        """
        with self._lock:
            shuffle = self._shuffles.get(shuffle_id, _UNREGISTERED)
            return [m for m in range(shuffle.expected) if m not in shuffle.maps]

    def remove_shuffle(self, shuffle_id: int,
                       spare_durable: bool = False) -> None:
        """Discard all data of a shuffle, its spill file and its frame
        files — but, with ``spare_durable``, frames that are recovery state:
        those in a durable transport of a shuffle not registered as never
        journalled (a cache)."""
        with self._lock:
            shuffle = self._shuffles.pop(shuffle_id, _UNREGISTERED)
            for map_partition, output in shuffle.maps.items():
                self._retract_locked(shuffle_id, map_partition, output)
            # the spill directory exists once anything has spilled; asking
            # for it before that would create it for nothing
            if self._spill_count:
                try:
                    os.remove(self._spill_path(shuffle_id))
                except OSError:
                    pass
            self._sync_memory()
            # sweeps registered frame files and partial output of failed
            # map attempts alike
            if self.transport is not None and not (
                    spare_durable and self.transport.durable
                    and shuffle.journalled):
                self.transport.remove_shuffle(shuffle_id)

    def clear(self) -> None:
        """Discard every shuffle (used when an engine context shuts down).

        A durable transport's frame files are recovery state: they survive
        so a restarted context can re-register them from the journal.
        """
        for shuffle_id in self.shuffle_ids():
            self.remove_shuffle(shuffle_id, spare_durable=True)
        with self._lock:
            self._fetch_retries = 0


def _export(outputs: Dict[int, _MapOutput], maps: Iterable[int]
            ) -> Tuple[Dict[int, SpanMap], Dict[int, Source]]:
    """``maps``' buckets and key samples, as :func:`catalog_of` takes them;
    a listed map with no output exports as empty."""
    listed = {map_partition: outputs.get(map_partition)
              for map_partition in maps}
    return ({map_partition: {} if output is None else dict(output.buckets)
             for map_partition, output in listed.items()},
            {map_partition: output.sample
             for map_partition, output in listed.items()
             if output is not None and output.sample is not None})
