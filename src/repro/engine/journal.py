"""Write-ahead job journal: the durable half of driver-crash recovery.

PR 8–9 made the *workers* expendable — lineage recomputes lost map output,
crashed pools respawn — but the driver remained a single point of failure:
kill it and the map-output catalog, the cache and every completed stage
die with it.  The journal closes that gap.  A context configured
with ``EngineConfig.checkpoint_dir`` records, as execution progresses:

* per completed shuffle: the full span catalog of its durable frame
  files, keyed by the shuffle id *and* the content fingerprint of the
  map-side lineage — operators, user-function bytecode and source content
  (:func:`shuffle_journal_key`, :mod:`repro.engine.fingerprint`) — so a
  restarted run of the same program matches its entries while a *changed*
  program (edited map/filter logic, different input, different plan shape)
  never adopts the old program's map output.  A checkpoint
  (:meth:`~repro.engine.dataset.Dataset.checkpoint`) is a shuffle with one
  bucket per map, so it is recorded the same way and adopted the same way.

An entry is the JSON line encoding of a span catalog
(:func:`~repro.engine.shuffle.catalog_of`): its map partitions under
``"maps"``, its buckets under ``"spans"`` as *span records* — a
:class:`~repro.engine.memory.Span` ``[path, offset, length, count]``
followed by ``map, reduce, estimated bytes`` — and each map's key sample
under ``"samples"`` as ``[path, offset, length, count, map]``.

``journal.json`` is an append-only file of compact JSON lines.  Line 1 is
the header ``{"version": JOURNAL_VERSION}``; every later line is one
record, ``{"kind": "shuffles", "key": ..., "entry": {...} | null}``,
appended and fsynced as a shuffle settles (``null`` forgets the key).
Reading it back is a fold
(:func:`load_journal_state`): the last record per key wins, and the first
line that lacks its newline, fails to parse or is not a record ends the
fold — an append cut short by a crash is the expected failure, not
corruption.  Opening a journal
rewrites it once, atomically, as the header plus its live records, which
both compacts an old file and creates a new one.

The journal is a **hint, never a correctness dependency**: a resumed
context (``EngineConfig.recover_from``) revalidates every recorded span —
every frame header and CRC, and that the frames fill the span exactly
(:func:`~repro.engine.memory.verify_span`) — before re-registering
anything.  Corrupt, truncated or missing entries — including a damaged
journal file itself — are dropped and counted
(``recovery_invalid_entries``); their partitions recompute from lineage
exactly as if the journal had never existed.  What validation does not
decode (a record count, a codec byte flipped to another valid codec) the
verified read every consumer goes through still catches, and the span
recomputes from lineage then.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Optional, Set, Tuple

from ..errors import ShuffleCorruptionError
from .fingerprint import shuffle_fingerprint
from .memory import Span, verify_span

#: On-disk journal version; bumped on incompatible layout changes.
#: Version 2 keyed shuffle entries by lineage signature instead of bare
#: shuffle id; version 3 keys shuffles and checkpoints by the content
#: fingerprint of :mod:`repro.engine.fingerprint`, which — unlike the
#: ``repr(source)`` of version 2 — covers a source's seed, parameters and
#: data; version 4 records checkpoints as span lists, like shuffles;
#: version 5 records each shuffle map's key sample; version 6 replaces the
#: whole JSON document with one appended line per record; version 7 marks
#: the hash placement under which equal keys share a partition across
#: numeric types (``True``/``1``/``1.0``, ``-1.0``/``-1``) and NaN has one
#: partition — a shuffle output adopted from an older journal would split
#: such keys from the ones recomputed now; version 8 records a checkpoint
#: as the shuffle it is, so a version-7 ``checkpoints`` line — keyed by a
#: fingerprint, or by a bare dataset id when the lineage had none — is never
#: adopted.  Older journals are discarded as a cold start.
JOURNAL_VERSION = 8

#: File name of the journal inside ``checkpoint_dir``.
JOURNAL_NAME = "journal.json"

#: The kinds of record; each is its own key space.
KINDS = ("shuffles",)

#: ``(kind, key) -> entry`` of the live records, in the order of their
#: last records.
_Live = Dict[Tuple[str, str], Dict[str, Any]]


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` with tmp + rename + fsync discipline.

    The payload lands in a same-directory temporary file, is fsynced, and
    is renamed over the target; the directory is fsynced too so the rename
    itself survives a crash.  Readers therefore only ever observe either
    the old complete file or the new complete file.
    """
    directory = os.path.dirname(path) or "."
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def shuffle_journal_key(dependency) -> Optional[str]:
    """Journal key of one shuffle: its id *plus* the map side's identity.

    Shuffle ids are per-context counters, so alone they collide across
    *different* programs resumed over the same ``checkpoint_dir`` — the id
    only disambiguates two shuffles of the same parent (a group-by and a
    sort over one dataset share the parent lineage).  What actually gates
    adoption is the content fingerprint of the map side
    (:func:`~repro.engine.fingerprint.shuffle_fingerprint`: the parent's
    lineage down to its sources' content, the partitioner and the map-side
    function), so a resumed run of a changed program, or of the same
    program over changed input, never adopts the old run's map output.
    ``None`` — journal nothing, adopt nothing — when the lineage has no
    stable identity.
    """
    fingerprint = shuffle_fingerprint(dependency)
    if fingerprint is None:
        return None
    return f"shuffle:{dependency.shuffle_id}:{fingerprint}"


def _line(**fields: Any) -> bytes:
    # compact and unindented: any indent forces the pure-Python encoder
    return json.dumps(fields, separators=(",", ":")).encode("utf-8") + b"\n"


def _parse(line: bytes) -> Any:
    try:
        return json.loads(line)
    except ValueError:
        return None


def _fold(blob: bytes) -> Optional[_Live]:
    """Replay a journal file; ``None`` unless line 1 is the header of
    :data:`JOURNAL_VERSION`.

    The last record per key wins and a ``null`` entry drops the key.  The
    first line that lacks its newline, fails to parse or is not a record
    ends the fold: everything before it stands.
    """
    lines = blob.split(b"\n")
    # the piece after the last newline is a torn line, or empty
    if len(lines) < 2 or _parse(lines[0]) != {"version": JOURNAL_VERSION}:
        return None
    live: _Live = {}
    for line in lines[1:-1]:
        record = _parse(line)
        if not isinstance(record, dict) or \
                set(record) != {"kind", "key", "entry"} or \
                record["kind"] not in KINDS or \
                not isinstance(record["key"], str) or \
                not isinstance(record["entry"], (dict, type(None))):
            break
        slot = (record["kind"], record["key"])
        live.pop(slot, None)
        if record["entry"] is not None:
            live[slot] = record["entry"]
    return live


def _read(path: str) -> Optional[_Live]:
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    return _fold(blob)


class JobJournal:
    """Owns ``<checkpoint_dir>/journal.json`` and its appends.

    Opening folds the file left by a previous run — keeping its entries
    resumable across *repeated* crashes — and rewrites it once, atomically,
    as the header plus those live records; that also cuts off a torn tail,
    which a later append would otherwise extend into a line the fold
    stops at, hiding every record after it.  From then on every change is
    one appended, fsynced line; recording an entry equal to the live one
    writes nothing.  All mutating methods are thread-safe.  Bytes written
    accumulate and are drained into the running job's ``journal_bytes``
    metric.
    """

    def __init__(self, directory: str):
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, JOURNAL_NAME)
        self._lock = threading.Lock()
        self._live: _Live = _read(self.path) or {}
        payload = _line(version=JOURNAL_VERSION) + b"".join(
            _line(kind=kind, key=key, entry=entry)
            for (kind, key), entry in self._live.items())
        atomic_write_bytes(self.path, payload)
        self._bytes_written = len(payload)

    # -- recording ---------------------------------------------------------

    def record_shuffle(self, key: str, shuffle_id: int, num_maps: int,
                       num_reduces: int, catalog: Dict[str, Any]) -> None:
        """Record a settled shuffle's durable span catalog.

        ``catalog`` is the :meth:`ShuffleManager.export_durable_catalog`
        result, every path in it durable.  A superseded entry's files that
        the new catalog no longer references are unlinked, so repeated
        runs over one ``checkpoint_dir`` do not accumulate orphaned frames.
        """
        spans = [[*span, m, r, size]
                 for (m, r), (span, size) in sorted(catalog["buckets"].items())]
        samples = [[*span, m]
                   for m, span in sorted(catalog.get("samples", {}).items())]
        self._record("shuffles", key, {
            "shuffle_id": shuffle_id,
            "num_maps": num_maps,
            "num_reduces": num_reduces,
            "maps": sorted(catalog["maps"]),
            "spans": spans,
            "samples": samples,
        })

    def forget_shuffle(self, key: str) -> None:
        """Drop a shuffle entry (its recorded spans were invalidated)."""
        self._record("shuffles", key, None)

    def _record(self, kind: str, key: str,
                entry: Optional[Dict[str, Any]]) -> None:
        """Append one record (``None`` drops the key), then unlink the
        files only the entry it replaced referenced — after the fsync, so
        a crash never leaves a live record naming deleted files."""
        slot = (kind, key)
        with self._lock:
            previous = self._live.get(slot)
            if entry == previous:
                return
            line = _line(kind=kind, key=key, entry=entry)
            with open(self.path, "ab") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
            self._bytes_written += len(line)
            self._live.pop(slot, None)
            if entry is not None:
                self._live[slot] = entry
            if previous is not None:
                self._unlink_stale_locked(_entry_files(previous))

    # -- metrics -----------------------------------------------------------

    def drain_bytes_written(self) -> int:
        """Journal bytes written since the last drain (``journal_bytes``)."""
        with self._lock:
            count, self._bytes_written = self._bytes_written, 0
            return count

    # -- plumbing ----------------------------------------------------------

    def _unlink_stale_locked(self, dropped: Set[str]) -> None:
        """Best-effort deletion of files no journal entry references.

        Invalidated and superseded entries would otherwise orphan their
        span files forever (the durable transport's cleanup
        deliberately keeps them for ``recover_from`` resumes).  Only paths
        inside the journal's own directory are ever touched, and only ones
        no surviving entry still points at.
        """
        live: Set[str] = set()
        for entry in self._live.values():
            live |= _entry_files(entry)
        root = self.directory + os.sep
        for path in sorted(dropped - live):
            target = os.path.abspath(path)
            if not target.startswith(root):
                continue
            try:
                os.unlink(target)
            except OSError:
                continue
            try:  # sweep the per-shuffle directory once it empties
                os.rmdir(os.path.dirname(target))
            except OSError:
                pass


def _entry_files(entry: Any) -> Set[str]:
    """The durable file paths a shuffle entry references."""
    files: Set[str] = set()
    for record in [*(entry.get("spans") or ()), *(entry.get("samples") or ())]:
        try:
            files.add(str(record[0]))
        except (TypeError, IndexError, KeyError):
            continue
    return files


def load_journal_state(directory: str) -> Optional[Dict[str, Dict[str, Any]]]:
    """Fold a journal into ``{kind: {key: entry}}`` for every kind.

    ``None`` when the file is absent or its first line is not the
    :data:`JOURNAL_VERSION` header (an older journal, or garbage):
    recovery then degrades to a counted cold start.  A torn tail only
    shortens the fold.
    """
    live = _read(os.path.join(directory, JOURNAL_NAME))
    if live is None:
        return None
    state: Dict[str, Dict[str, Any]] = {kind: {} for kind in KINDS}
    for (kind, key), entry in live.items():
        state[kind][key] = entry
    return state


def _valid_span(record: Any) -> Optional[Span]:
    """Check one journalled span record; its span, or ``None`` if bad.

    The record's leading ``[path, offset, length, count]`` go through
    :func:`verify_span`, so a
    span counts as valid only when every frame header and CRC check and
    the frames fill it exactly.  Nothing is decoded here; the record count
    is checked by the read that consumes the span.
    """
    try:
        span = Span(str(record[0]), int(record[1]), int(record[2]),
                    int(record[3]))
        verify_span(span)
    except (OSError, ShuffleCorruptionError, TypeError, ValueError,
            IndexError, KeyError):
        return None
    return span


def validate_shuffle_entry(entry: Any) -> Tuple[Dict[int, Dict[int, tuple]],
                                                Dict[int, Span], int, int]:
    """Revalidate one recorded shuffle's spans and key samples.

    Returns ``(per_map, samples, num_maps, invalid count)``: ``per_map`` and
    ``samples`` are what :func:`~repro.engine.shuffle.catalog_of` takes —
    per map ``{reduce: (span, estimated bytes)}`` and the key-sample span —
    for every recorded map partition with no bad span.  A map that wrote
    no records has no span and is adopted as it is; a map with *any* bad
    span, its sample included, is dropped wholesale, so the resumed
    scheduler recomputes it from lineage instead of serving a
    half-restored output.  A recorded map outside ``range(num_maps)``, or
    a span record that names no recorded map, counts as invalid.
    """
    try:
        num_maps = int(entry["num_maps"])
        listed = [int(map_partition) for map_partition in entry["maps"]]
        records = list(entry["spans"])
        sample_records = list(entry["samples"])
    except (KeyError, TypeError, ValueError):
        return {}, {}, 0, 1
    per_map: Dict[int, Dict[int, tuple]] = {
        map_partition: {} for map_partition in listed
        if 0 <= map_partition < num_maps}
    samples: Dict[int, Span] = {}
    bad_maps: set = set()
    invalid = sum(not 0 <= map_partition < num_maps
                  for map_partition in listed)
    # a bucket record ends in (map, reduce, bytes), a sample record in (map)
    for record, width in [(record, 3) for record in records] + \
            [(record, 1) for record in sample_records]:
        try:
            coordinates = [int(value) for value in record[4:]]
        except (TypeError, ValueError):
            coordinates = []
        if len(coordinates) != width or coordinates[0] not in per_map:
            invalid += 1  # names no recorded map partition to drop
            continue
        map_partition = coordinates[0]
        span = _valid_span(record)
        if span is None:
            invalid += 1
            bad_maps.add(map_partition)
        elif width == 1:
            samples[map_partition] = span
        else:
            per_map[map_partition][coordinates[1]] = (span, coordinates[2])
    for map_partition in bad_maps:
        del per_map[map_partition]
        samples.pop(map_partition, None)
    return per_map, samples, num_maps, invalid


#: Kept only for the row of ``benchmarks/e21/trace.py``'s ``SITES`` that
#: names it (a checkpoint is a shuffle since journal version 8); it goes
#: when that table changes (ROADMAP item 5).
validate_checkpoint_entry = validate_shuffle_entry
