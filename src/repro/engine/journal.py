"""Write-ahead job journal: the durable half of driver-crash recovery.

PR 8–9 made the *workers* expendable — lineage recomputes lost map output,
crashed pools respawn — but the driver remained a single point of failure:
kill it and the map-output catalog, the block store and every completed
stage die with it.  The journal closes that gap.  A context configured
with ``EngineConfig.checkpoint_dir`` records, as execution progresses:

* per job: the content fingerprint of the dataset it ran and the stage
  graph as stages settle;
* per completed shuffle: the full span catalog of its durable frame
  files, keyed by the shuffle id *and* the content fingerprint of the
  map-side lineage — operators, user-function bytecode and source content
  (:func:`shuffle_journal_key`, :mod:`repro.engine.fingerprint`) — so a
  restarted run of the same program matches its entries while a *changed*
  program (edited map/filter logic, different input, different plan shape)
  never adopts the old program's map output;
* per checkpoint (:meth:`~repro.engine.dataset.Dataset.checkpoint`): the
  spans of the checksummed partitions a dataset was materialised to.

Both kinds of entry store a list of *span records*: a
:class:`~repro.engine.memory.Span` ``[path, offset, length, count]``
followed by its coordinates (``map, reduce, estimated bytes`` for a
shuffle bucket; none for a checkpoint partition, whose index is its
position).  A shuffle entry also lists each map's key sample under
``"samples"`` as ``[path, offset, length, count, map]``.  Every update
rewrites ``journal.json`` with tmp + rename + fsync discipline, so the
journal on disk is always one complete, parseable document — a crashed
write leaves the previous version intact.

The journal is a **hint, never a correctness dependency**: a resumed
context (``EngineConfig.recover_from``) revalidates every recorded span —
every frame header and CRC, and that the frames fill the span exactly
(:func:`~repro.engine.memory.verify_span`) — before re-registering
anything.  Corrupt, truncated or missing entries — including a damaged
journal document itself — are dropped and counted
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
from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import ShuffleCorruptionError
from .fingerprint import shuffle_fingerprint
from .memory import Span, verify_span

#: On-disk journal document version; bumped on incompatible layout changes.
#: Version 2 keyed shuffle entries by lineage signature instead of bare
#: shuffle id; version 3 keys shuffles and checkpoints by the content
#: fingerprint of :mod:`repro.engine.fingerprint`, which — unlike the
#: ``repr(source)`` of version 2 — covers a source's seed, parameters and
#: data; version 4 records checkpoints as span lists, like shuffles;
#: version 5 records each shuffle map's key sample.  Older journals are
#: discarded as a cold start.
JOURNAL_VERSION = 5

#: File name of the journal document inside ``checkpoint_dir``.
JOURNAL_NAME = "journal.json"


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


class JobJournal:
    """Owns ``<checkpoint_dir>/journal.json`` and its atomic updates.

    All mutating methods are thread-safe and each performs one full atomic
    rewrite of the document — journals stay small (signatures, span
    coordinates and file names, never data), so whole-document rewrites
    are simpler and safer than an append log that would need its own
    torn-tail handling.  Byte counts of every rewrite accumulate and are
    drained into the running job's ``journal_bytes`` metric.
    """

    def __init__(self, directory: str):
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, JOURNAL_NAME)
        self._lock = threading.Lock()
        self._bytes_written = 0
        existing = load_journal_state(self.directory)
        #: The live document.  Starting from the previous run's (parseable)
        #: state keeps validated entries resumable across *repeated*
        #: crashes; a fresh directory starts empty.
        self._state: Dict[str, Any] = existing if existing is not None else {
            "version": JOURNAL_VERSION,
            "jobs": [],
            "shuffles": {},
            "checkpoints": {},
        }

    # -- recording ---------------------------------------------------------

    def record_job(self, job_id: int, description: str,
                   plan_signature: Optional[str]) -> None:
        """Open a job entry: its id, description and lineage fingerprint."""
        with self._lock:
            self._state["jobs"].append({
                "job_id": job_id,
                "description": description,
                "plan_signature": plan_signature,
                "stages": [],
            })
            self._flush_locked()

    def record_stage(self, job_id: int, stage_name: str) -> None:
        """Append one settled stage to the job's recorded stage graph."""
        with self._lock:
            for entry in reversed(self._state["jobs"]):
                if entry["job_id"] == job_id:
                    entry["stages"].append(stage_name)
                    break
            else:
                return
            self._flush_locked()

    def record_shuffle(self, key: str, shuffle_id: int, num_maps: int,
                       num_reduces: int, catalog: Dict[str, Any]) -> None:
        """Record a settled shuffle's durable span catalog.

        ``catalog`` is the :meth:`ShuffleManager.export_durable_catalog`
        result: ``{"maps": [...], "buckets": {(map, reduce): (span,
        size)}, "samples": {map: span}}`` with every path durable.  A
        superseded entry's files that the new catalog no longer references
        are unlinked, so repeated runs over one ``checkpoint_dir`` do not
        accumulate orphaned frames.
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

    def record_checkpoint(self, key: str, name: str,
                          spans: List[Span]) -> None:
        """Record a materialised checkpoint: one span per partition."""
        self._record("checkpoints", key, {
            "name": name,
            "num_partitions": len(spans),
            "spans": [list(span) for span in spans],
        })

    def forget_checkpoint(self, key: str) -> None:
        """Drop a checkpoint entry (its files went missing or corrupt)."""
        self._record("checkpoints", key, None)

    def forget_shuffle(self, key: str) -> None:
        """Drop a shuffle entry (its recorded spans were invalidated)."""
        self._record("shuffles", key, None)

    def _record(self, kind: str, key: str,
                entry: Optional[Dict[str, Any]]) -> None:
        """Install (or, with ``None``, drop) one entry, then unlink the
        files only the entry it replaced referenced."""
        with self._lock:
            previous = self._state[kind].pop(key, None)
            if entry is not None:
                self._state[kind][key] = entry
            elif previous is None:
                return
            self._flush_locked()
            if previous is not None:
                self._unlink_stale_locked(_entry_files(previous))

    # -- metrics -----------------------------------------------------------

    def drain_bytes_written(self) -> int:
        """Journal bytes written since the last drain (``journal_bytes``)."""
        with self._lock:
            count, self._bytes_written = self._bytes_written, 0
            return count

    # -- plumbing ----------------------------------------------------------

    def _flush_locked(self) -> None:
        # compact and unindented: any indent forces the pure-Python encoder
        payload = json.dumps(self._state, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        atomic_write_bytes(self.path, payload)
        self._bytes_written += len(payload)

    def _live_files_locked(self) -> Set[str]:
        """Every file some current journal entry still references."""
        live: Set[str] = set()
        for entry in self._state["shuffles"].values():
            live |= _entry_files(entry)
        for entry in self._state["checkpoints"].values():
            live |= _entry_files(entry)
        return live

    def _unlink_stale_locked(self, dropped: Set[str]) -> None:
        """Best-effort deletion of files no journal entry references.

        Invalidated and superseded entries would otherwise orphan their
        span and checkpoint files forever (the durable transport's cleanup
        deliberately keeps them for ``recover_from`` resumes).  Only paths
        inside the journal's own directory are ever touched, and only ones
        no surviving entry still points at.
        """
        live = self._live_files_locked()
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
    """The durable file paths a shuffle or checkpoint entry references."""
    files: Set[str] = set()
    if not isinstance(entry, dict):
        return files
    for record in [*(entry.get("spans") or ()), *(entry.get("samples") or ())]:
        try:
            files.add(str(record[0]))
        except (TypeError, IndexError, KeyError):
            continue
    return files


def load_journal_state(directory: str) -> Optional[Dict[str, Any]]:
    """Parse a journal document, or ``None`` when absent or damaged.

    A truncated or otherwise unparseable journal is treated exactly like a
    missing one — recovery degrades to a cold start — because the atomic
    write discipline means damage can only come from outside the engine.
    """
    path = os.path.join(directory, JOURNAL_NAME)
    try:
        with open(path, "rb") as handle:
            state = json.loads(handle.read().decode("utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(state, dict) or \
            state.get("version") != JOURNAL_VERSION or \
            not isinstance(state.get("shuffles"), dict) or \
            not isinstance(state.get("checkpoints"), dict):
        return None
    state.setdefault("jobs", [])
    return state


def _valid_span(record: Any) -> Optional[Span]:
    """Check one journalled span record; its span, or ``None`` if bad.

    The one validator both kinds of entry share: the record's leading
    ``[path, offset, length, count]`` go through :func:`verify_span`, so a
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

    Returns ``(per-map {reduce: (span, estimated bytes)} of fully valid map
    partitions, {map: key-sample span} of the same maps, num_maps, invalid
    span count)``; a map partition with *any* bad span, its sample
    included, is dropped wholesale, so the resumed scheduler recomputes it
    from lineage instead of serving a half-restored output.
    """
    try:
        num_maps = int(entry["num_maps"])
        records = list(entry["spans"])
        sample_records = list(entry["samples"])
    except (KeyError, TypeError, ValueError):
        return {}, {}, 0, 1
    per_map: Dict[int, Dict[int, tuple]] = {}
    samples: Dict[int, Span] = {}
    bad_maps: set = set()
    invalid = 0
    # a bucket record ends in (map, reduce, bytes), a sample record in (map)
    for record, width in [(record, 3) for record in records] + \
            [(record, 1) for record in sample_records]:
        try:
            coordinates = [int(value) for value in record[4:]]
        except (TypeError, ValueError):
            coordinates = []
        if len(coordinates) != width:
            invalid += 1  # names no map partition to drop
            continue
        map_partition = coordinates[0]
        span = _valid_span(record)
        if span is None:
            invalid += 1
            bad_maps.add(map_partition)
        elif width == 1:
            samples[map_partition] = span
        else:
            per_map.setdefault(map_partition, {})[coordinates[1]] = \
                (span, coordinates[2])
    for map_partition in bad_maps:
        per_map.pop(map_partition, None)
        samples.pop(map_partition, None)
    return per_map, samples, num_maps, invalid


def validate_checkpoint_entry(entry: Any) -> Tuple[Optional[List[Span]], int]:
    """Revalidate one recorded checkpoint's partition spans.

    Returns ``(spans, invalid span count)``, with ``spans`` ``None`` unless
    every partition is valid: checkpoints are adopted all-or-nothing — a
    dataset with one unreadable partition recomputes entirely, since
    lineage recomputation is always available.
    """
    try:
        records = list(entry["spans"])
        num_partitions = int(entry["num_partitions"])
    except (KeyError, TypeError, ValueError):
        return None, 1
    if len(records) != num_partitions:
        return None, 1
    spans = [_valid_span(record) for record in records]
    invalid = spans.count(None)
    return (None if invalid else spans), invalid
