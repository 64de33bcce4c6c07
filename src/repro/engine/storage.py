"""An in-memory store of computed partitions shared across contexts.

A platform lends one :class:`BlockStore` to every context it creates
(``EngineContext(shared_blocks=...)``); datasets marked with
:meth:`repro.engine.dataset.Dataset.share` look their partitions up there
by content fingerprint and publish what they materialise.  The store
enforces a memory budget in *resident* bytes with LRU eviction.  It
outlives the jobs that fill it, so it admits a block only on the *second*
request for its key: most of what a trial-and-error session reads is read
exactly once, and a cache-on-second-request rule keeps such one-off scans
from being materialised at all, let alone from flushing what is actually
reused.  (A context's own ``cache()`` is not kept here: a cached partition
is map output of a one-bucket shuffle, :mod:`repro.engine.dataset`.)
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from .shuffle import _stride_sample

#: Records measured per block by :func:`resident_bytes`.
_RESIDENT_SAMPLE_SIZE = 32

#: Keys a second-touch store remembers having been asked for; a few dozen
#: bytes each, oldest forgotten first.
_SEEN_KEYS_LIMIT = 4096


def _deep_sizeof(obj: Any, seen: Set[int]) -> int:
    """``sys.getsizeof`` of ``obj`` and what it holds, each object once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += _deep_sizeof(key, seen) + _deep_sizeof(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += _deep_sizeof(item, seen)
    else:
        attributes = getattr(obj, "__dict__", None)
        if isinstance(attributes, dict):
            size += _deep_sizeof(attributes, seen)
    return size


def resident_bytes(records: List[Any]) -> int:
    """Estimate the memory a list of records keeps alive.

    A stride sample is measured with ``sys.getsizeof`` over containers, keys
    and values — objects the sampled records share (interned field names,
    small integers) counted once — and extrapolated; the list's own pointer
    array is added exactly, as the copy a store keeps has it (not with the
    spare capacity of a list grown by appends).  Pickled size, the previous
    measure, came out near 85 bytes per scenario record against roughly 600
    resident, so a budget enforced with it held about seven times what it
    said.
    """
    array = sys.getsizeof(list(records))
    if not records:
        return array
    sample = _stride_sample(records, _RESIDENT_SAMPLE_SIZE)
    seen: Set[int] = set()
    sampled = sum(_deep_sizeof(record, seen) for record in sample)
    return array + sampled * len(records) // len(sample)


class BlockStore:
    """LRU cache of partition blocks keyed by ``(dataset_id, partition)``.

    ``dataset_id`` is any hashable: a shared store's keys are content
    fingerprints (or a source's range identity).  ``admit_on_second_touch``
    selects the admission rule (see :meth:`admits`); the default admits
    everything.
    """

    def __init__(self, memory_budget_bytes: int = 256 * 1024 * 1024,
                 admit_on_second_touch: bool = False):
        self._lock = threading.Lock()
        self._blocks: "OrderedDict[Tuple[Hashable, int], List[Any]]" = OrderedDict()
        self._sizes: Dict[Tuple[Hashable, int], int] = {}
        #: Who materialised each block (a run id), when the writer said.
        self._origins: Dict[Tuple[Hashable, int], str] = {}
        #: Keys asked for and declined once (second-touch stores only).
        self._seen: "Optional[OrderedDict[Tuple[Hashable, int], None]]" = \
            OrderedDict() if admit_on_second_touch else None
        self.memory_budget_bytes = memory_budget_bytes
        self.bytes_stored = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- write ----------------------------------------------------------------

    def admits(self, dataset_id: Hashable, partition: int) -> bool:
        """Whether a block computed now for this key would be kept.

        Callers ask *before* materialising a missed partition, so a block
        the store would decline is streamed instead of built.  A
        second-touch store declines a key the first time and remembers it;
        the next request for the same key is admitted.
        """
        if self._seen is None:
            return True
        key = (dataset_id, partition)
        with self._lock:
            if key in self._seen:
                return True
            self._seen[key] = None
            if len(self._seen) > _SEEN_KEYS_LIMIT:
                self._seen.popitem(last=False)
            return False

    def put(self, dataset_id: Hashable, partition: int, records: List[Any],
            origin: str = "") -> None:
        """Cache the records of a partition, evicting LRU blocks if needed."""
        key = (dataset_id, partition)
        size = resident_bytes(records)
        with self._lock:
            self._drop(key)
            self._blocks[key] = list(records)
            self._sizes[key] = size
            if origin:
                self._origins[key] = origin
            self.bytes_stored += size
            while self.bytes_stored > self.memory_budget_bytes and self._blocks:
                self._drop(next(iter(self._blocks)))
                self.evictions += 1

    def _drop(self, key: Tuple[Hashable, int]) -> None:
        if self._blocks.pop(key, None) is not None:
            self.bytes_stored -= self._sizes.pop(key)
            self._origins.pop(key, None)

    # -- read -----------------------------------------------------------------

    def get(self, dataset_id: Hashable, partition: int) -> Optional[List[Any]]:
        """Return the cached records, or ``None`` on a miss."""
        key = (dataset_id, partition)
        with self._lock:
            if key in self._blocks:
                self._blocks.move_to_end(key)
                self.hits += 1
                return self._blocks[key]
            self.misses += 1
            return None

    def origin_of(self, dataset_id: Hashable, partition: int) -> str:
        """Who materialised the block (``""`` when absent or untagged)."""
        with self._lock:
            return self._origins.get((dataset_id, partition), "")

    def contains(self, dataset_id: Hashable, partition: int) -> bool:
        """True when the partition is currently cached."""
        with self._lock:
            return (dataset_id, partition) in self._blocks

    def dataset_ids(self) -> Set[Hashable]:
        """Ids (fingerprints, in a shared store) holding at least one block."""
        with self._lock:
            return {key[0] for key in self._blocks}

    # -- management -------------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached block (and forget which keys were asked for)."""
        with self._lock:
            if self._seen is not None:
                self._seen.clear()
            self._blocks.clear()
            self._sizes.clear()
            self._origins.clear()
            self.bytes_stored = 0

    def stats(self) -> Dict[str, int]:
        """Return cache statistics for reports and tests."""
        with self._lock:
            return {
                "blocks": len(self._blocks),
                "bytes_stored": self.bytes_stored,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
