"""Partitioners decide which reduce partition a key belongs to.

They are used by every wide (shuffle) transformation: ``group_by_key``,
``reduce_by_key``, ``join``, ``distinct``, ``sort_by`` and ``repartition``.

Placement contract: keys that compare equal share a partition, whatever
their numeric type — ``1``, ``True`` and ``1.0`` are one key to every keyed
operator, as they are to a Python dict — and every NaN key lands in one
partition, on every attempt and in every process.

A map task places a whole batch at once with the function
:meth:`Partitioner.task_partitions_of` returns; by definition it equals
mapping the per-task assignment (:meth:`Partitioner.task_partition_for`)
over the keys, and :meth:`Partitioner.partition_for` stays the per-key
definition.
"""

from __future__ import annotations

import bisect
import random
from typing import Any, Callable, List, Optional, Sequence

from ..errors import PlanError
from .fingerprint import object_fingerprint


def _stable_hash(value: Any) -> int:
    """Return a deterministic non-negative hash for ``value``.

    Python's built-in ``hash`` is randomised per process for strings; the
    engine needs run-to-run stable placement so that tests and benchmarks are
    reproducible.  Tuples and frozensets are hashed structurally.  Equal keys
    hash alike across numeric types: a ``bool`` or an integral float hashes
    as the int it equals, and NaN (whose built-in hash is its object
    identity) hashes to 0.
    """
    if value is None:
        return 0
    if isinstance(value, int):
        return value & 0x7FFFFFFF
    if isinstance(value, float):
        if value.is_integer():
            return int(value) & 0x7FFFFFFF
        return 0 if value != value else hash(value) & 0x7FFFFFFF
    if isinstance(value, str):
        acc = 2166136261
        for ch in value:
            acc = (acc ^ ord(ch)) * 16777619 & 0xFFFFFFFF
        return acc & 0x7FFFFFFF
    if isinstance(value, bytes):
        acc = 2166136261
        for b in value:
            acc = (acc ^ b) * 16777619 & 0xFFFFFFFF
        return acc & 0x7FFFFFFF
    if isinstance(value, (tuple, list)):
        acc = 1
        for item in value:
            acc = (acc * 31 + _stable_hash(item)) & 0x7FFFFFFF
        return acc
    if isinstance(value, frozenset):
        acc = 0
        for item in value:
            acc ^= _stable_hash(item)
        return acc & 0x7FFFFFFF
    return hash(value) & 0x7FFFFFFF


class Partitioner:
    """Base class: maps a key to a partition index in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise PlanError("a partitioner needs at least one partition")
        self.num_partitions = int(num_partitions)

    def partition_for(self, key: Any) -> int:
        """Return the partition index the key is assigned to."""
        raise NotImplementedError

    def task_partition_for(self) -> Callable[[Any], int]:
        """Return the assignment function one map-task invocation should use.

        Stateless partitioners simply hand out :meth:`partition_for`.
        Stateful ones (round-robin) return a *fresh* assignment closure so
        that a task's placement is a pure function of record order within
        its own partition — never of what other tasks, earlier jobs, or
        failed attempts consumed.  Fault recovery depends on this: a
        recomputed map task must rebuild byte-identical buckets.
        """
        return self.partition_for

    def task_partitions_of(self) -> Callable[[Sequence[Any]], List[int]]:
        """Return the batch form of :meth:`task_partition_for`: one task's
        function from a batch of keys to their partition indices."""
        assign = self.task_partition_for()
        return lambda keys: list(map(assign, keys))

    def fingerprint(self) -> Optional[str]:
        """Content identity: the class and every attribute.

        ``repr`` is for plans and leaves out what placement also depends on
        (range boundaries and key function, the round-robin seed), so
        lineage fingerprints ask here instead.
        """
        return object_fingerprint(self)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:  # pragma: no cover - partitioners rarely hashed
        return hash((type(self).__name__, self.num_partitions))


class HashPartitioner(Partitioner):
    """Assign keys to partitions by stable hashing (the default)."""

    def partition_for(self, key: Any) -> int:
        return _stable_hash(key) % self.num_partitions

    def task_partitions_of(self) -> Callable[[Sequence[Any]], List[int]]:
        return self._partitions_of

    def _partitions_of(self, keys: Sequence[Any]) -> List[int]:
        # the batch's key types are read at C level: an all-int batch (bool
        # is its own type) hashes inline, any other one per key
        n = self.num_partitions
        if set(map(type, keys)) == {int}:
            return [(key & 0x7FFFFFFF) % n for key in keys]
        return [_stable_hash(key) % n for key in keys]

    def __repr__(self) -> str:
        return f"HashPartitioner({self.num_partitions})"


class RangePartitioner(Partitioner):
    """Assign keys to contiguous ranges; used by ``sort_by``.

    The boundaries are computed from a sample of the keys so that the output
    partitions are roughly balanced.
    """

    def __init__(self, num_partitions: int, boundaries: Sequence[Any],
                 key_func: Callable[[Any], Any] | None = None,
                 ascending: bool = True):
        super().__init__(num_partitions)
        self.boundaries = list(boundaries)
        self.key_func = key_func or (lambda value: value)
        self.ascending = ascending

    @classmethod
    def from_sample(cls, sample: Sequence[Any], num_partitions: int,
                    key_func: Callable[[Any], Any] | None = None,
                    ascending: bool = True) -> "RangePartitioner":
        """Build a partitioner whose boundaries split ``sample`` evenly."""
        key_func = key_func or (lambda value: value)
        keys = sorted(key_func(item) for item in sample)
        boundaries: List[Any] = []
        if keys and num_partitions > 1:
            step = len(keys) / num_partitions
            for i in range(1, num_partitions):
                index = min(len(keys) - 1, int(round(i * step)))
                boundaries.append(keys[index])
        return cls(num_partitions, boundaries, key_func=key_func, ascending=ascending)

    def partition_for(self, key: Any) -> int:
        projected = self.key_func(key)
        index = bisect.bisect_right(self.boundaries, projected)
        if not self.ascending:
            index = len(self.boundaries) - index
        return max(0, min(self.num_partitions - 1, index))

    def task_partitions_of(self) -> Callable[[Sequence[Any]], List[int]]:
        if not self.ascending or len(self.boundaries) >= self.num_partitions:
            return super().task_partitions_of()
        # ascending with at most n - 1 boundaries: the index needs no clamp
        boundaries, bisect_right = self.boundaries, bisect.bisect_right
        return lambda keys: [bisect_right(boundaries, projected)
                             for projected in map(self.key_func, keys)]

    def __repr__(self) -> str:
        return (f"RangePartitioner({self.num_partitions}, "
                f"boundaries={len(self.boundaries)}, ascending={self.ascending})")


class RoundRobinPartitioner(Partitioner):
    """Spread records evenly regardless of key; used by ``repartition``.

    Round-robin placement is inherently positional, so the rotation state
    lives in the per-task closure :meth:`task_partition_for` returns — not
    on the shared instance.  A retried or recomputed map task therefore
    reproduces exactly the buckets of the original attempt, and two
    partitioner instances with the same shape stay equal (the optimizer
    compares partitioners when deciding whether a shuffle can be reused).
    """

    def __init__(self, num_partitions: int, seed: int = 0):
        super().__init__(num_partitions)
        self._seed = seed
        self._start = random.Random(seed).randrange(num_partitions)
        self._counter = self._start

    def partition_for(self, key: Any) -> int:
        index = self._counter % self.num_partitions
        self._counter += 1
        return index

    def task_partition_for(self) -> Callable[[Any], int]:
        state = {"next": self._start}
        num_partitions = self.num_partitions

        def assign(key: Any) -> int:
            index = state["next"]
            state["next"] = (index + 1) % num_partitions
            return index

        return assign

    def __eq__(self, other: object) -> bool:
        return (type(self) is type(other)
                and self.num_partitions == other.num_partitions
                and self._seed == other._seed)

    def __hash__(self) -> int:  # pragma: no cover - partitioners rarely hashed
        return hash(("RoundRobinPartitioner", self.num_partitions, self._seed))

    def __repr__(self) -> str:
        return f"RoundRobinPartitioner({self.num_partitions})"
