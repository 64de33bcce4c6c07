"""The wide-operator algebra: every shuffle operator as a fold and a merge.

A wide operator is declared once, in :data:`OPERATORS`, as a
:class:`WideOperator`:

``fold(records) -> partial``
    folds one run of input records into a partial: a ``{key: combiner}``
    dict for the keyed operators, a list for the record-shaped ones.
``merge(streams) -> partial``
    merges partials, each given as its finished records, in map-range
    order.  It is associative over runs of one input: merging the finished
    partials of consecutive runs equals folding their concatenation.
    ``None`` when the merge is not trusted — an aggregation whose
    ``map_side_combine`` rewrite is disabled, which signals that the caller
    does not trust its ``merge_combiners``.
``finish(partial) -> records``
    the partial's output records.

Every way the engine runs an operator is derived from that declaration
(:class:`~repro.engine.dataset.ShuffledDataset` and
:func:`~repro.engine.dataset.wide_dataset`):

* **reduce**: the finish of one partial — the fold of the partition's
  reduce input, or, when the map side already folded, its merge;
* **narrow local form** (``shuffle_elim``): the same fold over a partition;
* **skew split**: a fold per map-range slice, then the merge of the slice
  partials in slice order;
* **external merge**: a fold per spilled run, then the merge of the runs
  and the resident tail, streamed (the list-shaped merges are lazy, so one
  frame per run is resident);
* **map-side combine**: the fold before bucketing (``combine``), declared
  only beside a merge.  Whatever has no merge is therefore never combined,
  split or merged externally.

A partial that leaves the task that built it — a spilled run, a skew-slice
result — travels as its finished records, which is exactly what ``merge``
consumes.  Declarations are tuples of plain functions so the lineage
fingerprint (:mod:`repro.engine.fingerprint`) identifies them by bytecode
and closure cells.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
from typing import (Any, Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple)

#: How a map task routes records to reduce partitions: whole records by
#: the record, ``(key, value)`` pairs by the key, or pairs by the key with
#: the dependency index tagged in (``(key, tag, value)``, cogroup).
RECORD, KEY, TAGGED = "record", "key", "tagged"


class WideOperator(NamedTuple):
    """One wide operator's meaning (see the module docstring)."""

    fold: Callable[[Iterable[Any]], Any]
    merge: Optional[Callable[[List[Iterable[Any]]], Any]]
    finish: Callable[[Any], Iterable[Any]]
    route: str
    #: Fold on the map side before bucketing (needs a merge).
    combine: bool = False


#: What a keyed fold's single ``dict.get`` probe returns for a new key (a
#: combiner may be any value, ``None`` included).
_MISSING = object()


def _identity(value: Any) -> Any:
    return value


def _items(partial: Dict[Any, Any]) -> Iterable[Any]:
    return partial.items()


def _concat(streams: List[Iterable[Any]]) -> Iterable[Any]:
    return itertools.chain.from_iterable(streams)


def _first_appearances(streams: List[Iterable[Any]]) -> Iterator[Any]:
    seen = set()
    for record in itertools.chain.from_iterable(streams):
        if record not in seen:
            seen.add(record)
            yield record


def _distinct(records: Iterable[Any]) -> List[Any]:
    return list(dict.fromkeys(records))


def _group(pairs: Iterable[Any]) -> Dict[Any, List[Any]]:
    grouped: Dict[Any, List[Any]] = {}
    get = grouped.get
    for key, value in pairs:
        values = get(key)
        if values is None:
            grouped[key] = [value]
        else:
            values.append(value)
    return grouped


def _cogroup(triples: Iterable[Any]) -> Dict[Any, Tuple[List[Any], List[Any]]]:
    grouped: Dict[Any, Tuple[List[Any], List[Any]]] = {}
    for key, tag, value in triples:
        slot = grouped.get(key)
        if slot is None:
            grouped[key] = slot = ([], [])
        slot[tag].append(value)
    return grouped


def _merge_by_key(merge_combiners, streams: List[Iterable[Any]]) -> Dict[Any, Any]:
    """Merge ``(key, combiner)`` streams in order: first-appearance key
    order, each key's combiners merged left to right."""
    merged: Dict[Any, Any] = {}
    get = merged.get
    for stream in streams:
        for key, combiner in stream:
            current = get(key, _MISSING)
            merged[key] = (combiner if current is _MISSING
                           else merge_combiners(current, combiner))
    return merged


def _extend(values: List[Any], more: List[Any]) -> List[Any]:
    # merged partials are throwaway: the first list is adopted and extended
    values.extend(more)
    return values


def _extend_each(slot: Tuple[List[Any], ...],
                 more: Tuple[List[Any], ...]) -> Tuple[List[Any], ...]:
    for values, extra in zip(slot, more):
        values.extend(extra)
    return slot


def _sort(key_func, ascending: bool) -> WideOperator:
    reverse = not ascending

    def fold(records: Iterable[Any]) -> List[Any]:
        return sorted(records, key=key_func, reverse=reverse)

    def merge(streams: List[Iterable[Any]]) -> Iterable[Any]:
        # stable, and earlier runs win ties: merging sorted runs in map
        # order equals one stable sort of their concatenation
        return heapq.merge(*streams, key=key_func, reverse=reverse)

    return WideOperator(fold, merge, _identity, RECORD)


def _aggregate(create_combiner, merge_value, merge_combiners,
               trusted: bool) -> WideOperator:
    def fold(pairs: Iterable[Any]) -> Dict[Any, Any]:
        folded: Dict[Any, Any] = {}
        get = folded.get
        for key, value in pairs:
            combiner = get(key, _MISSING)
            folded[key] = (create_combiner(value) if combiner is _MISSING
                           else merge_value(combiner, value))
        return folded

    merge = functools.partial(_merge_by_key, merge_combiners) if trusted else None
    return WideOperator(fold, merge, _items, KEY, combine=trusted)


#: ``group_by_key``; the broadcast join groups its build and stream sides
#: with the same fold and merge.
GROUP = WideOperator(_group, functools.partial(_merge_by_key, _extend),
                     _items, KEY)

#: The wide operators by logical ``op``: each entry reads the node's
#: parameters and returns the physical dataset name and the declaration.
OPERATORS: Dict[str, Callable[[Any], Tuple[str, WideOperator]]] = {
    "repartition": lambda node: (
        f"repartition({node.partitioner.num_partitions})",
        WideOperator(_identity, _concat, _identity, RECORD)),
    "sort": lambda node: ("sort_by", _sort(node.key_func, node.ascending)),
    "distinct": lambda node: ("distinct", WideOperator(
        _distinct, _first_appearances, _identity, RECORD, combine=True)),
    "group_by_key": lambda node: ("group_by_key", GROUP),
    "aggregate": lambda node: (node.name, _aggregate(
        node.create_combiner, node.merge_value, node.merge_combiners,
        node.map_side_combine)),
    "cogroup": lambda node: ("cogroup", WideOperator(
        _cogroup, functools.partial(_merge_by_key, _extend_each), _items,
        TAGGED)),
}


def slice_fold(op: WideOperator) -> Callable[[Iterable[Any]], Any]:
    """The fold of one slice of reduce input into a partial.

    A reduce reads raw input records, or — after a map-side combine —
    finished partials, which merge rather than fold.
    """
    if not op.combine:
        return op.fold
    merge = op.merge

    def merge_run(records: Iterable[Any]) -> Any:
        return merge([records])

    return merge_run


def local_form(op: WideOperator) -> Callable[[Iterable[Any]], Iterable[Any]]:
    """The narrow per-partition form: the fold of a partition, finished."""
    fold, finish = op.fold, op.finish

    def local(records: Iterable[Any]) -> Iterable[Any]:
        return finish(fold(records))

    return local


def map_side(op: WideOperator, partitioner, tag: int):
    """The map side of dependency ``tag``: fold if combining, then bucket.

    Consumes one parent partition's batches and returns ``{reduce
    partition: [records]}`` in the order the partitions first appear (spill
    victims are chosen in that order); the buckets do not depend on how the
    records were batched.  Each batch is placed at once: the partitioner
    turns its keys into a pid list and every row is appended to its
    partition's bucket.  The placement function is taken per invocation
    (:meth:`~repro.engine.partitioner.Partitioner.task_partitions_of`), so
    a recomputed map task rebuilds byte-identical buckets.
    """

    def bucket(batches: Iterable[Iterable[Any]]) -> Dict[int, List[Any]]:
        if op.combine:
            batches = [op.finish(op.fold(itertools.chain.from_iterable(batches)))]
        partitions_of = partitioner.task_partitions_of()
        buckets: Dict[int, List[Any]] = {}
        for batch in batches:
            rows = batch if type(batch) is list else list(batch)
            keys = rows if op.route == RECORD else [key for key, _ in rows]
            if op.route == TAGGED:
                rows = [(key, tag, value) for key, value in rows]
            elif op.route == KEY and set(map(type, rows)) != {tuple}:
                rows = [(key, value) for key, value in rows]
            pids = partitions_of(keys)
            for pid in dict.fromkeys(pids):
                buckets.setdefault(pid, [])
            collections.deque(map(list.append, map(buckets.__getitem__, pids),
                                  rows), maxlen=0)
        return buckets

    return bucket
