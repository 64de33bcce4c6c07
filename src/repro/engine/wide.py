"""The fold-and-merge algebra: every shuffle operator and every action.

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
(:class:`~repro.engine.dataset.ShuffledDataset`, which
:func:`~repro.engine.dataset.build` makes of every wide node):

* **reduce**: the finish of one partial — the fold of the partition's
  reduce input, or, when the map side already folded, its merge;
* **narrow local form** (``shuffle_elim``): the same fold over a partition;
* **skew split**: a fold per map-range slice, stored as a one-bucket
  shuffle, then the merge of the slice partials in slice order, in the
  task that reads the partition;
* **external merge**: a fold per spilled run, then the merge of the runs
  and the resident tail, streamed (the list-shaped merges are lazy, so one
  frame per run is resident);
* **map-side combine**: the fold before bucketing (``combine``), declared
  only beside a merge.  Whatever has no merge is therefore never combined,
  split or merged externally.

A partial that leaves the task that built it — a spilled run, a skew
split's slice partial, a map-side combine's bucket — travels as its
finished records, which is exactly what ``merge`` consumes; a stored
partial stays stored for every later read, so it is merged through
:func:`stored_merge`.  Declarations are tuples of plain functions so the
lineage fingerprint (:mod:`repro.engine.fingerprint`) identifies them by
bytecode and closure cells.

An action is declared once too, in :data:`ACTIONS`, as an :class:`Action`:
the job description, a batch ``kernel`` folding one partition into a
partial, an associative ``merge`` of two partials on the driver and a
``finish`` turning the merged partial into the answer -- or into the
``PlanError`` of an empty dataset.  :meth:`Action.run` is the one runner:
one job of the kernel, a left fold of ``merge`` over the partials in
partition order, then ``finish``.  Every ``Dataset`` action runs through
it.
"""

from __future__ import annotations

import collections
import copy
import functools
import heapq
import itertools
import operator
from collections import Counter
from typing import (Any, Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple)

from ..errors import PlanError

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


def _merge_by_key(merge_combiners, streams: List[Iterable[Any]],
                  adopt: Callable[[Any], Any] = _identity) -> Dict[Any, Any]:
    """Merge ``(key, combiner)`` streams in order: first-appearance key
    order, each key's combiners merged left to right into what ``adopt``
    makes of its first one."""
    merged: Dict[Any, Any] = {}
    get = merged.get
    for stream in streams:
        for key, combiner in stream:
            current = get(key, _MISSING)
            merged[key] = (adopt(combiner) if current is _MISSING
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
#: with the same fold, in the task that probes them.
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
    finished partials, which merge rather than fold.  Those partials are
    what the shuffle stores, so they merge through :func:`stored_merge`.
    """
    if not op.combine:
        return op.fold
    merge = stored_merge(op)

    def merge_run(records: Iterable[Any]) -> Any:
        return merge([records])

    return merge_run


def stored_merge(op: WideOperator) -> Callable[[List[Iterable[Any]]], Any]:
    """The merge of partials a shuffle keeps, which leaves them as stored.

    A keyed merge (:func:`_merge_by_key`) adopts the first combiner of a
    key and merges the rest into it — the list merges (:func:`_extend`,
    :func:`_extend_each`) and any user ``merge_combiners`` may do so in
    place — and a partial read back from a resident bucket is the stored
    object, so a keyed merge here adopts a shallow copy of each key's
    first combiner instead: one copy per key, no work per value.
    """
    if op.route == RECORD:
        return op.merge
    return functools.partial(op.merge, adopt=_copied)


#: Combiner types no merge can change in place: adopted as they are.
_IMMUTABLE = frozenset({int, float, complex, bool, str, bytes, type(None)})


def _copied(combiner: Any) -> Any:
    kind = type(combiner)
    if kind is tuple:  # a cogroup slot: one value list per side
        return tuple(map(_copied, combiner))
    return combiner if kind in _IMMUTABLE else copy.copy(combiner)


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


# ---------------------------------------------------------------------------
# Actions
#
# A kernel gets the partition's batches: plain lists of records, or columnar
# batches, which iterate as rows.  The numeric kernels fold each batch with
# one C-level builtin per accumulator; builtin ``sum``/``min``/``max`` apply
# the same two-argument operations, in the same order, as a per-record fold,
# so the results are that fold's bit for bit -- except that from CPython
# 3.12 ``sum`` compensates float addition, so a float total may differ from
# the plain left-to-right fold in its last bits.
# ---------------------------------------------------------------------------


def batch_action(func: Callable[[Iterator[List[Any]]], Any]):
    """Mark an action's partition function as consuming batches.

    A result task hands such a function the partition's batch iterator;
    every other action function receives the flattened records.
    """
    func.consumes_batches = True
    return func


def _records(batches: Iterable[Iterable[Any]]) -> Iterator[Any]:
    return itertools.chain.from_iterable(batches)


@batch_action
def collect_partition(batches: Iterable[List[Any]]) -> List[Any]:
    """Result-side of ``collect``: materialise the partition."""
    records: List[Any] = []
    extend = records.extend
    for batch in batches:
        extend(batch)
    return records


@batch_action
def count_partition(batches: Iterable[List[Any]]) -> int:
    """Result-side of ``count``: tally the partition's records."""
    return sum(map(len, batches))


@batch_action
def count_values_partition(batches: Iterable[List[Any]]) -> Counter:
    """Result-side of ``count_by_value``: records to multiplicities."""
    return Counter(_records(batches))


def sum_partition(start: Any):
    """Result-side of ``sum``/``mean``: ``(fold of + from start, count)``."""
    @batch_action
    def partition(batches: Iterable[List[Any]]) -> Tuple[Any, int]:
        total, count = start, 0
        for batch in batches:
            total = sum(batch, total)
            count += len(batch)
        return total, count
    return partition


@batch_action
def stats_partition(batches: Iterable[List[Any]]) -> Tuple:
    """Result-side of ``stats``: ``(count, total, total_sq, min, max, nan)``.

    Chaining the running extreme in front of a batch reproduces the
    sequential two-argument ``min``/``max`` fold exactly.  ``nan`` says the
    partition holds a NaN; only a batch that leaves the total NaN (a NaN,
    or ``inf`` meeting ``-inf``) is scanned for one.
    """
    count, total, total_sq, minimum, maximum, nan = 0, 0.0, 0.0, None, None, False
    for batch in batches:
        lows, highs = ((minimum,), (maximum,)) if count else ((), ())
        minimum = min(itertools.chain(lows, batch), default=None)
        maximum = max(itertools.chain(highs, batch), default=None)
        count += len(batch)
        total = sum(batch, total)
        total_sq = sum(map(operator.mul, batch, batch), total_sq)
        if total != total and not nan:
            nan = any(value != value for value in batch)
    return count, total, total_sq, minimum, maximum, nan


class Action(NamedTuple):
    """One action's meaning (see the module docstring)."""

    #: The job description; ``{}`` stands for the dataset name.
    job: str
    #: One partition's batches -> its partial (run as a batch action).
    kernel: Callable[[Iterator[List[Any]]], Any]
    #: Two partials, the earlier partitions' first -> one partial.
    merge: Callable[[Any, Any], Any]
    #: ``(merged partial, dataset name)`` -> the answer.
    finish: Callable[[Any, str], Any]

    def run(self, run_job: Callable[..., List[Any]], dataset: Any,
            partitions: Optional[List[int]] = None) -> Any:
        """Run the action over ``dataset`` through ``run_job`` (a context's
        or a scheduler's); ``partitions`` restricts the job."""
        partials = run_job(dataset, batch_action(self.kernel),
                           partitions=partitions,
                           description=self.job.format(dataset.name))
        return self.finish(functools.reduce(self.merge, partials), dataset.name)


def _keep(partial: Any, *_: Any) -> Any:
    """The partial itself: a finish, or the merge of partials that are
    all ``None``."""
    return partial


def _add_pairs(left: Tuple[Any, Any], right: Tuple[Any, Any]) -> Tuple[Any, Any]:
    return left[0] + right[0], left[1] + right[1]


def _each(kernel: Callable[[Iterator[List[Any]]], Any]):
    """``kernel`` with its result kept per partition: the merged partial is
    the list of the partition results."""
    return lambda batches: [kernel(batches)]


def _fold_partition(zero: Any, func: Callable[[Any, Any], Any]):
    """Fold a partition's records into its own deep copy of ``zero``."""
    return lambda batches: functools.reduce(
        func, _records(batches), copy.deepcopy(zero))


def _reduce(func: Callable[[Any, Any], Any]) -> Action:
    """``reduce``: each partition's one reduced value, if it has records,
    reduced again on the driver in partition order."""
    def kernel(batches: Iterable[List[Any]]) -> List[Any]:
        records = _records(batches)
        return [functools.reduce(func, records, first)
                for first in itertools.islice(records, 1)]

    def finish(values: List[Any], name: str) -> Any:
        if not values:
            raise PlanError(f"cannot reduce empty dataset {name}")
        return functools.reduce(func, values)

    return Action("reduce {}", kernel, _extend, finish)


def _first_extreme(keeps: Callable[[Any, Any], bool], key: Optional[Callable]):
    """The reduce function of ``min`` (``keeps`` is ``<=``) and ``max``
    (``>=``): the first record whose key is NaN, else the first extreme
    one -- the answer ``stats()`` gives."""
    key = key or _identity

    def choose(left: Any, right: Any) -> Any:
        held, challenger = key(left), key(right)
        return left if held != held or (
            challenger == challenger and keeps(held, challenger)) else right

    return choose


def _top(n: int, key: Optional[Callable[[Any], Any]]) -> Action:
    # nlargest is stable, so a left fold of pairwise top-n equals the top n
    # of the concatenation: earlier partitions win ties
    return Action(
        "top {}", lambda batches: heapq.nlargest(n, _records(batches), key=key),
        lambda left, right: heapq.nlargest(n, left + right, key=key), _keep)


def _foreach(func: Callable[[Any], None]) -> Action:
    def kernel(batches: Iterable[List[Any]]) -> None:
        for record in _records(batches):
            func(record)
    return Action("foreach {}", kernel, _keep, _keep)


def _finish_stats(partial: Tuple, name: str) -> Dict[str, float]:
    count, total, total_sq, minimum, maximum, nan = partial
    if count == 0:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "variance": 0.0, "stdev": 0.0, "sum": 0.0}
    if nan:
        minimum = maximum = float("nan")
    mean = total / count
    variance = max(total_sq / count - mean * mean, 0.0)
    return {"count": count, "mean": mean, "min": minimum, "max": maximum,
            "variance": variance, "stdev": variance ** 0.5, "sum": total}


def _merge_stats(left: Tuple, right: Tuple) -> Tuple:
    if left[0] == 0:
        return right
    if right[0] == 0:
        return left
    return (left[0] + right[0], left[1] + right[1], left[2] + right[2],
            min(left[3], right[3]), max(left[4], right[4]), left[5] or right[5])


def _finish_mean(partial: Tuple[Any, int], name: str) -> float:
    if partial[1] == 0:
        raise PlanError(f"cannot take the mean of empty dataset {name}")
    return partial[0] / partial[1]


def _histogram(low: float, width: float, buckets: int) -> Action:
    """The counting job of ``histogram``: each record's raw bucket index,
    counted, then clamped to ``[0, buckets - 1]`` once per distinct index."""
    def finish(counts: Counter, name: str) -> List[int]:
        per_bucket = [0] * buckets
        for index, count in counts.items():
            per_bucket[min(buckets - 1, max(0, index))] += count
        return per_bucket

    return Action("count_by_value {}", lambda batches: count_values_partition(
        [int((value - low) / width) for value in batch] for batch in batches),
        operator.iadd, finish)


#: The actions by name: each entry takes the action's parameters and
#: returns its declaration.  ``zip_with_index`` keeps one partial per
#: partition.
ACTIONS: Dict[str, Callable[..., Action]] = {
    "collect": lambda: Action("collect {}", collect_partition, _extend, _keep),
    "to_local_iterator": lambda: Action(
        "to_local_iterator {}", collect_partition, _extend, _keep),
    "count": lambda: Action("count {}", count_partition, operator.add, _keep),
    "count_by_value": lambda: Action(
        "count_by_value {}", count_values_partition, operator.iadd,
        lambda counts, name: dict(counts)),
    # pulls only the batches the first n records sit in
    "take": lambda n: Action(
        "take {}", lambda batches: list(itertools.islice(_records(batches), n)),
        _extend, _keep),
    "top": _top,
    "reduce": _reduce,
    "min": lambda key=None: _reduce(_first_extreme(operator.le, key)),
    "max": lambda key=None: _reduce(_first_extreme(operator.ge, key)),
    "fold": lambda zero, func: Action(
        "fold {}", _fold_partition(zero, func), func, _keep),
    # the partition results meet a fresh zero on the driver, in order
    "aggregate": lambda zero, seq_func, comb_func: Action(
        "aggregate {}", _each(_fold_partition(zero, seq_func)), _extend,
        lambda partials, name: functools.reduce(comb_func, partials,
                                                copy.deepcopy(zero))),
    "sum": lambda: Action("fold {}", sum_partition(0), _add_pairs,
                          lambda partial, name: partial[0]),
    "mean": lambda: Action("aggregate {}", sum_partition(0.0), _add_pairs,
                           _finish_mean),
    "stats": lambda: Action("aggregate {}", stats_partition, _merge_stats,
                            _finish_stats),
    "histogram": _histogram,
    "foreach": _foreach,
    "zip_with_index": lambda: Action(
        "zip_with_index sizes of {}", _each(count_partition), _extend, _keep),
}
