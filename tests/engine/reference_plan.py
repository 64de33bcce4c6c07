"""A deliberately naive reference interpreter for logical plans.

The oracle of the engine's parity suites.  It evaluates the logical nodes
the Dataset API records (:mod:`repro.engine.plan`) over plain Python lists:
no optimizer, no scheduler, no shuffle manager, no batches, no block store.
It imports nothing from ``repro.engine`` but the plan node classes, and it
reads leaf data straight from a :class:`SourceNode`'s dataset.

Partitions exist here only where the API defines them: a ``sample`` seeds
its generator per partition, ``map_partitions`` sees one partition,
``coalesce`` groups parent partitions, and a wide operator's partitioner
decides which reduce partition a record lands in.  A reduce partition is its
map buckets concatenated in map order; grouping operators then group by
first appearance.  So every engine result — records *and* order — must
equal :func:`collect` exactly.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Tuple

from repro.engine import plan as logical

Partitions = List[List[Any]]


def collect(dataset) -> List[Any]:
    """What ``dataset.collect()`` must return, from its logical plan alone."""
    return [record for partition in evaluate(dataset.plan)
            for record in partition]


def evaluate(node) -> Partitions:
    """The partitions ``node`` stands for, each a list of records."""
    try:
        interpret = _INTERPRETERS[type(node)]
    except KeyError:
        raise NotImplementedError(
            f"the reference interpreter has no rule for {node.op!r}") from None
    return interpret(node)


# -- leaves --------------------------------------------------------------------


def _source(node) -> Partitions:
    dataset = node.dataset
    count = dataset.num_partitions
    source = getattr(dataset, "_source", None)
    if source is not None:
        return [list(source.read_partition(index, count))
                for index in range(count)]
    data = dataset._data  # parallelize: contiguous, near-equal slices
    return [data[index * len(data) // count:(index + 1) * len(data) // count]
            for index in range(count)]


# -- narrow operators ------------------------------------------------------------


def _per_partition(function: Callable[[Any, int, List[Any]], List[Any]]):
    def interpret(node) -> Partitions:
        return [function(node, index, records)
                for index, records in enumerate(evaluate(node.child))]
    return interpret


def _map(node, index, records):
    return [node.func(record) for record in records]


def _filter(node, index, records):
    return [record for record in records if node.predicate(record)]


def _flat_map(node, index, records):
    return [produced for record in records for produced in node.func(record)]


def _project(node, index, records):
    return [{name: record.get(name) for name in node.fields}
            for record in records]


def _map_partitions(node, index, records):
    if node.with_index:
        return list(node.func(index, iter(records)))
    return list(node.func(iter(records)))


def _sample(node, index, records):
    rng = random.Random(f"{node.seed}:{index}")
    return [record for record in records if rng.random() < node.fraction]


def _join(node, index, records):
    return [produced for pair in records for produced in node.emit(pair)]


def _coalesce(node) -> Partitions:
    merged: Partitions = [[] for _ in range(node.num_partitions)]
    for index, records in enumerate(evaluate(node.child)):
        merged[index % node.num_partitions].extend(records)
    return merged


def _union(node) -> Partitions:
    return [records for child in node.children for records in evaluate(child)]


# -- wide operators -------------------------------------------------------------


def _exchange(partitions: Partitions, partitioner,
              key: Callable[[Any], Any]) -> Partitions:
    """Route each record to the reduce partition its key lands in.

    The assignment function is taken per map partition, as the partitioner
    defines it (round-robin restarts its rotation for every map partition).
    """
    reduced: Partitions = [[] for _ in range(partitioner.num_partitions)]
    for records in partitions:
        assign = partitioner.task_partition_for()
        for record in records:
            reduced[assign(key(record))].append(record)
    return reduced


def _record(record):
    return record


def _key(pair):
    return pair[0]


def _first_appearances(records: List[Any]) -> List[Any]:
    seen = set()
    kept = []
    for record in records:
        if record not in seen:
            seen.add(record)
            kept.append(record)
    return kept


def _group(pairs: List[Tuple[Any, Any]]) -> List[Tuple[Any, List[Any]]]:
    grouped: Dict[Any, List[Any]] = {}
    for key, value in pairs:
        grouped.setdefault(key, []).append(value)
    return list(grouped.items())


def _repartition(node) -> Partitions:
    return _exchange(evaluate(node.child), node.partitioner, _record)


def _sort(node) -> Partitions:
    return [sorted(records, key=node.key_func, reverse=not node.ascending)
            for records in _exchange(evaluate(node.child), node.partitioner,
                                     _record)]


def _distinct(node) -> Partitions:
    return [_first_appearances(records)
            for records in _exchange(evaluate(node.child), node.partitioner,
                                     _record)]


def _group_by_key(node) -> Partitions:
    return [_group(records)
            for records in _exchange(evaluate(node.child), node.partitioner,
                                     _key)]


def _aggregate(node) -> Partitions:
    result = []
    for records in _exchange(evaluate(node.child), node.partitioner, _key):
        folded: Dict[Any, Any] = {}
        for key, value in records:
            if key in folded:
                folded[key] = node.merge_value(folded[key], value)
            else:
                folded[key] = node.create_combiner(value)
        result.append(list(folded.items()))
    return result


def _cogroup(node) -> Partitions:
    left, right = (_exchange(evaluate(child), node.partitioner, _key)
                   for child in node.children)
    result = []
    for left_pairs, right_pairs in zip(left, right):
        grouped: Dict[Any, Tuple[List[Any], List[Any]]] = {}
        for tag, pairs in ((0, left_pairs), (1, right_pairs)):
            for key, value in pairs:
                grouped.setdefault(key, ([], []))[tag].append(value)
        result.append(list(grouped.items()))
    return result


_INTERPRETERS = {
    logical.SourceNode: _source,
    logical.MapNode: _per_partition(_map),
    logical.FilterNode: _per_partition(_filter),
    logical.FlatMapNode: _per_partition(_flat_map),
    logical.ProjectNode: _per_partition(_project),
    logical.MapPartitionsNode: _per_partition(_map_partitions),
    logical.SampleNode: _per_partition(_sample),
    logical.JoinNode: _per_partition(_join),
    logical.CoalesceNode: _coalesce,
    logical.UnionNode: _union,
    logical.RepartitionNode: _repartition,
    logical.SortNode: _sort,
    logical.DistinctNode: _distinct,
    logical.GroupByKeyNode: _group_by_key,
    logical.AggregateNode: _aggregate,
    logical.CoGroupNode: _cogroup,
}
