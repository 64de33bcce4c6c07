"""The batch-native shuffle map side against the per-record code it replaced.

A map task routes a whole batch at once: the partitioner turns the batch's
keys into a pid list (:meth:`Partitioner.task_partitions_of`) and every row
is appended to its partition's bucket.  The keyed folds look each key up
once.  The references below are the forms the engine ran before: a
``setdefault`` loop per record calling the per-task assignment function,
and folds that probed the dict two or three times per record.

Three things are checked against them:

* **routing** — for every partitioner (hash, range ascending/descending/
  over-full, round-robin), every route (record, key, tagged), with and
  without a map-side combine, over list batches, list-shaped ``[k, v]``
  pairs and ``ColumnBatch`` input: the pid lists, the bucket contents and
  the order of the bucket dict (spill victims are chosen in it) are equal;
* **folds** — each keyed fold returns the same dict in the same insertion
  order, keeps the first-seen key object, raises the same ``TypeError``
  on an unhashable key, and lets a ``KeyError`` raised by user code
  propagate instead of reading it as a missing key;
* **placement** — keys that compare equal share a partition whatever their
  numeric type (``1``, ``True``, ``1.0``; ``-1``, ``-1.0``), so every keyed
  operator sees them as one key, and NaN keys land in one partition on
  every attempt.
"""

from __future__ import annotations

import itertools
import operator
from types import SimpleNamespace
from typing import Any, Dict, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.engine import serializer, wide
from repro.engine.columnar import ColumnBatch
from repro.engine.context import EngineContext
from repro.engine.partitioner import (HashPartitioner, RangePartitioner,
                                      RoundRobinPartitioner, _stable_hash)

BACKENDS = ["thread", pytest.param("process", marks=pytest.mark.skipif(
    not serializer.supports_closures(),
    reason="shipping task closures to worker processes needs cloudpickle"))]

NAN, INF = float("nan"), float("inf")

SETTINGS = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# The references: the per-record map side and folds the engine ran before
# ---------------------------------------------------------------------------

def reference_bucket(op: wide.WideOperator, partitioner, tag: int, batches):
    records = itertools.chain.from_iterable(batches)
    if op.combine:
        records = op.finish(op.fold(records))
    partition_for = partitioner.task_partition_for()
    buckets: Dict[int, List[Any]] = {}
    setdefault = buckets.setdefault
    if op.route == wide.RECORD:
        for record in records:
            setdefault(partition_for(record), []).append(record)
    elif op.route == wide.KEY:
        for key, value in records:
            setdefault(partition_for(key), []).append((key, value))
    else:
        for key, value in records:
            setdefault(partition_for(key), []).append((key, tag, value))
    return buckets


def reference_distinct(records):
    seen = set()
    kept = []
    for record in records:
        if record not in seen:
            seen.add(record)
            kept.append(record)
    return kept


def reference_group(pairs):
    grouped: Dict[Any, List[Any]] = {}
    for key, value in pairs:
        grouped.setdefault(key, []).append(value)
    return grouped


def reference_cogroup(triples):
    grouped: Dict[Any, Any] = {}
    for key, tag, value in triples:
        slot = grouped.get(key)
        if slot is None:
            grouped[key] = slot = ([], [])
        slot[tag].append(value)
    return grouped


def reference_aggregate(create_combiner, merge_value):
    def fold(pairs):
        folded: Dict[Any, Any] = {}
        for key, value in pairs:
            if key in folded:
                folded[key] = merge_value(folded[key], value)
            else:
                folded[key] = create_combiner(value)
        return folded
    return fold


def reference_merge_by_key(merge_combiners, streams):
    merged: Dict[Any, Any] = {}
    for stream in streams:
        for key, combiner in stream:
            if key in merged:
                merged[key] = merge_combiners(merged[key], combiner)
            else:
                merged[key] = combiner
    return merged


def _create(value):
    return [value]


def _merge_value(combiner, value):
    return combiner + [value]


def _merge_combiners(left, right):
    return left + right


AGGREGATE_NODE = SimpleNamespace(
    name="aggregate", create_combiner=_create, merge_value=_merge_value,
    merge_combiners=_merge_combiners, map_side_combine=True)

#: (route, combine) -> (the engine's declaration, its reference form).
OPS = {
    (wide.RECORD, False): (
        wide.OPERATORS["repartition"](SimpleNamespace(
            partitioner=HashPartitioner(1)))[1],
        wide.WideOperator(wide._identity, None, wide._identity, wide.RECORD)),
    (wide.RECORD, True): (
        wide.OPERATORS["distinct"](None)[1],
        wide.WideOperator(reference_distinct, None, wide._identity,
                          wide.RECORD, combine=True)),
    (wide.KEY, False): (
        wide.GROUP,
        wide.WideOperator(reference_group, None, wide._items, wide.KEY)),
    (wide.KEY, True): (
        wide.OPERATORS["aggregate"](AGGREGATE_NODE)[1],
        wide.WideOperator(reference_aggregate(_create, _merge_value), None,
                          wide._items, wide.KEY, combine=True)),
    (wide.TAGGED, False): (
        wide.OPERATORS["cogroup"](None)[1],
        wide.WideOperator(reference_cogroup, None, wide._items, wide.TAGGED)),
}


# ---------------------------------------------------------------------------
# Keys, batches and partitioners
# ---------------------------------------------------------------------------

INTS = st.integers(-2**40, 2**40) | st.integers(2**61, 2**66) | st.integers(-3, 3)
FLOATS = (st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from([0.0, -0.0, INF, -INF, NAN, 1.0, -1.0, 2.0**62]))
STRS = st.text(max_size=5)
SCALARS = INTS | st.booleans() | FLOATS | STRS | st.binary(max_size=5) | st.none()
HASHABLE = SCALARS | st.tuples(SCALARS, SCALARS) | st.frozensets(INTS, max_size=3)

#: Homogeneous batches hit the hash partitioner's fast paths, mixed ones
#: its general path.
KEY_LISTS = (st.lists(INTS, max_size=40) | st.lists(STRS, max_size=40)
             | st.lists(HASHABLE, max_size=40))
#: Range partitioning needs mutually orderable keys.
ORDERED_KEY_LISTS = (st.lists(INTS | st.booleans() | FLOATS, max_size=40)
                     | st.lists(STRS, max_size=40))


def _cut(records: List[Any], cuts: List[int]) -> List[List[Any]]:
    """``records`` split into batches at the drawn cut points."""
    bounds = sorted({min(cut, len(records)) for cut in cuts})
    edges = [0] + bounds + [len(records)]
    return [records[lo:hi] for lo, hi in zip(edges, edges[1:])]


@st.composite
def range_partitioners(draw, keys):
    partitions = draw(st.integers(1, 6))
    # up to partitions - 1 boundaries is the usual shape; more than that
    # is the over-full one
    count = draw(st.integers(0, partitions + 2))
    pool = [key for key in keys if key == key] or [0]
    boundaries = sorted(draw(st.lists(st.sampled_from(pool), min_size=count,
                                      max_size=count)))
    return RangePartitioner(partitions, boundaries,
                            ascending=draw(st.booleans()))


@st.composite
def cases(draw):
    """A key list, a partitioner fit for it and the batch cut points."""
    kind = draw(st.sampled_from(["hash", "range", "round_robin"]))
    if kind == "range":
        keys = draw(ORDERED_KEY_LISTS)
        partitioner = draw(range_partitioners(keys))
    else:
        keys = draw(KEY_LISTS)
        partitions = draw(st.integers(1, 7))
        partitioner = (HashPartitioner(partitions) if kind == "hash" else
                       RoundRobinPartitioner(partitions, seed=draw(st.integers(0, 9))))
    cuts = draw(st.lists(st.integers(0, 40), max_size=4))
    return keys, partitioner, cuts


def _records(route: str, keys: List[Any], list_shaped: bool) -> List[Any]:
    if route == wide.RECORD:
        return list(keys)
    shape = list if list_shaped else tuple
    return [shape((key, index)) for index, key in enumerate(keys)]


def _same_buckets(got: Dict[int, List[Any]], want: Dict[int, List[Any]]):
    assert list(got) == list(want), "bucket order differs"
    for pid, records in want.items():
        assert got[pid] == records
        assert [type(record) for record in got[pid]] == \
            [type(record) for record in records]


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

class TestPartitionsOf:
    @SETTINGS
    @given(case=cases())
    def test_pid_lists_equal_the_per_key_assignment(self, case):
        keys, partitioner, cuts = case
        want = list(map(partitioner.task_partition_for(), keys))
        assert partitioner.task_partitions_of()(keys) == want
        # one task's function, fed batch by batch, continues its rotation
        partitions_of = partitioner.task_partitions_of()
        got = [pid for batch in _cut(keys, cuts) for pid in partitions_of(batch)]
        assert got == want
        if not isinstance(partitioner, RoundRobinPartitioner):
            assert want == [partitioner.partition_for(key) for key in keys]

    @SETTINGS
    @given(keys=KEY_LISTS, partitions=st.integers(1, 7),
           seed=st.integers(0, 9))
    def test_round_robin_restarts_per_invocation(self, keys, partitions, seed):
        partitioner = RoundRobinPartitioner(partitions, seed=seed)
        first = partitioner.task_partitions_of()(keys)
        assert partitioner.task_partitions_of()(keys) == first
        if keys:
            assert first[0] == partitioner.task_partition_for()(keys[0])

    def test_mixed_int_and_bool_batch_takes_the_general_path(self):
        partitioner = HashPartitioner(4)
        keys = [1, True, 2, False, 2**62, -1]
        assert partitioner.task_partitions_of()(keys) == \
            [partitioner.partition_for(key) for key in keys]


class TestBucketing:
    @SETTINGS
    @given(case=cases(), route_combine=st.sampled_from(sorted(OPS)),
           list_shaped=st.booleans(), tag=st.integers(0, 1))
    def test_buckets_equal_the_per_record_reference(self, case, route_combine,
                                                    list_shaped, tag):
        keys, partitioner, cuts = case
        route, combine = route_combine
        op, reference = OPS[route_combine]
        batches = _cut(_records(route, keys, list_shaped), cuts)
        want = reference_bucket(reference, partitioner, tag, batches)
        _same_buckets(wide.map_side(op, partitioner, tag)(batches), want)
        # a second invocation (a retried attempt) rebuilds the same buckets
        _same_buckets(wide.map_side(op, partitioner, tag)(batches), want)

    @SETTINGS
    @given(keys=st.lists(INTS, max_size=40),
           cuts=st.lists(st.integers(0, 40), max_size=4),
           partitions=st.integers(1, 5), ascending=st.booleans())
    def test_column_batches_route_like_their_rows(self, keys, cuts, partitions,
                                                  ascending):
        rows = [{"k": key, "v": index} for index, key in enumerate(keys)]
        column_batches = [ColumnBatch.from_records(batch, ("k", "v"))
                          for batch in _cut(rows, cuts)]
        key_of = operator.itemgetter("k")
        for partitioner in (
                RoundRobinPartitioner(partitions, seed=3),
                RangePartitioner.from_sample(rows, partitions, key_of, ascending)):
            op, reference = OPS[(wide.RECORD, False)]
            want = reference_bucket(reference, partitioner, 0, column_batches)
            _same_buckets(wide.map_side(op, partitioner, 0)(column_batches), want)

    def test_unhashable_records_raise_like_the_reference(self):
        batches = [ColumnBatch.from_records([{"k": 1}], ("k",))]
        op, reference = OPS[(wide.RECORD, False)]
        with pytest.raises(TypeError) as want:
            reference_bucket(reference, HashPartitioner(3), 0, batches)
        with pytest.raises(TypeError) as got:
            wide.map_side(op, HashPartitioner(3), 0)(batches)
        assert str(got.value) == str(want.value)

    def test_malformed_pairs_raise_like_the_reference(self):
        batches = [[(1, "a"), (2, "b", "extra")]]
        op, reference = OPS[(wide.KEY, False)]
        with pytest.raises(ValueError) as want:
            reference_bucket(reference, HashPartitioner(3), 0, batches)
        with pytest.raises(ValueError) as got:
            wide.map_side(op, HashPartitioner(3), 0)(batches)
        assert str(got.value) == str(want.value)

    def test_bucket_order_is_first_appearance_across_batches(self):
        partitioner = HashPartitioner(4)
        batches = [[3, 3, 1], [0, 2, 1]]
        buckets = wide.map_side(OPS[(wide.RECORD, False)][0], partitioner, 0)(batches)
        assert list(buckets) == [3, 1, 0, 2]
        assert buckets == {3: [3, 3], 1: [1, 1], 0: [0], 2: [2]}


# ---------------------------------------------------------------------------
# Folds
# ---------------------------------------------------------------------------

PAIRS = st.lists(st.tuples(HASHABLE, st.integers(0, 9)), max_size=40)


def _same_dict(got: Dict[Any, Any], want: Dict[Any, Any]):
    assert list(got.items()) == list(want.items())
    assert [type(key) for key in got] == [type(key) for key in want]


def _aggregate_fold(create_combiner=_create, merge_value=_merge_value):
    return wide._aggregate(create_combiner, merge_value, _merge_combiners,
                           True).fold


class TestFolds:
    @SETTINGS
    @given(pairs=PAIRS, tags=st.lists(st.integers(0, 1), min_size=40,
                                      max_size=40))
    def test_keyed_folds_equal_their_old_forms(self, pairs, tags):
        _same_dict(wide._group(pairs), reference_group(pairs))
        triples = [(key, tag, value) for (key, value), tag in zip(pairs, tags)]
        _same_dict(wide._cogroup(triples), reference_cogroup(triples))
        _same_dict(_aggregate_fold()(pairs),
                   reference_aggregate(_create, _merge_value)(pairs))
        streams = [pairs[:len(pairs) // 2], pairs[len(pairs) // 2:]]
        _same_dict(wide._merge_by_key(operator.add, streams),
                   reference_merge_by_key(operator.add, streams))
        records = [key for key, _ in pairs]
        got, want = wide._distinct(records), reference_distinct(records)
        assert got == want and list(map(type, got)) == list(map(type, want))

    def test_first_seen_key_object_is_kept(self):
        pairs = [(1, "a"), (1.0, "b"), (True, "c")]
        for folded in (wide._group(pairs), _aggregate_fold()(pairs),
                       wide._merge_by_key(operator.add, [pairs]),
                       wide._cogroup([(key, 0, value) for key, value in pairs])):
            assert [type(key) for key in folded] == [int]
        assert wide._group(pairs) == {1: ["a", "b", "c"]}
        assert [type(key) for key in wide._distinct([1, 1.0, True])] == [int]

    def test_none_combiners_are_merged_not_recreated(self):
        def create(value):
            return None

        def merge(combiner, value):
            return combiner, value

        pairs = [(1, "a"), (2, "b"), (1, "c")]
        want = reference_aggregate(create, merge)(pairs)
        assert _aggregate_fold(create, merge)(pairs) == want == \
            {1: (None, "c"), 2: None}
        streams = [[(1, None)], [(1, None), (2, None)]]
        assert wide._merge_by_key(merge, streams) == \
            reference_merge_by_key(merge, streams) == {1: (None, None), 2: None}

    @pytest.mark.parametrize("fold", [
        wide._group, _aggregate_fold(),
        lambda pairs: wide._merge_by_key(operator.add, [pairs]),
        lambda pairs: wide._cogroup([(key, 0, value) for key, value in pairs]),
        lambda pairs: wide._distinct([key for key, _ in pairs]),
    ], ids=["group", "aggregate", "merge_by_key", "cogroup", "distinct"])
    def test_unhashable_key_raises_the_same_type_error(self, fold):
        with pytest.raises(TypeError) as want:
            reference_group([([1], "a")])
        with pytest.raises(TypeError) as got:
            fold([(2, "x"), ([1], "a")])
        assert str(got.value) == str(want.value)

    def test_key_error_from_merge_value_propagates(self):
        def merge_value(combiner, value):
            raise KeyError("from merge_value")

        with pytest.raises(KeyError, match="from merge_value"):
            _aggregate_fold(merge_value=merge_value)([(1, 1), (1, 2)])

    def test_key_error_from_create_combiner_propagates(self):
        def create_combiner(value):
            raise KeyError("from create_combiner")

        with pytest.raises(KeyError, match="from create_combiner"):
            _aggregate_fold(create_combiner=create_combiner)([(1, 1)])

    def test_key_error_from_merge_combiners_propagates(self):
        def merge_combiners(left, right):
            raise KeyError("from merge_combiners")

        with pytest.raises(KeyError, match="from merge_combiners"):
            wide._merge_by_key(merge_combiners, [[(1, 1)], [(1, 2)]])


# ---------------------------------------------------------------------------
# Placement: equal keys share a partition across numeric types
# ---------------------------------------------------------------------------

class TestPlacement:
    @pytest.mark.parametrize("left, right", [
        (1, True), (1, 1.0), (0, False), (0, 0.0), (0, -0.0), (-1, -1.0),
        (2**62, 2.0**62), (-2**62, -2.0**62), ((1, "a"), (True, "a")),
        ((-1, 2), (-1.0, 2.0)), (frozenset({1, 2}), frozenset({True, 2.0})),
    ])
    def test_equal_keys_hash_alike(self, left, right):
        assert left == right
        assert _stable_hash(left) == _stable_hash(right)

    def test_nan_hashes_to_zero(self):
        assert _stable_hash(float("nan")) == 0
        assert _stable_hash(float("-nan")) == 0
        assert _stable_hash((float("nan"), 1)) == _stable_hash((float("nan"), 1))

    def test_nan_keyed_map_output_repeats_across_attempts(self):
        def attempt():
            # every attempt recomputes its records: fresh NaN objects
            records = [(float("nan"), index) for index in range(32)]
            return wide.map_side(wide.GROUP, HashPartitioner(16), 0)([records])

        first, retried = attempt(), attempt()
        assert list(first) == list(retried)
        assert {pid: [value for _, value in records]
                for pid, records in first.items()} == \
            {pid: [value for _, value in records]
             for pid, records in retried.items()}


@pytest.fixture(scope="module")
def engines():
    contexts: Dict[Any, EngineContext] = {}

    def engine(backend: str, broadcast: bool) -> EngineContext:
        key = (backend, broadcast)
        if key not in contexts:
            contexts[key] = EngineContext(EngineConfig(
                num_workers=2, default_parallelism=3, seed=4,
                executor_backend=backend,
                broadcast_threshold_bytes=10 * 1024 * 1024 if broadcast else 0))
        return contexts[key]

    yield engine
    for ctx in contexts.values():
        ctx.stop()


MIXED = [(1, "a"), (True, "b"), (0, "c"), (False, "d"), (1.0, "e"),
         (-1, "f"), (-1.0, "g")]


def _python_group(pairs):
    grouped: Dict[Any, List[Any]] = {}
    for key, value in pairs:
        grouped.setdefault(key, []).append(value)
    return grouped


@pytest.mark.parametrize("backend", BACKENDS)
class TestMixedNumericKeysEndToEnd:
    def test_group_by_key_sees_one_key(self, engines, backend):
        ctx = engines(backend, False)
        grouped = ctx.parallelize(MIXED, 3).group_by_key(4).collect()
        assert len(grouped) == 3
        assert {key: sorted(values) for key, values in grouped} == \
            {key: sorted(values) for key, values in _python_group(MIXED).items()}
        reduced = ctx.parallelize(MIXED, 3).reduce_by_key(operator.add, 4).collect()
        assert len(reduced) == len(grouped)

    def test_cogroup_meets_equal_keys(self, engines, backend):
        ctx = engines(backend, False)
        left = ctx.parallelize([(1, "a"), (-1, "m"), (0, "z")], 2)
        right = ctx.parallelize([(True, "b"), (1.0, "c"), (-1.0, "n"),
                                 (False, "y")], 2)
        cogrouped = {key: (sorted(mine), sorted(theirs))
                     for key, (mine, theirs) in left.cogroup(right, 4).collect()}
        assert cogrouped == {1: (["a"], ["b", "c"]), -1: (["m"], ["n"]),
                             0: (["z"], ["y"])}

    @pytest.mark.parametrize("broadcast", [False, True],
                             ids=["shuffle", "broadcast"])
    def test_join_meets_equal_keys(self, engines, backend, broadcast):
        ctx = engines(backend, broadcast)
        left = ctx.parallelize([(1, "a"), (-1, "m")], 2)
        right = ctx.parallelize([(True, "b"), (1.0, "c"), (-1.0, "n")], 2)
        joined = sorted((key, pair) for key, pair in left.join(right, 4).collect())
        assert joined == [(-1, ("m", "n")), (1, ("a", "b")), (1, ("a", "c"))]
