"""Every row of the action table against the per-record code it replaced.

:data:`~repro.engine.wide.ACTIONS` declares each action once, as a batch
kernel, a merge and a finish.  Each row gets one case below, keyed by the
row name, so a row added to the table without a case fails here.  A case
states the answer (or the ``PlanError``) over an empty dataset and a
reference: the per-record closure and driver merge the action ran before
the table, copied here.  A hypothesis differential runs every row over
generated partitions (some empty) at batch sizes 1, 7 and 1024 on both
executor backends; the reference functions are deliberately neither
associative nor commutative, so the per-partition fold and the order of
the driver merge are checked, not just the answer.

The two behaviours the table changed are pinned beside it: ``fold``,
``aggregate`` and ``aggregate_by_key`` give every partition (and every key)
its own deep copy of ``zero``, and ``min``/``max`` return the first record
whose key is NaN, as ``stats()`` reports NaN.  For equal keys the first
record still wins, within a partition and across partitions.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from typing import Any, Callable, Dict, List, NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext
from repro.engine.wide import ACTIONS
from repro.errors import PlanError

from test_action_kernels import (ref_add, ref_aggregate, ref_count_by_value,
                                 ref_fold, ref_mean_comb, ref_mean_seq,
                                 ref_stats, same)

BATCH_SIZES = (1, 7, 1024)

BACKENDS = ["thread", pytest.param("process", marks=pytest.mark.skipif(
    not serializer.supports_closures(),
    reason="shipping task closures to worker processes needs cloudpickle"))]

NAN = float("nan")


# ---------------------------------------------------------------------------
# The reference: the per-record closures and driver merges of the actions
# before the table
# ---------------------------------------------------------------------------


def ref_reduce(partitions, func):
    def reduce_partition(iterator):
        accumulator = None
        empty = True
        for record in iterator:
            if empty:
                accumulator = record
                empty = False
            else:
                accumulator = func(accumulator, record)
        return [] if empty else [accumulator]
    flattened = list(itertools.chain.from_iterable(
        reduce_partition(iter(partition)) for partition in partitions))
    if not flattened:
        raise PlanError("cannot reduce empty dataset")
    accumulator = flattened[0]
    for value in flattened[1:]:
        accumulator = func(accumulator, value)
    return accumulator


def ref_min(partitions, key):
    return ref_reduce(partitions, lambda left, right:
                      left if key(left) <= key(right) else right)


def ref_max(partitions, key):
    return ref_reduce(partitions, lambda left, right:
                      left if key(left) >= key(right) else right)


def ref_top(partitions, n, key):
    partials = [heapq.nlargest(n, iter(partition), key=key)
                for partition in partitions]
    return heapq.nlargest(n, itertools.chain.from_iterable(partials), key=key)


def ref_take_each(partitions, n):
    """The ``take`` job over every partition at once: each partition's
    first ``n`` records, in partition order."""
    return [record for partition in partitions
            for record in itertools.islice(iter(partition), n)]


def ref_histogram_counts(partitions, low, width, buckets):
    merged: Dict[int, int] = {}
    for partition in partitions:
        for value in partition:
            index = int((value - low) / width)
            merged[index] = merged.get(index, 0) + 1
    counts = [0] * buckets
    for index, count in merged.items():
        counts[min(buckets - 1, max(0, index))] += count
    return counts


def ref_mean(partitions):
    total, count = ref_aggregate(partitions, (0.0, 0), ref_mean_seq,
                                 ref_mean_comb)
    if count == 0:
        raise PlanError("cannot take the mean of empty dataset")
    return total / count


def flatten(partitions):
    return [record for partition in partitions for record in partition]


# Deliberately order-sensitive functions: a result only matches when the
# fold visits records, partials and the zero exactly as the reference does.

def skew(accumulator, record):
    return accumulator * 3 - record


def seq_pair(accumulator, record):
    return (accumulator[0] + record, accumulator[1] * 2 - record)


def comb_pair(left, right):
    return (left[0] * 2 + right[0], left[1] - right[1])


def mod5(record):
    return record % 5


# ---------------------------------------------------------------------------
# One case per row
# ---------------------------------------------------------------------------


class Case(NamedTuple):
    #: The row's parameters.
    args: tuple
    #: Partitions of records -> the answer the action gave before the table.
    reference: Callable[[List[List[Any]]], Any]
    #: The answer over an empty dataset, or the ``PlanError`` class.
    empty: Any


HISTOGRAM = (-20, 7.0, 4)

CASES: Dict[str, Case] = {
    "collect": Case((), flatten, []),
    "to_local_iterator": Case((), flatten, []),
    "count": Case((), lambda parts: len(flatten(parts)), 0),
    "count_by_value": Case((), ref_count_by_value, {}),
    "take": Case((3,), lambda parts: ref_take_each(parts, 3), []),
    "top": Case((4, mod5), lambda parts: ref_top(parts, 4, mod5), []),
    "reduce": Case((skew,), lambda parts: ref_reduce(parts, skew), PlanError),
    "min": Case((mod5,), lambda parts: ref_min(parts, mod5), PlanError),
    "max": Case((mod5,), lambda parts: ref_max(parts, mod5), PlanError),
    # over the three empty partitions of ``test_empty_dataset`` the zero is
    # each partition's result; ``aggregate`` meets one more on the driver
    "fold": Case((1, skew), lambda parts: ref_fold(parts, 1, skew),
                 skew(skew(1, 1), 1)),
    "aggregate": Case(((0, 1), seq_pair, comb_pair),
                      lambda parts: ref_aggregate(parts, (0, 1), seq_pair,
                                                  comb_pair),
                      functools.reduce(comb_pair, [(0, 1)] * 3, (0, 1))),
    "sum": Case((), lambda parts: ref_fold(parts, 0, ref_add), 0),
    "mean": Case((), ref_mean, PlanError),
    "stats": Case((), ref_stats, {"count": 0, "mean": 0.0, "min": 0.0,
                                  "max": 0.0, "variance": 0.0, "stdev": 0.0,
                                  "sum": 0.0}),
    "histogram": Case(HISTOGRAM, lambda parts: ref_histogram_counts(
        parts, *HISTOGRAM), [0, 0, 0, 0]),
    "foreach": Case((abs,), lambda parts: None, None),
    "zip_with_index": Case((), lambda parts: [len(part) for part in parts],
                           [0, 0, 0]),
}


def run_row(ctx, name: str, partitions):
    """Run the row ``name`` through the one runner over exactly these
    partitions (one ``parallelize`` each, in order)."""
    ds = functools.reduce(lambda left, right: left.union(right),
                          [ctx.parallelize(part, 1) for part in partitions])
    return ACTIONS[name](*CASES[name].args).run(ctx.run_job, ds)


@pytest.fixture(scope="module")
def engines():
    """One context per (backend, batch size), shared by the examples."""
    contexts: Dict[Any, EngineContext] = {}

    def engine(backend: str, batch_size: int = 1024) -> EngineContext:
        key = (backend, batch_size)
        if key not in contexts:
            contexts[key] = EngineContext(EngineConfig(
                num_workers=2, default_parallelism=4, seed=5,
                batch_size=batch_size, executor_backend=backend))
        return contexts[key]

    yield engine
    for ctx in contexts.values():
        ctx.stop()


def test_every_row_has_a_case():
    assert sorted(CASES) == sorted(ACTIONS)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_empty_dataset(engines, backend, name):
    case = CASES[name]
    ctx = engines(backend)
    if case.empty is PlanError:
        with pytest.raises(PlanError, match="empty dataset"):
            run_row(ctx, name, [[], [], []])
        with pytest.raises(PlanError):
            case.reference([[], [], []])
    else:
        assert same(run_row(ctx, name, [[], [], []]), case.empty)
        assert same(case.reference([[], [], []]), case.empty)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(ACTIONS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(partitions=st.lists(st.lists(st.integers(-20, 20), max_size=12),
                           min_size=1, max_size=5),
       batch_size=st.sampled_from(BATCH_SIZES))
def test_row_matches_the_per_record_reference(engines, backend, name,
                                              partitions, batch_size):
    case = CASES[name]
    try:
        want = case.reference(partitions)
    except PlanError:
        with pytest.raises(PlanError):
            run_row(engines(backend, batch_size), name, partitions)
        return
    assert same(run_row(engines(backend, batch_size), name, partitions), want)


@pytest.mark.parametrize("backend", BACKENDS)
def test_take_and_to_local_iterator_scan_partitions_in_order(engines, backend):
    ctx = engines(backend, 7)
    records = list(range(40))
    ds = ctx.parallelize(records, 4)
    before = len(ctx.metrics.jobs)
    assert ds.take(13) == records[:13]
    assert [job.description for job in ctx.metrics.jobs[before:]] == [
        "take parallelize", "take parallelize"]
    assert list(ds.to_local_iterator()) == records
    assert ds.take(0) == [] and ds.take(-1) == []
    with pytest.raises(PlanError, match="is empty"):
        ctx.parallelize([], 2).first()


# ---------------------------------------------------------------------------
# A fresh zero for every fold
# ---------------------------------------------------------------------------


def append(accumulator, record):
    accumulator.append(record)
    return accumulator


def extend(left, right):
    left.extend(right)
    return left


@pytest.mark.parametrize("backend", BACKENDS)
class TestFreshZero:
    def test_aggregate_gives_each_partition_its_own_zero(self, engines, backend):
        zero: List[int] = []
        result = engines(backend).parallelize(range(6), 3).aggregate(
            zero, append, extend)
        assert result == [0, 1, 2, 3, 4, 5]
        assert zero == []

    def test_fold_leaves_the_callers_zero_alone(self, engines, backend):
        zero: List[int] = []
        result = engines(backend).parallelize(range(6), 3).fold(zero, append)
        assert zero == []
        # partials are folded in partition order without the zero again
        assert result == [0, 1, [2, 3], [4, 5]]

    def test_aggregate_by_key_gives_each_key_its_own_zero(self, engines, backend):
        pairs = engines(backend).parallelize([(1, 1), (1, 2), (2, 3)], 2)
        grouped = dict(pairs.aggregate_by_key([], append, extend).collect())
        assert grouped == {1: [1, 2], 2: [3]}


# ---------------------------------------------------------------------------
# min/max: the first record wins ties; a NaN key wins, as in stats()
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestMinMax:
    def test_first_of_equal_keys_wins_within_a_partition(self, engines, backend):
        ds = engines(backend, 1).parallelize(
            [(1, "a"), (0, "b"), (0, "c"), (1, "d")], 1)
        key = lambda record: record[0]  # noqa: E731
        assert ds.min(key) == (0, "b")
        assert ds.max(key) == (1, "a")

    def test_first_of_equal_keys_wins_across_partitions(self, engines, backend):
        ds = engines(backend, 7).parallelize(
            [(0, "a"), (1, "b"), (0, "c"), (1, "d")], 2)
        key = lambda record: record[0]  # noqa: E731
        assert ds.min(key) == (0, "a")
        assert ds.max(key) == (1, "b")
        assert repr(engines(backend).parallelize([1.0, 1, True], 3).min()) \
            == "1.0"

    @pytest.mark.parametrize("values", [[3.0, NAN, 1.0], [NAN, 3.0, 1.0],
                                        [1.0, 3.0, NAN]])
    @pytest.mark.parametrize("partitions", [1, 3])
    def test_nan_wins_like_stats(self, engines, backend, values, partitions):
        ds = engines(backend).parallelize(values, partitions)
        assert math.isnan(ds.stats()["max"]) and math.isnan(ds.stats()["min"])
        assert math.isnan(ds.max()) and math.isnan(ds.min())

    def test_the_first_nan_record_is_returned(self, engines, backend):
        records = [(1.0, "a"), (NAN, "b"), (0.0, "c"), (NAN, "d")]
        key = lambda record: record[0]  # noqa: E731
        for partitions in (1, 2, 4):
            ds = engines(backend).parallelize(records, partitions)
            assert ds.min(key)[1] == "b" and ds.max(key)[1] == "b"
