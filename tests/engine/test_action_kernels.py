"""Batch-native numeric actions against the per-record folds they replaced.

``stats``, ``histogram``, ``count_by_value``, ``sum`` and ``mean`` fold
whole batches with builtin ``sum``/``min``/``max`` and ``Counter``.  The
reference below is the per-record code those actions ran before: the
``seq``/``comb`` pair of ``stats``, ``bucket_of`` counted by a ``counts.get``
loop for ``histogram`` and ``count_by_value``, and the ``fold``/``aggregate``
lambdas of ``sum`` and ``mean``.

On NaN-free input every result must equal the reference bit for bit (same
value, same type, same sign of zero) with empty partitions, at batch sizes
1, 7 and 1024, on both executor backends.  From CPython 3.12 builtin ``sum``
compensates float addition, so there a float total may differ from the
left-to-right fold by up to ``1e-12 * sum(|x|)``, and the mean, variance and
stdev by what that difference propagates to.  Histogram edges and counts are
exact on every version.

NaN input follows the non-finite rules instead: ``stats`` reports NaN for
every statistic but ``count``, and ``histogram`` raises a ``PlanError``
before its counting job when the range is not finite.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Any, Dict, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext
from repro.engine.dataset import (chunk_list, count_values_partition,
                                  stats_partition, sum_partition)
from repro.errors import PlanError

#: Before 3.12 builtin ``sum`` adds floats exactly like the per-record fold.
EXACT = sys.version_info < (3, 12)

BATCH_SIZES = (1, 7, 1024)

BACKENDS = ["thread", pytest.param("process", marks=pytest.mark.skipif(
    not serializer.supports_closures(),
    reason="shipping task closures to worker processes needs cloudpickle"))]

NAN, INF = float("nan"), float("inf")


# ---------------------------------------------------------------------------
# The reference: the per-record folds the actions ran before
# ---------------------------------------------------------------------------


def ref_seq(acc, value):
    count, total, total_sq, minimum, maximum = acc
    return (count + 1, total + value, total_sq + value * value,
            value if minimum is None else min(minimum, value),
            value if maximum is None else max(maximum, value))


def ref_comb(left, right):
    if left[0] == 0:
        return right
    if right[0] == 0:
        return left
    return (left[0] + right[0], left[1] + right[1], left[2] + right[2],
            min(left[3], right[3]), max(left[4], right[4]))


def ref_partition_fold(partition, zero, seq):
    accumulator = zero
    for record in partition:
        accumulator = seq(accumulator, record)
    return accumulator


def ref_aggregate(partitions, zero, seq, comb):
    accumulator = zero
    for partition in partitions:
        accumulator = comb(accumulator, ref_partition_fold(partition, zero, seq))
    return accumulator


def ref_fold(partitions, zero, func):
    partials = [ref_partition_fold(partition, zero, func)
                for partition in partitions]
    accumulator = partials[0]
    for value in partials[1:]:
        accumulator = func(accumulator, value)
    return accumulator


def ref_add(acc, record):
    return acc + record


def ref_mean_seq(acc, record):
    return (acc[0] + record, acc[1] + 1)


def ref_mean_comb(left, right):
    return (left[0] + right[0], left[1] + right[1])


def ref_stats(partitions) -> Dict[str, Any]:
    count, total, total_sq, minimum, maximum = ref_aggregate(
        partitions, (0, 0.0, 0.0, None, None), ref_seq, ref_comb)
    if count == 0:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "variance": 0.0, "stdev": 0.0, "sum": 0.0}
    mean = total / count
    # the one deliberate change to the finishing step: a NaN variance
    # (infinite input) is reported, not clamped to 0.0
    variance = max(total_sq / count - mean * mean, 0.0)
    return {"count": count, "mean": mean, "min": minimum, "max": maximum,
            "variance": variance, "stdev": variance ** 0.5, "sum": total}


def ref_count_counts(partition) -> Dict[Any, int]:
    counts: Dict[Any, int] = {}
    for record in partition:
        counts[record] = counts.get(record, 0) + 1
    return counts


def ref_count_by_value(partitions) -> Dict[Any, int]:
    merged: Dict[Any, int] = {}
    for partition in partitions:
        for key, value in ref_count_counts(partition).items():
            merged[key] = merged.get(key, 0) + value
    return merged


def ref_histogram(partitions, buckets):
    statistics = ref_stats(partitions)
    if statistics["count"] == 0:
        return [], []
    low, high = statistics["min"], statistics["max"]
    if low == high:
        return [low, high], [int(statistics["count"])]
    width = (high - low) / buckets
    edges = [low + i * width for i in range(buckets + 1)]

    def bucket_of(value):
        index = int((value - low) / width)
        return min(buckets - 1, max(0, index))

    counts_by_bucket = ref_count_by_value(
        [[bucket_of(value) for value in partition] for partition in partitions])
    return edges, [counts_by_bucket.get(i, 0) for i in range(buckets)]


def histogram_refused(values: List[Any], buckets: int) -> bool:
    """The non-finite rule: no histogram over a range that is not finite
    (or so narrow that a bucket's width underflows to zero)."""
    if not values:
        return False
    low, high = min(values), max(values)
    if any(value != value for value in values):
        return True
    if not (math.isfinite(low) and math.isfinite(high)
            and math.isfinite(high - low)):
        return True
    return low != high and (high - low) / buckets == 0


# ---------------------------------------------------------------------------
# Comparison: bit for bit, or within the 3.12 compensated-sum slack
# ---------------------------------------------------------------------------


def same(got, want) -> bool:
    """Equal value and type, same sign of zero, NaN only for NaN."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        if want != want:
            return got != got
        return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(map(same, got, want))
    if isinstance(want, dict):
        return same(list(got.items()), list(want.items()))
    return got == want


def agrees(got, want, slack: float) -> bool:
    """``same``, except that on 3.12+ a finite float may be ``slack`` off."""
    if EXACT or not (isinstance(want, float) and math.isfinite(want)):
        return same(got, want)
    return isinstance(got, float) and abs(got - want) <= slack


def stats_slack(values: List[Any]) -> Dict[str, float]:
    """How far each statistic may move when the totals are compensated."""
    count = max(len(values), 1)
    magnitude = sum(abs(float(value)) for value in values)
    squares = sum(float(value) * float(value) for value in values)
    mean = abs(sum(float(value) for value in values)) / count
    variance = 4e-12 * (squares + mean * magnitude) / count
    return {"count": 0.0, "min": 0.0, "max": 0.0, "sum": 1e-12 * magnitude,
            "mean": 2e-12 * magnitude / count, "variance": variance,
            "stdev": 2 * math.sqrt(variance)}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

BIG = 2 ** 53

FAMILIES = {
    # beyond 2**53 (inexact as floats) and beyond a C long (bigint path)
    "ints": st.integers(-(2 ** 66), 2 ** 66),
    # every finite float plus +-inf, -0.0 and subnormals
    "floats": st.floats(allow_nan=False),
    "bools_ints": st.one_of(st.booleans(), st.integers(-3, 3),
                            st.integers(BIG - 2, BIG + 2)),
    "ints_floats": st.one_of(st.integers(-(2 ** 64), 2 ** 64),
                             st.floats(allow_nan=False, width=32)),
}


@st.composite
def partitioned(draw, nan: bool = False):
    """One value family laid out over 1-5 partitions, some of them empty."""
    family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    if nan:
        family = st.one_of(family, st.just(NAN))
    return draw(st.lists(st.lists(family, max_size=12), min_size=1, max_size=5))


def dataset(ctx: EngineContext, partitions):
    """Exactly the drawn partitions, in order, as one dataset."""
    return functools.reduce(lambda left, right: left.union(right),
                            [ctx.parallelize(part, 1) for part in partitions])


@pytest.fixture(scope="module")
def engines():
    """One context per (backend, batch size), shared by the examples."""
    contexts: Dict[Any, EngineContext] = {}

    def engine(backend: str, batch_size: int) -> EngineContext:
        key = (backend, batch_size)
        if key not in contexts:
            contexts[key] = EngineContext(EngineConfig(
                num_workers=2, default_parallelism=4, seed=5,
                batch_size=batch_size, executor_backend=backend))
        return contexts[key]

    yield engine
    for ctx in contexts.values():
        ctx.stop()


def jobs_run(ctx: EngineContext) -> int:
    return len(ctx.metrics.jobs)


# ---------------------------------------------------------------------------
# Kernels alone: one partition's batches against the per-record fold
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(partitions=partitioned(), batch_size=st.sampled_from(BATCH_SIZES))
def test_partition_kernels_match_the_per_record_folds(partitions, batch_size):
    for partition in partitions:
        batches = list(chunk_list(partition, batch_size))
        slack = stats_slack(partition)

        count, total, total_sq, minimum, maximum, nan = stats_partition(batches)
        want = ref_partition_fold(partition, (0, 0.0, 0.0, None, None), ref_seq)
        assert not nan
        assert same((count, minimum, maximum), (want[0], want[3], want[4]))
        assert agrees(total, want[1], slack["sum"])
        assert agrees(total_sq, want[2], 1e-12 * sum(
            float(value) * float(value) for value in partition))

        assert agrees(sum_partition(0)(batches)[0],
                      ref_partition_fold(partition, 0, ref_add), slack["sum"])
        total, count = sum_partition(0.0)(batches)
        want_total, want_count = ref_partition_fold(partition, (0.0, 0), ref_mean_seq)
        assert count == want_count and agrees(total, want_total, slack["sum"])

        assert same(dict(count_values_partition(batches)),
                    ref_count_counts(partition))


@settings(max_examples=300, deadline=None)
@given(partitions=partitioned(nan=True), batch_size=st.sampled_from(BATCH_SIZES))
def test_stats_kernel_flags_exactly_the_partitions_with_a_nan(partitions, batch_size):
    for partition in partitions:
        flagged = stats_partition(chunk_list(partition, batch_size))[-1]
        assert flagged == any(value != value for value in partition)


# ---------------------------------------------------------------------------
# The actions end to end, on both backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(partitions=partitioned(), batch_size=st.sampled_from(BATCH_SIZES),
       buckets=st.integers(1, 6))
def test_numeric_actions_match_the_per_record_folds(
        engines, backend, partitions, batch_size, buckets):
    ctx = engines(backend, batch_size)
    ds = dataset(ctx, partitions)
    values = [value for partition in partitions for value in partition]
    slack = stats_slack(values)

    got = ds.stats()
    want = ref_stats(partitions)
    assert list(got) == list(want)
    for key, value in want.items():
        assert agrees(got[key], value, slack[key]), key

    assert agrees(ds.sum(), ref_fold(partitions, 0, ref_add), slack["sum"])
    if values:
        total, count = ref_aggregate(partitions, (0.0, 0), ref_mean_seq,
                                     ref_mean_comb)
        assert agrees(ds.mean(), total / count, slack["mean"])
    else:
        with pytest.raises(PlanError):
            ds.mean()

    assert same(ds.count_by_value(), ref_count_by_value(partitions))

    before = jobs_run(ctx)
    if histogram_refused(values, buckets):
        with pytest.raises(PlanError, match=ds.name):
            ds.histogram(buckets)
        assert jobs_run(ctx) == before + 1, "refused after the stats job only"
    else:
        assert same(ds.histogram(buckets), ref_histogram(partitions, buckets))


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(partitions=partitioned(nan=True), batch_size=st.sampled_from(BATCH_SIZES))
def test_nan_rules_property(engines, backend, partitions, batch_size):
    ctx = engines(backend, batch_size)
    ds = dataset(ctx, partitions)
    values = [value for partition in partitions for value in partition]
    statistics = ds.stats()
    assert statistics["count"] == len(values)
    if any(value != value for value in values):
        for key in ("min", "max", "mean", "variance", "stdev", "sum"):
            assert math.isnan(statistics[key]), key
        with pytest.raises(PlanError, match=ds.name):
            ds.histogram(3)
    else:
        assert not math.isnan(statistics["min"])
        assert not math.isnan(statistics["max"])


# ---------------------------------------------------------------------------
# Pinned non-finite cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestNonFinite:
    def test_nan_makes_every_statistic_but_count_nan(self, engines, backend):
        ctx = engines(backend, 1024)
        statistics = ctx.parallelize([1.0, NAN, 3.0], 2).stats()
        assert statistics["count"] == 3
        for key in ("min", "max", "mean", "variance", "stdev", "sum"):
            assert math.isnan(statistics[key]), key

    def test_nan_after_inf_meets_minus_inf_is_still_found(self, engines, backend):
        ctx = engines(backend, 1)
        statistics = ctx.parallelize([INF, -INF, 1.0, NAN, 2.0], 1).stats()
        assert math.isnan(statistics["min"]) and math.isnan(statistics["max"])

    def test_inf_minus_inf_is_not_a_nan_record(self, engines, backend):
        ctx = engines(backend, 1)
        statistics = ctx.parallelize([INF, 1.0, -INF], 2).stats()
        assert (statistics["min"], statistics["max"]) == (-INF, INF)
        assert math.isnan(statistics["mean"])
        assert math.isnan(statistics["variance"])

    def test_infinite_record_leaves_variance_nan_not_zero(self, engines, backend):
        ctx = engines(backend, 1024)
        statistics = ctx.parallelize([1.0, INF, 3.0], 2).stats()
        assert (statistics["min"], statistics["max"]) == (1.0, INF)
        assert statistics["mean"] == INF
        assert math.isnan(statistics["variance"])
        assert math.isnan(statistics["stdev"])

    @pytest.mark.parametrize("values", [[1.0, NAN, 3.0], [1.0, INF, 3.0],
                                        [-INF, 0.0], [INF, INF],
                                        [-1e308, 1e308], [0.0, 5e-324]])
    def test_histogram_refuses_before_counting(self, engines, backend, values):
        ctx = engines(backend, 1024)
        ds = ctx.parallelize(values, 2).set_name("latencies")
        before = jobs_run(ctx)
        with pytest.raises(PlanError, match="latencies"):
            ds.histogram(4)
        assert jobs_run(ctx) == before + 1
        assert ctx.metrics.jobs[-1].description == "aggregate latencies"


def test_job_descriptions_are_kept(engines):
    ctx = engines("thread", 1024)
    ds = ctx.parallelize([3, 1, 2, 2], 2).set_name("values")
    actions = [("stats", "aggregate values"), ("sum", "fold values"),
               ("mean", "aggregate values"),
               ("count_by_value", "count_by_value values")]
    for action, description in actions:
        getattr(ds, action)()
        assert ctx.metrics.jobs[-1].description == description
    before = jobs_run(ctx)
    assert ds.histogram(2) == ([1.0, 2.0, 3.0], [1, 3])
    assert [job.description for job in ctx.metrics.jobs[before:]] == [
        "aggregate values", "count_by_value values"]
