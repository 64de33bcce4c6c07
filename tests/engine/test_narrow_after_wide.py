"""Narrow operators after and between wide ones, against the oracle.

``test_pipeline_parity_property`` (``test_batch_execution.py``) ends every
generated pipeline in one wide operator, so a narrow step never follows a
wide one there.  Those are the nodes the optimizer rewrites most — pushed
below a shuffle, fused, lowered over a rewritten shuffle — and that plan
lowering builds.  Here a generated plan chains one to three wide operators
from ``PIPELINES`` with chains of ``map``, ``filter``, ``flat_map``,
``sample``, ``coalesce`` and ``map_partitions_with_index`` before, between
and after them, and must equal the reference interpreter
(``reference_plan.py``) — records and order — with every optimizer rule on,
with the optimizer off and with a drawn subset of the rules.

Every narrow step works on ``(key, int)`` pairs; a map folds the output of
a wide operator that changes the record shape (grouping, joins, cogroup)
back into such a pair before the next step.

A ``filter`` is never drawn as the first step after a ``repartition``.  By
design, the ``pushdown`` rule sinks that filter below the round-robin
repartition, which then deals out only the survivors: the same records,
but in other partitions and another order than the plan as written (and
the oracle) gives.  With ``seed=1``, ``parallelize(range(20), 2)
.repartition(3).filter(odd)`` collects ``[1, 7, 11, 17, 3, 9, 13, 19, 5, 15]`` with the
rule and ``[3, 9, 13, 19, 1, 7, 11, 17, 5, 15]`` without it;
``test_filter_moves_below_repartition`` compares that shape sorted.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_plan as reference
from repro.config import KNOWN_OPTIMIZER_RULES, EngineConfig
from repro.engine.context import EngineContext

from test_memory_bounded import OTHER_SIDE, PIPELINES


def _shift_by_partition(index, pairs):
    return ((key, value + index) for key, value in pairs)


#: Narrow steps over ``(key, int)`` pairs; each keeps that shape.
NARROW_STEPS = {
    "map": lambda ds: ds.map(lambda pair: (pair[0], pair[1] * 3 + 1)),
    "filter": lambda ds: ds.filter(lambda pair: pair[1] % 3 != 0),
    "flat_map": lambda ds: ds.flat_map(
        lambda pair: [pair, (pair[0], -pair[1])] if pair[1] > 0 else [pair]),
    "sample": lambda ds: ds.sample(0.7, seed=11),
    "coalesce": lambda ds: ds.coalesce(2),
    "map_partitions_with_index": lambda ds: ds.map_partitions_with_index(
        _shift_by_partition),
}

#: Wide operators whose output records are still ``(key, int)`` pairs.
KEEPS_PAIRS = {"distinct", "reduce_by_key", "repartition", "sort_by",
               "subtract_by_key"}


def _as_int(value) -> int:
    """Any value a wide operator emits, folded into one int that still
    depends on the order of grouped values."""
    if isinstance(value, int):
        return value
    if value is None or isinstance(value, str):
        return len(value or "")
    return sum((position + 1) * _as_int(item)
               for position, item in enumerate(value))


_CHAIN = st.lists(st.sampled_from(sorted(NARROW_STEPS)), max_size=3)

#: One wide operator and the narrow chain after it.
_SEGMENT = st.tuples(st.sampled_from(sorted(PIPELINES)), _CHAIN).filter(
    lambda segment: not (segment[0] == "repartition"
                         and segment[1][:1] == ["filter"]))


def build_plan(ctx, data, num_partitions, leading, segments):
    ds = ctx.parallelize(data, num_partitions)
    for name in leading:
        ds = NARROW_STEPS[name](ds)
    for wide_name, chain in segments:
        ds = PIPELINES[wide_name](ds, ctx.parallelize(OTHER_SIDE, 2))
        if wide_name not in KEEPS_PAIRS:
            ds = ds.map(lambda pair: (pair[0], _as_int(pair[1])))
        for name in chain:
            ds = NARROW_STEPS[name](ds)
    return ds


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(data=st.lists(st.tuples(st.integers(0, 6), st.integers(-100, 100)),
                     max_size=80),
       num_partitions=st.integers(1, 5),
       leading=_CHAIN,
       segments=st.lists(_SEGMENT, min_size=1, max_size=3),
       batch_size=st.sampled_from([1, 3, 16, 1024]),
       subset=st.sets(st.sampled_from(KNOWN_OPTIMIZER_RULES)))
def test_narrow_steps_around_wide_operators_match_the_oracle(
        data, num_partitions, leading, segments, batch_size, subset):
    drawn = tuple(rule for rule in KNOWN_OPTIMIZER_RULES if rule in subset)
    for rules in (EngineConfig().optimizer_rules, (), drawn):
        with EngineContext(EngineConfig(
                num_workers=2, default_parallelism=4, seed=3,
                batch_size=batch_size, optimizer_rules=rules,
                broadcast_threshold_bytes=0)) as ctx:
            ds = build_plan(ctx, data, num_partitions, leading, segments)
            assert ds.collect() == reference.collect(ds), rules


def test_filter_after_repartition_is_where_pushdown_reorders():
    """The one shape the property leaves out, pinned as the docstring
    states it: the same records, in another order with ``pushdown``."""
    def run(rules):
        with EngineContext(EngineConfig(num_workers=1, seed=1,
                                        optimizer_rules=rules)) as ctx:
            ds = ctx.parallelize(range(20), 2).repartition(3) \
                .filter(lambda x: x % 2 == 1)
            return ds.collect(), reference.collect(ds)
    pushed, oracle = run(("pushdown",))
    assert pushed == [1, 7, 11, 17, 3, 9, 13, 19, 5, 15]
    assert run(())[0] == oracle == [3, 9, 13, 19, 1, 7, 11, 17, 5, 15]
