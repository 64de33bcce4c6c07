"""Generated programs against the reference interpreter, rule by rule.

One Hypothesis strategy, :func:`programs`, builds API programs from every
operator ``reference_plan.py`` interprets: narrow chains (``map``,
``filter``, ``flat_map``, ``project``, ``sample``, ``coalesce``,
``map_partitions`` with and without the index), every row of
``wide.OPERATORS`` (repartition, sort, distinct, group, aggregate, cogroup),
the five join variants, ``union``, and ``cache`` and ``checkpoint`` between
any two steps.  The second input of a binary step is either a separate
source or a branch of the program itself, so plans are DAGs with diamonds,
not only chains.  :func:`configs` pairs each program with a configuration:
a subset of the optimizer rules, a batch size from {1, 7, 1024}, a tiny or
unbounded shuffle memory, adaptive execution on or off, and for each
cost-based rule a knob value that arms it or not, as its ``armed`` column
in ``optimizer.RULES`` says.

Every program's ``collect()`` must equal ``reference_plan.collect`` —
records and order — unless a rewrite that changes the partition layout by
design fired (:func:`changes_layout` names them); then the records must be
the oracle's, in any order, as long as no step observes the layout.  A
small sample also runs on the process backend.  Each rule is then
certified alone and with every other rule on: it must keep that agreement
and fire on at least one generated program.
The suite runs with a fixed seed (``derandomize``), so every run replays
the same programs.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from typing import Any, Callable, Dict, List, NamedTuple, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_plan as reference
from repro.config import KNOWN_OPTIMIZER_RULES, EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext
from repro.engine.optimizer import COST, RULES

from test_checkpoint_truncation import REPARTITIONING
from test_narrow_after_wide import _as_int, _shift_by_partition

# -- programs -----------------------------------------------------------------


def _pairs(ds):
    """Fold a dataset of ``(key, anything)`` back into ``(key, int)``."""
    return ds.map(lambda pair: (pair[0], _as_int(pair[1])))


#: Unary steps over ``(key, int)`` pairs; each keeps that shape.  Every
#: step is drawn with a partition count ``n``, which the partitioning
#: steps use, so two adjacent shuffles may or may not agree.
UNARY: Dict[str, Callable[[Any, int], Any]] = {
    "map": lambda ds, n: ds.map(lambda pair: (pair[0], pair[1] * 3 + 1)),
    "rekey": lambda ds, n: ds.map(
        lambda pair: ((pair[0] * 5 + 1) % 8, pair[1])),
    "filter": lambda ds, n: ds.filter(lambda pair: pair[1] % 3 != 0),
    "flat_map": lambda ds, n: ds.flat_map(
        lambda pair: [pair, (pair[0], -pair[1])] if pair[1] > 0 else [pair]),
    "project": lambda ds, n: ds.map(
        lambda pair: {"k": pair[0], "v": pair[1], "w": pair[1] % 2})
    .project(["k", "v", "w"]).project(["k", "v"])
    .map(lambda record: (record["k"], record["v"])),
    "sample": lambda ds, n: ds.sample(0.7, seed=11),
    "coalesce": lambda ds, n: ds.coalesce(n),
    "map_partitions": lambda ds, n: ds.map_partitions(
        lambda pairs: reversed(list(pairs))),
    "map_partitions_with_index": lambda ds, n: ds.map_partitions_with_index(
        _shift_by_partition),
    "repartition": lambda ds, n: ds.repartition(n),
    "sort": lambda ds, n: ds.sort_by(lambda pair: pair[0], True, n),
    "sort_descending": lambda ds, n: ds.sort_by(lambda pair: pair[1] % 5,
                                                False, n),
    "distinct": lambda ds, n: ds.distinct(n),
    "group_by_key": lambda ds, n: _pairs(ds.group_by_key(n)),
    "reduce_by_key": lambda ds, n: ds.reduce_by_key(lambda a, b: a + b, n),
    "aggregate_by_key": lambda ds, n: _pairs(ds.aggregate_by_key(
        (), lambda acc, value: acc + (value,), lambda a, b: a + b, n)),
    # two aggregations over one partitioner: the shape ``shuffle_elim``
    # rewrites, too rare as two adjacent draws to certify the rule
    "reduce_then_group": lambda ds, n: _pairs(
        ds.reduce_by_key(lambda a, b: a + b, n).group_by_key(n)),
}

#: Binary steps: ``(key, int)`` pairs and a second input of the same shape.
BINARY: Dict[str, Callable[[Any, Any, int], Any]] = {
    "union": lambda ds, other, n: ds.union(other),
    "cogroup": lambda ds, other, n: _pairs(ds.cogroup(other, n)),
    "join": lambda ds, other, n: _pairs(ds.join(other, n)),
    "left_outer_join": lambda ds, other, n: _pairs(
        ds.left_outer_join(other, n)),
    "right_outer_join": lambda ds, other, n: _pairs(
        ds.right_outer_join(other, n)),
    "full_outer_join": lambda ds, other, n: _pairs(
        ds.full_outer_join(other, n)),
    "subtract_by_key": lambda ds, other, n: ds.subtract_by_key(other, n),
}

#: The second input of a binary step: a separate source, or a branch of
#: the program itself (a diamond).
OTHERS: Dict[str, Callable[[Any, Any], Any]] = {
    "dimension": lambda ctx, ds: ctx.parallelize(
        [(key, key * 10) for key in range(0, 8, 2)], 2),
    "branch": lambda ctx, ds: ds.filter(lambda pair: pair[0] % 2 == 0)
    .map(lambda pair: (pair[0], -pair[1])),
}

#: Materialisation points; ``cache`` runs an action so later plans find
#: its blocks.
MATERIALISE: Dict[str, Callable[[Any], Any]] = {
    "cache": lambda ds: ds.cache(),
    "cache_and_count": lambda ds: (ds.cache(), ds.count())[0],
    "checkpoint": lambda ds: ds.checkpoint(),
}

Step = Tuple[str, ...]


class Program(NamedTuple):
    data: List[Tuple[int, int]]
    num_partitions: int
    steps: List[Step]

    def build(self, ctx):
        """The program's final dataset, built on ``ctx``."""
        ds = ctx.parallelize(self.data, self.num_partitions)
        for step in self.steps:
            if step[0] in UNARY:
                ds = UNARY[step[0]](ds, step[-1])
            elif step[0] in BINARY:
                ds = BINARY[step[0]](ds, OTHERS[step[1]](ctx, ds), step[-1])
            else:
                ds = MATERIALISE[step[0]](ds)
        return ds

    @property
    def checkpoints(self) -> bool:
        return any(step[0] == "checkpoint" for step in self.steps)


_COUNT = st.sampled_from((2, 3))
_STEP = st.one_of(
    st.tuples(st.sampled_from(sorted(UNARY)), _COUNT),
    st.tuples(st.sampled_from(sorted(BINARY)), st.sampled_from(sorted(OTHERS)),
              _COUNT),
    st.tuples(st.sampled_from(sorted(MATERIALISE))))


def programs():
    """API programs over ``(key, int)`` pairs; keys are few, so hot."""
    return st.builds(
        Program,
        data=st.lists(st.tuples(st.integers(0, 7), st.integers(-50, 50)),
                      max_size=60),
        num_partitions=st.integers(1, 4),
        steps=st.lists(_STEP, min_size=1, max_size=6))


# -- configurations -----------------------------------------------------------

#: Per cost-based rule: its knob, a value that leaves it disarmed and values
#: that arm it.  ``test_arming_values_agree_with_the_rule_table`` checks
#: them against ``RULES[rule].armed``.
ARMING: Dict[str, Tuple[str, Any, Tuple[Any, ...]]] = {
    "broadcast_join": ("broadcast_threshold_bytes", 0,
                       (256, 10 * 1024 * 1024)),
    "coalesce_shuffle": ("target_partition_bytes", 0, (64, 4096)),
    "split_skewed_shuffle": ("skew_split_factor", 1, (2, 4)),
}

#: Shuffle memory: unbounded, or far below every shuffle's volume so that
#: bucket spills and the reduce-side external merge engage.
SHUFFLE_MEMORY = (0, 128)


@st.composite
def configs(draw, rules=None, armed=()):
    """Engine options: ``rules`` (drawn when ``None``) with every knob in
    ``armed`` arming its rule and the other knobs drawn."""
    if rules is None:
        subset = draw(st.sets(st.sampled_from(KNOWN_OPTIMIZER_RULES)))
        rules = tuple(rule for rule in KNOWN_OPTIMIZER_RULES if rule in subset)
    options = {"optimizer_rules": rules,
               "batch_size": draw(st.sampled_from((1, 7, 1024))),
               "shuffle_memory_bytes": draw(st.sampled_from(SHUFFLE_MEMORY)),
               "adaptive_enabled": draw(st.booleans())}
    for rule, (knob, disarmed, arming) in ARMING.items():
        if rule in armed or draw(st.booleans()):
            options[knob] = draw(st.sampled_from(arming))
        else:
            options[knob] = disarmed
    return options


def run(program: Program, options: Dict[str, Any]):
    """``(engine result, oracle result, rules that fired)`` of a program."""
    fired: Set[str] = set()
    with tempfile.TemporaryDirectory() as root:
        config = EngineConfig(
            num_workers=2, default_parallelism=4, seed=3,
            skew_min_partition_bytes=1,
            checkpoint_dir=root if program.checkpoints else None, **options)
        with EngineContext(config) as ctx:
            optimize = ctx.optimizer.optimize

            def recording(plan):
                result = optimize(plan)
                fired.update(result.applied)
                return result

            ctx.optimizer.optimize = recording
            ds = program.build(ctx)
            return ds.collect(), reference.collect(ds), fired


#: Steps whose records depend on the layout of their input: a partition's
#: index or seed, or the order of a key's values.
LAYOUT_SENSITIVE = {"sample", "map_partitions_with_index", "group_by_key",
                    "aggregate_by_key", "cogroup"}


def changes_layout(program: Program, fired: Set[str]) -> bool:
    """Whether a rewrite that changes the partition layout by design fired:
    ``coalesce_shuffle`` shrinks a shuffle's partition count,
    ``broadcast_join`` partitions a join like its stream side, and
    ``pushdown`` deals out only a filter's survivors when it sinks the
    filter below a round-robin repartition."""
    return bool(fired & {"coalesce_shuffle", "broadcast_join"}) or (
        "pushdown" in fired and
        any(step[0] == "repartition" for step in program.steps))


def check(program: Program, engine: List[Any], oracle: List[Any],
          fired: Set[str]) -> None:
    """The engine's answer against the oracle's: equal, or — after a
    layout-changing rewrite — the same records, unless a step that observes
    the layout makes even those differ."""
    if not changes_layout(program, fired):
        assert engine == oracle
    elif not LAYOUT_SENSITIVE.intersection(step[0]
                                           for step in program.steps):
        assert Counter(engine) == Counter(oracle), sorted(fired)


_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                     max_examples=120,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.data_too_large])


# -- the suite ------------------------------------------------------------------


@settings(_SETTINGS, max_examples=200)
@given(program=programs(), options=configs())
def test_generated_programs_match_the_oracle(program, options):
    check(program, *run(program, options))


@pytest.mark.skipif(not serializer.supports_closures(),
                    reason="shipping task closures to worker processes "
                           "needs cloudpickle")
@settings(_SETTINGS, max_examples=10)
@given(program=programs(), options=configs())
def test_a_process_backend_sample_matches_the_oracle(program, options):
    check(program, *run(program, dict(options, executor_backend="process")))


def test_arming_values_agree_with_the_rule_table():
    for rule, (knob, disarmed, arming) in ARMING.items():
        assert RULES[rule].phase == COST
        assert not RULES[rule].armed(EngineConfig(**{knob: disarmed}))
        for value in arming:
            assert RULES[rule].armed(EngineConfig(**{knob: value}))
    assert set(ARMING) == {name for name, rule in RULES.items()
                           if rule.phase == COST}
    disarmed = EngineConfig(**{knob: value
                               for knob, value, _ in ARMING.values()})
    assert all(rule.armed(disarmed) for name, rule in RULES.items()
               if name not in ARMING)


@pytest.mark.parametrize("rule", KNOWN_OPTIMIZER_RULES)
def test_rule_is_certified(rule):
    """``rule`` alone, and every rule but ``rule``, agree with the oracle;
    and ``rule`` fires on at least one generated program."""
    alone, others = (rule,), tuple(other for other in KNOWN_OPTIMIZER_RULES
                                   if other != rule)
    firings = []

    @_SETTINGS
    @given(program=programs(), alone_options=configs(alone, armed=(rule,)),
           others_options=configs(others))
    def certify(program, alone_options, others_options):
        engine, oracle, fired = run(program, alone_options)
        check(program, engine, oracle, fired)
        firings.extend(fired)
        engine, oracle, fired = run(program, others_options)
        check(program, engine, oracle, fired)
        assert rule not in fired

    certify()
    assert rule in firings, f"{rule} fired on no generated program"


#: One program per layout-changing rewrite, under that rule alone.
_FACTS = [(key % 5, key) for key in range(12)]
LAYOUT_CHANGES = {
    "coalesce_shuffle": (Program(_FACTS, 2, [("reduce_by_key", 3)]),
                         {"target_partition_bytes": 64}),
    "broadcast_join": (Program(_FACTS, 2, [("join", "dimension", 3)]),
                       {"broadcast_threshold_bytes": 256}),
    "pushdown": (Program(_FACTS, 2, [("repartition", 3), ("filter", 3)]),
                 {}),
}


@pytest.mark.parametrize("rule", sorted(LAYOUT_CHANGES))
def test_layout_changing_rewrites_keep_the_records_not_their_order(rule):
    """What :func:`check` allows, pinned: each rewrite in
    ``LAYOUT_CHANGES`` gives the oracle's records in another order, and a
    layout-sensitive step after it sees other partitions."""
    program, knobs = LAYOUT_CHANGES[rule]
    options = dict({"optimizer_rules": (rule,),
                    "broadcast_threshold_bytes": 0}, **knobs)
    engine, oracle, fired = run(program, options)
    assert fired == {rule}
    assert engine != oracle and Counter(engine) == Counter(oracle)
    indexed = program._replace(
        steps=program.steps + [("map_partitions_with_index", 2)])
    engine, oracle, _ = run(indexed, options)
    assert Counter(engine) != Counter(oracle)


@pytest.mark.parametrize("rule", sorted(REPARTITIONING))
def test_partition_restricted_actions_read_every_executable_partition(rule):
    """``take`` and ``to_local_iterator`` run one job per partition of the
    dataset's executable, which a rewrite may give more partitions than
    the dataset (a broadcast join over a 4-partition stream side) or fewer
    (a coalesced cogroup)."""
    config = EngineConfig(num_workers=2, seed=3, optimizer_rules=(rule,),
                          **REPARTITIONING[rule])
    with EngineContext(config) as ctx:
        facts = ctx.parallelize([(key % 8, key) for key in range(40)], 4)
        dimension = ctx.parallelize([(key, -key) for key in range(0, 8, 2)],
                                    2)
        joined = facts.join(dimension, 3)
        everything = sorted(joined.collect())
        assert sorted(joined.take(1000)) == everything
        assert sorted(joined.to_local_iterator()) == everything
        empty = ctx.parallelize([], 1)
        assert empty.join(empty.map(lambda pair: pair), 2) \
            .sort_by(lambda pair: pair[0], True, 2).collect() == []
