"""A checkpoint truncates lineage under every optimizer rule set.

Once ``Dataset.checkpoint()`` has written a dataset's partitions, no later
action may re-run anything upstream of it: not with the optimizer off, not
with every rule on, and not with any one rule, or all rules but one.  The
truncation is a step of the optimizer that no rule set turns off; each
shape below once bypassed it when ``cache_prune`` was off (``fuse_narrow``
fused the checkpointed map into the next one, ``pushdown`` sank a filter
below the checkpointed sort).
"""

from __future__ import annotations

import operator

import pytest

from repro.config import KNOWN_OPTIMIZER_RULES, EngineConfig
from repro.engine import serializer
from repro.engine.context import EngineContext

BACKENDS = ["thread", "process"] if serializer.supports_closures() \
    else ["thread"]

RULE_SETS = [(), KNOWN_OPTIMIZER_RULES] + \
    [(rule,) for rule in KNOWN_OPTIMIZER_RULES] + \
    [tuple(other for other in KNOWN_OPTIMIZER_RULES if other != rule)
     for rule in KNOWN_OPTIMIZER_RULES]

#: name -> (the dataset to checkpoint over a counted upstream function,
#: what the action after the checkpoint reads, the answer it must give).
SHAPES = {
    "map_after_map": (
        lambda ctx, counted: ctx.parallelize(range(10), 2).map(counted),
        lambda ds: ds.map(lambda x: x * 10),
        [x * 10 for x in range(10)]),
    "filter_after_sort": (
        lambda ctx, counted: ctx.parallelize(range(10), 2).map(counted)
        .sort_by(lambda x: -x, True, 2),
        lambda ds: ds.filter(lambda x: x % 2 == 1),
        [9, 7, 5, 3, 1]),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("rules", RULE_SETS,
                         ids=lambda rules: "+".join(rules) or "none")
def test_checkpoint_is_never_bypassed(tmp_path, rules, shape):
    checkpointed, after, expected = SHAPES[shape]
    calls = []

    def counted(x):
        calls.append(x)
        return x

    config = EngineConfig(num_workers=2, seed=1, optimizer_rules=rules,
                          checkpoint_dir=str(tmp_path))
    with EngineContext(config) as ctx:
        ds = checkpointed(ctx, counted).checkpoint()
        assert set(calls) == set(range(10))
        calls.clear()
        assert after(ds).collect() == expected
        assert calls == [], "the action re-ran lineage above the checkpoint"


#: Rewrites that give a join's executable another partition count than the
#: join: a coalesced cogroup (3 -> 1), and a broadcast join partitioned like
#: its 4-partition stream side (3 -> 4).
REPARTITIONING = {
    "coalesce_shuffle": {"target_partition_bytes": 4096,
                         "broadcast_threshold_bytes": 0},
    "broadcast_join": {"broadcast_threshold_bytes": 1024},
}


@pytest.mark.parametrize("rule", sorted(REPARTITIONING))
def test_checkpoint_holds_its_executables_partitions(tmp_path, rule):
    """A checkpoint is a shuffle over the dataset's executable, so its
    files hold the executable's partitions, and the checkpointed dataset
    takes that partitioning: every record comes back, under a rewrite
    that repartitions too."""
    config = EngineConfig(num_workers=2, seed=3,
                          optimizer_rules=("cache_prune", rule),
                          checkpoint_dir=str(tmp_path),
                          **REPARTITIONING[rule])
    with EngineContext(config) as ctx:
        facts = ctx.parallelize([(key % 8, key) for key in range(40)], 4)
        dimension = ctx.parallelize([(key, -key) for key in range(0, 8, 2)],
                                    2)
        joined = facts.join(dimension, 3)
        expected = sorted(joined.collect())
        joined.checkpoint()
        assert sorted(joined.collect()) == expected
        assert sorted(joined.map(lambda pair: pair[1]).collect()) == \
            sorted(pair[1] for pair in expected)


@pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_checkpoint_writes_each_partition_once(tmp_path, backend, cached):
    """The checkpoint stage of a cached dataset whose cache is not yet
    filled reads an unmarked copy of the executable: it writes the 35
    checkpointed records once, and no cache copy it would then drop."""
    config = EngineConfig(num_workers=2, default_parallelism=4, seed=1,
                          executor_backend=backend,
                          checkpoint_dir=str(tmp_path))
    with EngineContext(config) as ctx:
        totals = ctx.parallelize(range(200), 4) \
            .map(lambda x: (x % 7, x)).reduce_by_key(operator.add)
        if cached:
            totals.cache()
        totals.checkpoint()
        job = ctx.metrics.jobs[-1]
        assert job.description.startswith("checkpoint:")
        assert job.records_written == 35
        assert sorted(totals.collect()) == sorted(
            (key, sum(x for x in range(200) if x % 7 == key))
            for key in range(7))
