"""When an action gets an adaptive re-planner.

Re-planning between shuffle-map stages can only change a plan through a
cost-based rule, and only one whose knob arms it.  So ``run_job`` hands the
scheduler a re-planner exactly when adaptive execution is on and some
enabled cost-based rule is armed: every combination of the three cost rules
enabled or not and armed or not is enumerated here.
"""

from __future__ import annotations

import itertools

import pytest

from repro.config import EngineConfig
from repro.engine.context import EngineContext

#: cost rule -> (its knob, a disarming value, an arming value)
ARMING = {
    "broadcast_join": ("broadcast_threshold_bytes", 0, 1024),
    "coalesce_shuffle": ("target_partition_bytes", 0, 1024),
    "split_skewed_shuffle": ("skew_split_factor", 1, 4),
}

#: Per cost rule: (enabled, armed).
COMBINATIONS = list(itertools.product(
    itertools.product((False, True), repeat=2), repeat=len(ARMING)))


def _label(combination) -> str:
    return "-".join(f"{'on' if enabled else 'off'}/"
                    f"{'armed' if armed else 'disarmed'}"
                    for enabled, armed in combination)


@pytest.mark.parametrize("adaptive", [True, False])
@pytest.mark.parametrize("combination", COMBINATIONS, ids=_label)
def test_replanner_exactly_when_an_enabled_cost_rule_is_armed(
        combination, adaptive):
    rules = ("cache_prune", "pushdown", "fuse_narrow")
    knobs = {}
    for (rule, (knob, disarmed, armed_value)), (enabled, armed) in zip(
            ARMING.items(), combination):
        if enabled:
            rules += (rule,)
        knobs[knob] = armed_value if armed else disarmed
    expected = adaptive and any(enabled and armed
                                for enabled, armed in combination)
    config = EngineConfig(num_workers=1, seed=1, optimizer_rules=rules,
                          adaptive_enabled=adaptive, **knobs)
    with EngineContext(config) as ctx:
        replanners = []
        run_job = ctx.scheduler.run_job

        def recording(*args, replanner=None, **kwargs):
            replanners.append(replanner)
            return run_job(*args, replanner=replanner, **kwargs)

        ctx.scheduler.run_job = recording
        ds = ctx.parallelize([(x % 3, x) for x in range(12)], 2) \
            .reduce_by_key(lambda a, b: a + b, 2)
        assert sorted(ds.collect()) == [(0, 18), (1, 22), (2, 26)]
        assert [replanner is not None for replanner in replanners] == \
            [expected]
