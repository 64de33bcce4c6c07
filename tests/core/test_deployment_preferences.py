"""Deployment preferences: every bad value ends in a named error.

A campaign's ``deployment`` preferences are outside input.  Each key either
sets one engine knob from the table in :mod:`repro.config` or is one of the
keys the compilers interpret themselves; any other key, or a value of the
wrong type, is a :class:`ConfigurationError` naming ``deployment.<key>`` —
never a traceback, and never a value silently misread.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ENGINE_KNOBS, SPEC_KNOBS, EngineConfig
from repro.core.compiler import CampaignCompiler
from repro.errors import ConfigurationError, ReproError

#: Every key a spec may set an engine knob with, by the type it takes.
SETTABLE = {
    "broadcast_threshold_bytes": "int",
    "target_partition_bytes": "int",
    "adaptive": "bool",
    "batch_size": "int",
    "skew_split_factor": "int",
    "skew_min_partition_bytes": "int",
    "shuffle_memory_bytes": "int",
    "executor_backend": "str",
    "shuffle_transport": "str",
    "fetch_max_retries": "int",
    "speculation_multiplier": "number",
    "blacklist_failure_threshold": "int",
    "blacklist_cooldown_s": "number",
    "checkpoint_dir": "str",
    "checkpoint_interval": "int",
    "recover_from": "str",
    "max_task_retries": "int",
    "failure_rate": "number",
    "seed": "int",
}

#: The keys the compilers interpret themselves.
DEPLOYMENT_LEVEL = {
    "num_partitions": "int",
    "num_workers": "int",
    "cluster_profile": "str",
    "max_batches": "int",
    "export_table": "bool",
    "export_rows": "int",
    "optimizer": "bool",
    "optimizer_rules": "names",
    "map_side_combine": "bool",
}

_NON_INTEGRAL = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda number: number != int(number))
_TEXT, _NONE = st.text(max_size=8), st.none()
_LISTS = st.lists(st.integers(), max_size=3)
_DICTS = st.dictionaries(st.text(max_size=4), st.integers(), max_size=2)

#: Values of the wrong type for each kind of preference.
WRONG = {
    "int": st.one_of(_TEXT, _NONE, _LISTS, _DICTS, _NON_INTEGRAL,
                     st.booleans()),
    "number": st.one_of(_TEXT, _NONE, _LISTS, _DICTS, st.booleans()),
    "bool": st.one_of(_TEXT, _NONE, _LISTS, _DICTS, _NON_INTEGRAL,
                      st.integers()),
    "str": st.one_of(_NONE, _LISTS, _DICTS, _NON_INTEGRAL, st.integers(),
                     st.booleans()),
    "names": st.one_of(_TEXT, _NONE, _DICTS, _NON_INTEGRAL, st.integers(),
                       st.booleans()),
}


def compile_with(**deployment):
    return CampaignCompiler().compile({
        "name": "preferences",
        "policy": "open_data",
        "source": {"scenario": "churn", "num_records": 2000},
        "deployment": deployment,
        "goals": [{"id": "g", "task": "descriptive",
                   "params": {"fields": ["monthly_charges"]}}],
    })


#: Inputs that escaped as a ``ValueError``/``TypeError`` traceback or were
#: silently misread before preferences were checked against the table.
BAD_INPUTS = [
    ("batch_size", "big"),
    ("num_partitions", "x"),
    ("batch_size", None),
    ("shuffle_memory_bytes", [1]),
    ("adaptive", "false"),          # used to switch adaptive re-planning on
    ("optimizer_rules", "pushdown"),  # used to explode into characters
    ("num_workers", 2.7),           # used to become 2
    ("corruption_rate", 0.5),       # not settable; used to be ignored
    ("batch_sise", 8),              # a typo; used to be ignored
]


@pytest.mark.parametrize("key,value", BAD_INPUTS,
                         ids=[f"{key}={value!r}" for key, value in BAD_INPUTS])
def test_bad_input_is_a_named_error(key, value):
    with pytest.raises(ConfigurationError, match=rf"deployment\.{key}\b"):
        compile_with(**{key: value})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_wrong_type_always_names_its_key(data):
    kinds = {**SETTABLE, **DEPLOYMENT_LEVEL}
    key = data.draw(st.sampled_from(sorted(kinds)), label="key")
    value = data.draw(WRONG[kinds[key]], label="value")
    with pytest.raises(ReproError) as excinfo:
        compile_with(**{key: value})
    assert key in str(excinfo.value)


def test_every_engine_field_has_one_table_entry():
    assert [knob.name for knob in ENGINE_KNOBS] == \
        [field.name for field in dataclasses.fields(EngineConfig)]


def test_settable_keys_are_exactly_the_table_ones():
    assert set(SPEC_KNOBS) == set(SETTABLE)
    assert not set(SPEC_KNOBS) & set(DEPLOYMENT_LEVEL)


def test_a_number_for_a_float_knob_becomes_a_float():
    config = compile_with(speculation_multiplier=2).deployment.engine_config
    assert config.speculation_multiplier == 2.0
    assert isinstance(config.speculation_multiplier, float)


def test_engine_config_names_a_value_of_the_wrong_type():
    with pytest.raises(ConfigurationError, match="batch_size"):
        EngineConfig(batch_size="big")
