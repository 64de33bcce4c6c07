"""The wide-operator algebra: streaming external merges and fingerprints.

Every wide operator is declared once in :mod:`repro.engine.wide` as a fold,
a merge and a finish, and each way it executes is derived from that
declaration.  Two properties of the derivation are checked here:

* the external merge of a memory-bounded sort or distinct is the *lazy*
  merge: the first output batch arrives after at most one frame of every
  spilled run has been read, not after the whole partition was merged;
* every wide operator, in its API form, its optimized executable and its
  shuffle-eliminated local form, keeps a content fingerprint — the journal
  and the shared block store adopt nothing from a lineage without one.
"""

from __future__ import annotations

import collections
import os

import pytest

from repro.config import EngineConfig
from repro.engine.context import EngineContext
from repro.engine.dataset import ShuffleDependency, batch_action
from repro.engine.journal import shuffle_journal_key
from repro.engine.memory import SPILL_FRAME_RECORDS, SpillRun

from test_batch_execution import LOCAL_PIPELINES
from test_memory_bounded import DATA, OTHER_SIDE, PIPELINES

# -- streaming external merge --------------------------------------------------

#: 20,000 distinct records in a scrambled order: four map partitions of
#: 5,000, and under a 4 KiB cap each map's bucket becomes one spilled run
#: spanning two frames.
SPILLED = [(index * 7919) % 20_000 for index in range(20_000)]

STREAMED = {
    "sort_by": lambda ds: ds.sort_by(lambda value: value, True, 1),
    "distinct": lambda ds: ds.distinct(1),
}


def spilling_engine() -> EngineContext:
    return EngineContext(EngineConfig(
        num_workers=1, default_parallelism=4, seed=1, batch_size=1024,
        shuffle_memory_bytes=4096, spill_codec="none"))


@pytest.fixture()
def run_reads(monkeypatch):
    """Records read back from each spilled run, by run file."""
    reads = collections.Counter()
    original = SpillRun.iter_records

    def counting(run):
        for record in original(run):
            reads[run.span.path] += 1
            yield record

    monkeypatch.setattr(SpillRun, "iter_records", counting)
    return reads


@pytest.mark.parametrize("pipeline_name", sorted(STREAMED))
def test_external_merge_streams_the_spilled_runs(pipeline_name, run_reads):
    @batch_action
    def first_batch_reads(batches):
        at_first = None
        for _ in batches:
            if at_first is None:
                at_first = dict(run_reads)
        return at_first

    with spilling_engine() as ctx:
        ds = STREAMED[pipeline_name](ctx.parallelize(SPILLED, 4))
        [at_first] = ctx.run_job(ds, first_batch_reads)
        assert ctx.metrics.jobs[-1].spills > 0
    totals = dict(run_reads)
    assert len(totals) >= 2
    assert all(count > SPILL_FRAME_RECORDS for count in totals.values()), \
        "every run must span at least two frames"
    assert sum(totals.values()) == len(SPILLED)
    assert sum(at_first.values()) < sum(totals.values())
    assert all(count <= SPILL_FRAME_RECORDS for count in at_first.values())


#: What ``take(3)`` returns from each streamed pipeline.
FIRST_THREE = {"sort_by": sorted(SPILLED)[:3], "distinct": SPILLED[:3]}


@pytest.mark.parametrize("pipeline_name", sorted(STREAMED))
def test_abandoned_external_merge_deletes_its_runs(pipeline_name):
    """An action that stops early closes the merge: the run streams close
    (no file handle leaks) and the run files are deleted."""
    with spilling_engine() as ctx:
        ds = STREAMED[pipeline_name](ctx.parallelize(SPILLED, 4))
        assert ds.take(3) == FIRST_THREE[pipeline_name]
        assert ctx.metrics.summary()["spills"] > 0
        root = ctx._spill_root
        assert not any(name.startswith("run-") for name in os.listdir(root))
        assert ctx.memory_manager.used_bytes == \
            ctx.shuffle_manager.resident_bytes()


# -- fingerprints ----------------------------------------------------------------


def _lineage(dataset):
    seen, stack = {}, [dataset]
    while stack:
        node = stack.pop()
        if node.id not in seen:
            seen[node.id] = node
            stack.extend(dependency.parent for dependency in node.dependencies)
    return list(seen.values())


def identity(build):
    """Fingerprints of ``build(ctx)`` in a fresh context: the API dataset's,
    its executable's, and the journal keys of the executable's shuffles."""
    with EngineContext(EngineConfig(num_workers=1, default_parallelism=4,
                                    seed=1, broadcast_threshold_bytes=0)) as ctx:
        ds = build(ctx)
        executable = ctx._executable_for(ds)
        keys = [shuffle_journal_key(dependency)
                for node in _lineage(executable)
                for dependency in node.dependencies
                if isinstance(dependency, ShuffleDependency)]
        return ds.fingerprint(), executable.fingerprint(), keys


def _pipeline(name):
    return lambda ctx: PIPELINES[name](ctx.parallelize(DATA, 4),
                                       ctx.parallelize(OTHER_SIDE, 2))


def _local(name):
    return lambda ctx: LOCAL_PIPELINES[name](ctx.parallelize(DATA, 4))


BUILDS = {**{name: _pipeline(name) for name in PIPELINES},
          **{f"local:{name}": _local(name) for name in LOCAL_PIPELINES}}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_every_wide_operator_keeps_a_fingerprint(name):
    api, executable, keys = identity(BUILDS[name])
    assert api is not None and executable is not None
    assert keys and all(key is not None for key in keys)
    assert identity(BUILDS[name]) == (api, executable, keys)


def _add(a, b):
    return a + b


def _multiply(a, b):
    return a * b


def _pairs(ctx):
    return ctx.parallelize(DATA, 4)


#: Each case: a build and the same build with one operator input changed.
MUTATIONS = {
    "reduce_by_key function": (
        lambda ctx: _pairs(ctx).reduce_by_key(_add, 4),
        lambda ctx: _pairs(ctx).reduce_by_key(_multiply, 4)),
    "combine_by_key combiner": (
        lambda ctx: _pairs(ctx).combine_by_key(
            lambda v: [v], lambda acc, v: acc + [v], _add, 4),
        lambda ctx: _pairs(ctx).combine_by_key(
            lambda v: [v, v], lambda acc, v: acc + [v], _add, 4)),
    "sort key": (
        lambda ctx: _pairs(ctx).sort_by(lambda pair: pair[0], True, 4),
        lambda ctx: _pairs(ctx).sort_by(lambda pair: pair[1], True, 4)),
    "cogroup other side": (
        lambda ctx: _pairs(ctx).cogroup(ctx.parallelize(OTHER_SIDE, 2), 4),
        lambda ctx: _pairs(ctx).cogroup(ctx.parallelize(OTHER_SIDE[1:], 2), 4)),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_a_changed_operator_moves_the_fingerprint(name):
    base, changed = MUTATIONS[name]
    before, after = identity(base), identity(changed)
    assert before[0] != after[0] and before[1] != after[1]


def test_merge_combiners_moves_the_combined_fingerprint():
    """Once the map side combines, the reduce merges through
    ``merge_combiners``: a block computed with another one must not match."""
    def build(merge):
        return lambda ctx: _pairs(ctx).combine_by_key(
            lambda v: [v], lambda acc, v: acc + [v], merge, 4)

    assert identity(build(_add))[1] != identity(build(_multiply))[1]
