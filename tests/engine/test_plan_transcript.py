"""The plan layer against transcripts recorded before lowering had one builder.

Every logical node reaches its physical dataset through one call,
:func:`repro.engine.dataset.build`, from the API methods and from plan
lowering alike, and the statistics layer writes each narrow estimate,
shuffle-size hint and source key sample once.  The digests below were
recorded on the commit before that change.  Each case builds a small
pipeline and hashes a transcript of:

* ``explain()`` before and after the first action;
* the context's physical lineage of the executable before and after it;
* every ``ShuffleDependency.estimated_bytes`` of the API lineage and of the
  executable's lineage, as built, after ``explain()`` and after the job;
* the result of the action.

Physical plans print dataset ids, so the transcript also pins the order in
which datasets are allocated.  Each case runs under the default rules, with
the optimizer off and under every rule alone, with broadcast joins off
(``broadcast_threshold_bytes=0``) and on (10 MiB), with
``skew_min_partition_bytes=1`` so the skew split can fire on the small
skewed inputs, and with shuffle coalescing off (``target_partition_bytes``
0) and on (1 KiB).  One worker keeps adaptive re-planning in a fixed
order, and ``spill_codec="none"`` keeps byte estimates independent of the
compression libraries installed.

``fingerprint()`` hashes user-function bytecode, which differs between
Python versions, so its digest is kept apart and only checked on the
version it was recorded with.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

from repro.config import KNOWN_OPTIMIZER_RULES, EngineConfig
from repro.data.schemas import Field, Schema
from repro.data.sources import InMemorySource
from repro.engine.context import EngineContext
from repro.engine.dataset import ShuffleDependency

SCHEMA = Schema(name="readings", fields=(
    Field("sensor", "int"), Field("value", "int"), Field("site", "str")))

RECORDS = [{"sensor": i % 11, "value": (i * 7) % 23, "site": f"s{i % 3}"}
           for i in range(180)]

#: Key 0 carries three quarters of the records: a skewed join input.
PAIRS = [(0 if i % 4 else i % 13, i) for i in range(240)]

DIMENSION = [(k, f"dim-{k}") for k in range(0, 13, 3)]


def _add(a, b):
    return a + b


def _tag_partition(index, records):
    return ((index, record) for record in records)


def _cases(ctx):
    """``(label, build)`` pairs; ``build()`` returns the dataset to run."""
    def rows():
        return ctx.parallelize(RECORDS, 3)

    def scan():
        return ctx.from_source(InMemorySource("readings", RECORDS,
                                              schema=SCHEMA), num_partitions=3)

    def pairs():
        return ctx.parallelize(PAIRS, 4)

    def dimension():
        return ctx.parallelize(DIMENSION, 2)

    def cached_parent():
        parent = pairs().map(lambda kv: (kv[0], kv[1] % 7)).cache()
        parent.count()
        return parent.filter(lambda kv: kv[1] > 1).reduce_by_key(_add, 3)

    def zipped():
        return rows().filter(lambda r: r["value"] % 2 == 0).zip_with_index() \
            .map(lambda pair: (pair[0]["sensor"], pair[1]))

    return [
        ("narrow_chain", lambda: rows()
         .map(lambda r: dict(r, value=r["value"] + 1))
         .filter(lambda r: r["value"] % 2 == 0)
         .flat_map(lambda r: [r, r]).project(["site", "value"])),
        ("project_source", lambda: scan().project(["sensor", "value"])
         .filter(lambda r: r["sensor"] > 3)),
        ("project_sort", lambda: scan().sort_by(
            lambda r: r["sensor"], key_fields=["sensor"], num_partitions=2)
         .project(["sensor", "value"])),
        ("join", lambda: pairs().join(dimension(), 3)),
        ("left_outer_join", lambda: pairs().left_outer_join(dimension(), 3)),
        ("right_outer_join", lambda: pairs().right_outer_join(dimension(), 3)),
        ("full_outer_join", lambda: pairs().full_outer_join(dimension(), 3)),
        ("subtract_by_key", lambda: pairs().subtract_by_key(dimension(), 3)),
        ("cogroup", lambda: pairs().cogroup(dimension(), 3)),
        ("distinct", lambda: ctx.parallelize(
            [i % 17 for i in range(200)], 3).distinct(3)),
        ("group_by_key", lambda: pairs().group_by_key(3)),
        ("shuffle_elim", lambda: pairs().reduce_by_key(_add, 3)
         .group_by_key(3)),
        ("union_sample_coalesce", lambda: pairs().union(dimension())
         .sample(0.5, seed=3).coalesce(2)),
        ("map_partitions_under_repartition", lambda: pairs().repartition(3)
         .map_partitions_with_index(_tag_partition)
         .filter(lambda pair: pair[1][1] % 3 == 0)),
        ("cached_parent", cached_parent),
        ("zip_with_index", zipped),
    ]


def _lineage(root):
    seen, stack = {}, [root]
    while stack:
        ds = stack.pop()
        if ds.id not in seen:
            seen[ds.id] = ds
            stack.extend(dep.parent for dep in ds.dependencies)
    return seen.values()


def _hints(*roots):
    """Every shuffle dependency's size hint across the given lineages."""
    return sorted({(ds.id, dep.shuffle_id, dep.estimated_bytes)
                   for root in roots for ds in _lineage(root)
                   for dep in ds.dependencies
                   if isinstance(dep, ShuffleDependency)})


def case_transcript(ctx, build):
    ds = build()
    entry = [_hints(ds)]
    entry.append(ds.explain())
    executable = ctx._executable_for(ds)
    entry += [ctx.explain(executable), _hints(ds, executable)]
    entry.append(ds.collect())
    executable = ctx._executable_for(ds)
    entry += [ds.explain(), ctx.explain(executable), _hints(ds, executable)]
    return entry, ds.fingerprint()


#: ``(label, rules, broadcast_threshold_bytes, target_partition_bytes)``
#: of every configuration.
CONFIGS = [(f"{label}/bc{threshold}/t{target}", rules, threshold, target)
           for label, rules in [("default", KNOWN_OPTIMIZER_RULES),
                                ("off", ())] +
           [(rule, (rule,)) for rule in KNOWN_OPTIMIZER_RULES]
           for threshold in (0, 10 * 1024 * 1024) for target in (0, 1024)]


def _engine(rules, threshold, target) -> EngineContext:
    return EngineContext(EngineConfig(
        num_workers=1, default_parallelism=3, seed=5, batch_size=16,
        spill_codec="none", optimizer_rules=rules,
        broadcast_threshold_bytes=threshold, skew_min_partition_bytes=1,
        target_partition_bytes=target))


def transcript(*config):
    entries, fingerprints = [], []
    with _engine(*config) as probe:
        labels = [label for label, _ in _cases(probe)]
    for index, label in enumerate(labels):
        # a fresh context per case: dataset and shuffle ids start at zero
        with _engine(*config) as ctx:
            entry, fingerprint = case_transcript(ctx, _cases(ctx)[index][1])
        entries.append((label, entry))
        fingerprints.append((label, fingerprint))
    return entries, fingerprints


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


#: Transcript digest per configuration, recorded before the change.  The
#: four broadcast ones (``default`` and ``broadcast_join`` at 10 MiB) were
#: re-recorded when a broadcast build became a one-bucket shuffle: the
#: physical plan marks its build (and key-set) edges ``(shuffle)`` instead
#: of ``(broadcast key_values)`` (``key_set``), and the executable's hints
#: list those shuffles, ids ``build-<id>`` (``keys-<id>``), with no hint;
#: dataset ids, the other hints and every result are unchanged.  The same
#: four were re-recorded when a broadcast join began to probe each stream
#: batch: only the results of the five join cases moved, to the same
#: pairs in the stream partitions' record order.
PINNED = {
    'default/bc0/t0': 'ab4b90399d356a2d0aa3c22ef3767ae44e8f7456b3d838e03fa5c8761774262c',
    'default/bc0/t1024': 'aac7fb03b6e52ba0d87934b1686d69c22815e3bcbef658cc742066565ce41ba0',
    'default/bc10485760/t0': '26564208e9b23739fa76e348d1558eca3ccc0d0c2d3654b1318964157c1f7774',
    'default/bc10485760/t1024': '067448182f7fe725ff778968de78d7cd9fd2bbc009a44436760f38f99f974c1c',
    'off/bc0/t0': 'f0ed50a0e379998bb1698d2a300590f7f12d459d2a2cdc70b132fe15d32c7af7',
    'off/bc0/t1024': 'f0ed50a0e379998bb1698d2a300590f7f12d459d2a2cdc70b132fe15d32c7af7',
    'off/bc10485760/t0': 'f0ed50a0e379998bb1698d2a300590f7f12d459d2a2cdc70b132fe15d32c7af7',
    'off/bc10485760/t1024': 'f0ed50a0e379998bb1698d2a300590f7f12d459d2a2cdc70b132fe15d32c7af7',
    'cache_prune/bc0/t0': '4212f25fdc5d538de88e5a7f80a6c74a6e0e19020b95e16e67432af2686c9622',
    'cache_prune/bc0/t1024': '4212f25fdc5d538de88e5a7f80a6c74a6e0e19020b95e16e67432af2686c9622',
    'cache_prune/bc10485760/t0': '4212f25fdc5d538de88e5a7f80a6c74a6e0e19020b95e16e67432af2686c9622',
    'cache_prune/bc10485760/t1024': '4212f25fdc5d538de88e5a7f80a6c74a6e0e19020b95e16e67432af2686c9622',
    'pushdown/bc0/t0': 'e75f718c99a2925abf9356a55ac50180cd5443b001367a1d5ab769372fd26b78',
    'pushdown/bc0/t1024': 'e75f718c99a2925abf9356a55ac50180cd5443b001367a1d5ab769372fd26b78',
    'pushdown/bc10485760/t0': 'e75f718c99a2925abf9356a55ac50180cd5443b001367a1d5ab769372fd26b78',
    'pushdown/bc10485760/t1024': 'e75f718c99a2925abf9356a55ac50180cd5443b001367a1d5ab769372fd26b78',
    'shuffle_elim/bc0/t0': 'bc542097aebc02bee93f1a4805c2c54a2a1a4dccce12686ffdd9f22184a2ebcd',
    'shuffle_elim/bc0/t1024': 'bc542097aebc02bee93f1a4805c2c54a2a1a4dccce12686ffdd9f22184a2ebcd',
    'shuffle_elim/bc10485760/t0': 'bc542097aebc02bee93f1a4805c2c54a2a1a4dccce12686ffdd9f22184a2ebcd',
    'shuffle_elim/bc10485760/t1024': 'bc542097aebc02bee93f1a4805c2c54a2a1a4dccce12686ffdd9f22184a2ebcd',
    'map_side_combine/bc0/t0': '8c2fb1766cc3b4321f7c94b947c69f054eac149000f8ed1cbff3b5d4e893a31c',
    'map_side_combine/bc0/t1024': '8c2fb1766cc3b4321f7c94b947c69f054eac149000f8ed1cbff3b5d4e893a31c',
    'map_side_combine/bc10485760/t0': '8c2fb1766cc3b4321f7c94b947c69f054eac149000f8ed1cbff3b5d4e893a31c',
    'map_side_combine/bc10485760/t1024': '8c2fb1766cc3b4321f7c94b947c69f054eac149000f8ed1cbff3b5d4e893a31c',
    'fuse_narrow/bc0/t0': 'b0de3083ce4a8937a50e03e8a92ba1c1bca3883fe320b3441e4dec28e6bb5e66',
    'fuse_narrow/bc0/t1024': 'b0de3083ce4a8937a50e03e8a92ba1c1bca3883fe320b3441e4dec28e6bb5e66',
    'fuse_narrow/bc10485760/t0': 'b0de3083ce4a8937a50e03e8a92ba1c1bca3883fe320b3441e4dec28e6bb5e66',
    'fuse_narrow/bc10485760/t1024': 'b0de3083ce4a8937a50e03e8a92ba1c1bca3883fe320b3441e4dec28e6bb5e66',
    'broadcast_join/bc0/t0': 'e9410c18f68385f1c7093ba56ed6ae45bedd40e01052a8311763de2bdacf3bbe',
    'broadcast_join/bc0/t1024': 'e9410c18f68385f1c7093ba56ed6ae45bedd40e01052a8311763de2bdacf3bbe',
    'broadcast_join/bc10485760/t0': '1a594aa3c36e2cedca9f87ecf29a64ec026de8ad2718e26ed3a0cb53ec8a41af',
    'broadcast_join/bc10485760/t1024': '1a594aa3c36e2cedca9f87ecf29a64ec026de8ad2718e26ed3a0cb53ec8a41af',
    'coalesce_shuffle/bc0/t0': 'e9410c18f68385f1c7093ba56ed6ae45bedd40e01052a8311763de2bdacf3bbe',
    'coalesce_shuffle/bc0/t1024': 'a5c223eeb557297d70fb5c29e17ccc9e8043be38cb0e02856172c6e03ff5e246',
    'coalesce_shuffle/bc10485760/t0': 'e9410c18f68385f1c7093ba56ed6ae45bedd40e01052a8311763de2bdacf3bbe',
    'coalesce_shuffle/bc10485760/t1024': 'a5c223eeb557297d70fb5c29e17ccc9e8043be38cb0e02856172c6e03ff5e246',
    'split_skewed_shuffle/bc0/t0': '8ff51e023e74206cd7fb20785cd14c5951ba3040748977dea99b214e2eac3e07',
    'split_skewed_shuffle/bc0/t1024': '8ff51e023e74206cd7fb20785cd14c5951ba3040748977dea99b214e2eac3e07',
    'split_skewed_shuffle/bc10485760/t0': '8ff51e023e74206cd7fb20785cd14c5951ba3040748977dea99b214e2eac3e07',
    'split_skewed_shuffle/bc10485760/t1024': '8ff51e023e74206cd7fb20785cd14c5951ba3040748977dea99b214e2eac3e07',
}

#: Digest of every case's ``fingerprint()`` (the same in every
#: configuration), recorded on this Python version.  Re-recorded when the
#: keyed merge (``wide._merge_by_key``, in the group and cogroup
#: declarations) gained the ``adopt`` argument that stored partials merge
#: through — a declaration's bytecode is part of every fingerprint — and a
#: dependency's signature lost the slot of the broadcast collection kind,
#: and when the join kinds became one declaration (``wide.JOINS``): the
#: five join cases' emission is its ``emit``, not a closure per method.
FINGERPRINT_VERSION = (3, 11)
FINGERPRINTS = \
    "e610d28307cb88311fbe11437afe5121e2735e2dad126ab720c003f148f62ae4"


@pytest.mark.parametrize("label,rules,threshold,target", CONFIGS,
                         ids=[config[0] for config in CONFIGS])
def test_plan_layer_reproduces_the_recorded_transcript(label, rules,
                                                       threshold, target):
    entries, fingerprints = transcript(rules, threshold, target)
    assert digest(entries) == PINNED[label]
    if sys.version_info[:2] == FINGERPRINT_VERSION:
        assert digest(fingerprints) == FINGERPRINTS


if __name__ == "__main__":  # print the digests of the current code
    for name, *config in CONFIGS:
        found, prints = transcript(*config)
        print(f"    {name!r}: {digest(found)!r},")
    print("fingerprints", digest(prints))
