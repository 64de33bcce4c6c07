"""The narrow operators against transcripts recorded before they were unified.

``map``, ``filter``, ``flat_map`` and ``project`` (and the emission step of
a shuffle join) used to be three hand-written physical classes; each is now
a one-stage :class:`~repro.engine.dataset.FusedDataset`.  The digests below
were recorded on the commit before that change.  Each scenario runs the
operators alone and chained, over row input (``parallelize``) and over a
pruned scan of a schema-bearing source (columnar batches once the
``pushdown`` rule prunes the scan, and a projection above a pruned scan
then selects columns), plus shuffle joins, and hashes a
transcript of every action: the dataset name, the result, and per job the
description, the stage names, ``batches_processed`` and ``records_read``.
Every scenario runs with the optimizer off (``optimizer_rules=()``) and with
the default rules, on both executor backends; the transcript does not depend
on the backend.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import EngineConfig
from repro.data.schemas import Field, Schema
from repro.data.sources import InMemorySource
from repro.engine import serializer
from repro.engine.context import EngineContext

BACKENDS = ["thread", pytest.param("process", marks=pytest.mark.skipif(
    not serializer.supports_closures(),
    reason="shipping task closures to worker processes needs cloudpickle"))]

SCHEMA = Schema(name="readings", fields=(
    Field("sensor", "int"), Field("value", "int"), Field("site", "str")))

RECORDS = [{"sensor": i % 11, "value": (i * 7) % 23, "site": f"s{i % 3}"}
           for i in range(300)]

DIMENSION = [(k, f"dim-{k}") for k in range(0, 11, 2)]

#: Digest of the transcript per rule setting, recorded before the change.
PINNED = {
    "off": "29933c5510743231d5caa21a3a5f0da7c2aea1122131b65e751c57a17f16cd45",
    "default": "07d8e598886590d8bceea7f0fb0b49afe3acc0da9bf1fef4da117f86073a7751",
}


def _pipelines(ctx):
    """``(label, dataset)`` pairs: every narrow operator alone and chained,
    over both inputs, and shuffle joins whose emission is a narrow step."""
    rows = ctx.parallelize(RECORDS, 3)
    scan = ctx.from_source(InMemorySource("readings", RECORDS, schema=SCHEMA),
                           num_partitions=3)
    pairs = rows.map(lambda record: (record["sensor"], record["value"]))
    dimension = ctx.parallelize(DIMENSION, 2)
    built = []
    for input_name, base in (("rows", rows), ("scan", scan)):
        projected = base.project(["sensor", "value"])
        built += [
            (f"{input_name}:map", base.map(lambda record: record["value"] * 2)),
            (f"{input_name}:filter",
             base.filter(lambda record: record["value"] % 3 == 0)),
            (f"{input_name}:flat_map", base.flat_map(
                lambda record: [record["sensor"]] * (record["value"] % 3))),
            (f"{input_name}:project", projected),
            (f"{input_name}:project>map",
             projected.map(lambda record: record["sensor"] + record["value"])),
            (f"{input_name}:project>filter", projected.filter(
                lambda record: record["sensor"] > 4)),
            (f"{input_name}:project>project", projected.project(["value"])),
            # the coalesce keeps the outer projection out of the scan: over
            # the pruned scan it selects columns of a columnar batch
            (f"{input_name}:project>coalesce>project",
             projected.coalesce(2).project(["value"])),
            (f"{input_name}:chain", base.map(lambda record: dict(
                record, value=record["value"] + 1))
             .filter(lambda record: record["value"] % 2 == 0)
             .flat_map(lambda record: [record, record])
             .project(["site", "value"])),
        ]
    built += [
        ("join", pairs.join(dimension, 3)),
        ("left_outer_join", pairs.left_outer_join(dimension, 3)),
        ("reduce>map", pairs.reduce_by_key(lambda a, b: a + b, 3)
         .map(lambda kv: (kv[0], kv[1] % 5))),
    ]
    return built


def _job_records(ctx, since: int):
    return [(job.description, [stage.name for stage in job.stages],
             job.batches_processed, job.records_read)
            for job in ctx.metrics.jobs[since:]]


def transcript(ctx):
    entries = []
    for label, ds in _pipelines(ctx):
        for action in ("collect", "count", "take"):
            before = len(ctx.metrics.jobs)
            result = ds.take(7) if action == "take" else getattr(ds, action)()
            entries.append((label, action, ds.name, result,
                            _job_records(ctx, before)))
    return entries


def _engine(backend: str, rules: str) -> EngineContext:
    options = {"num_workers": 2, "default_parallelism": 3, "seed": 4,
               "batch_size": 5, "executor_backend": backend,
               "broadcast_threshold_bytes": 0}
    if rules == "off":
        options["optimizer_rules"] = ()
    return EngineContext(EngineConfig(**options))


def digest(entries) -> str:
    return hashlib.sha256(repr(entries).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("rules", sorted(PINNED))
@pytest.mark.parametrize("backend", BACKENDS)
def test_narrow_operators_reproduce_the_recorded_transcript(backend, rules):
    with _engine(backend, rules) as ctx:
        entries = transcript(ctx)
    assert digest(entries) == PINNED[rules]


def test_names_are_the_operator_names():
    with _engine("thread", "default") as ctx:
        names = {label: ds.name for label, ds in _pipelines(ctx)}
    assert names["rows:map"] == names["scan:map"] == "map"
    assert names["rows:filter"] == "filter"
    assert names["rows:flat_map"] == "flat_map"
    assert names["scan:project"] == names["scan:project>project"] == "project"
    assert (names["join"], names["left_outer_join"]) == ("join",
                                                        "left_outer_join")


if __name__ == "__main__":  # print the digests of the current code
    for setting in sorted(PINNED):
        with _engine("thread", setting) as context:
            print(setting, digest(transcript(context)))
