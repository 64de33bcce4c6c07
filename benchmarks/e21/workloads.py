"""The six workloads: what each builds in set-up and runs per repetition.

Every workload is a closed loop with one client.  ``build`` makes the
inputs and the reference results from the seed; ``repetition`` goes from
those inputs to a verified result and always includes engine-context
construction and ``stop()``.  Engine worker counts are pinned to
:data:`WORKERS` — the reference host has two cores.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import itertools
import json
import math
import operator
import os
import random
import shutil
import tempfile
import traceback
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.baselines.manual_pipeline import (expert_basket_pipeline,
                                             expert_churn_pipeline)
from repro.config import EngineConfig
from repro.core.compiler import CampaignCompiler
from repro.data.schemas import Field, Schema
from repro.data.sources import InMemorySource
from repro.engine.context import EngineContext
from repro.labs.catalog import build_default_challenges
from repro.labs.challenge import Challenge, DesignOption
from repro.labs.session import LabSession
from repro.platform.api import BDAaaSPlatform

from . import inputs

WORKERS = 2
PARTITIONS = 8
EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")
#: Recorded indicator values of every trial: a regression oracle, not an
#: independent one (``run.py --record-expected`` rewrites it).
LABS_GOLDEN = os.path.join(EXPECTED_DIR, "labs_scout.json")

#: Full-size inputs (``scale`` 1.0).
NARROW_RECORDS = 200_000
WIDE_RECORDS = 200_000
DURABLE_PAIRS = 200_000
COMPILE_PASSES = 100
MULTI_GOAL_SIZES = (1, 4, 16, 64)
#: The warm-up repetition of set-up runs on inputs this much smaller.
WARMUP_SCALE = 0.1

#: E7's parity tolerances against the hand-coded expert pipelines.
CHURN_ACCURACY_TOLERANCE = 0.08
BASKET_RULES_SHARE = 0.8

WIDE_SCHEMA = Schema(name="wide_events", fields=tuple(
    Field(name, "str" if name in inputs.STR_FIELDS else "int")
    for name in inputs.FIELDS))


class Probe:
    """Counts operations and their failures; opens spans when traced."""

    def __init__(self, tracer: Any = None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def span(self, name: str):
        """A benchmark-owned span (no-op when the pass is untraced)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def extra(self, name: str, value: float) -> None:
        """Hand the traced pass a value only the workload can observe."""
        if self.tracer is not None:
            self.tracer.extra(name, value)

    def tally(self, attempted: int, failed: int, what: str = "") -> None:
        """Count operations a workload checked in bulk."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    @contextlib.contextmanager
    def operation(self, what: str, span: bool = True
                  ) -> Iterator[Callable[[bool, str], None]]:
        """One operation: fails if it raises or any ``expect`` is false."""
        mismatches: List[str] = []

        def expect(ok: bool, detail: str = "") -> None:
            if not ok:
                mismatches.append(detail or "mismatch")

        self.attempted += 1
        try:
            with self.span(what) if span else contextlib.nullcontext():
                yield expect
        except Exception:  # noqa: BLE001 - a raising operation is a failed one
            mismatches.append(traceback.format_exc(limit=4))
        if mismatches:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(mismatches)[:600]}")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named workload of the benchmark."""

    name: str
    why: str
    #: ``(seed, scale, warmup) -> state``: inputs and reference results.
    build: Callable[[int, float, bool], Any]
    #: ``(state, probe)``: one repetition, inputs to verified result.
    repetition: Callable[[Any, Probe], None]
    #: Fewest measured repetitions, however short ``--seconds`` is.
    min_repetitions: int = 3


def setup(workload: Workload, seed: int, scale: float) -> Any:
    """Inputs, references and one warm-up repetition on smaller inputs."""
    warm = workload.build(seed, scale * WARMUP_SCALE, True)
    probe = Probe()
    workload.repetition(warm, probe)
    if probe.failed:
        raise RuntimeError(f"warm-up of {workload.name} failed: {probe.failures}")
    del warm
    return workload.build(seed, scale, False)


def _scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(count * scale))


# ---------------------------------------------------------------------------
# labs_scout
# ---------------------------------------------------------------------------


def _pinned(challenge: Challenge, seed: int, scale: float) -> Challenge:
    """The challenge with the seed, two workers and scaled volumes applied.

    Options that size the deployment or the volume themselves are clamped
    the same way, so no trial runs more workers than the host has cores.
    """
    def pin(spec: Dict[str, Any], base: bool) -> Dict[str, Any]:
        spec = copy.deepcopy(spec)
        deployment = spec.get("deployment", {})
        if base:
            deployment.update(seed=seed, num_workers=WORKERS)
        elif "num_workers" in deployment:
            deployment["num_workers"] = min(WORKERS, deployment["num_workers"])
        if deployment:
            spec["deployment"] = deployment
        source = spec.get("source", {})
        if "num_records" in source:
            source["num_records"] = _scaled(source["num_records"], scale, 200)
        return spec

    dimensions = tuple(
        dataclasses.replace(dimension, options=tuple(
            DesignOption.from_patch(option.key, option.title,
                                    pin(option.patch, False),
                                    option.description, option.hint)
            for option in dimension.options))
        for dimension in challenge.dimensions)
    return dataclasses.replace(
        challenge, base_spec=tuple(pin(challenge.spec, True).items()),
        dimensions=dimensions)


def _golden_indicators(run: Any) -> Dict[str, float]:
    """The run's indicators that do not depend on the clock or the host."""
    return {key: value for key, value in run.indicator_values.items()
            if "." not in key and not key.endswith(("_s", "_usd", "_per_s"))
            and key not in ("shuffle_bytes", "num_tasks")}


def _build_labs(seed: int, scale: float, warmup: bool) -> Dict[str, Any]:
    rng = random.Random(seed)
    plan = []
    for challenge in build_default_challenges().challenges:
        challenge = _pinned(challenge, seed, scale)
        trials = [{}] if warmup else [{dimension.key: option.key}
                                       for dimension in challenge.dimensions
                                       for option in dimension.options]
        rng.shuffle(trials)
        # each trial with the record count its run must report (streaming
        # trials count per micro-batch instead, so they carry None)
        sources = [challenge.build_spec(trial)["source"] for trial in trials]
        plan.append((challenge, [
            (trial, None if source.get("streaming") else source["num_records"])
            for trial, source in zip(trials, sources)]))
    rng.shuffle(plan)

    state: Dict[str, Any] = {"plan": plan, "golden": None, "observed": {}}
    if warmup:
        return state
    by_key = {challenge.key: challenge for challenge, _ in plan}
    churn_spec = by_key["churn-retention"].build_spec({"model": "tree"})
    basket_spec = by_key["market-basket"].build_spec({})
    state["expert_accuracy"] = expert_churn_pipeline(
        num_records=churn_spec["source"]["num_records"],
        num_partitions=churn_spec["deployment"]["num_partitions"]).metrics["accuracy"]
    state["expert_rules"] = expert_basket_pipeline(
        num_records=basket_spec["source"]["num_records"],
        num_partitions=basket_spec["deployment"]["num_partitions"]).metrics["num_rules"]
    if scale == 1.0:
        # the scenario generators and the services seed themselves, so the
        # recorded indicator values hold for every benchmark seed
        with open(LABS_GOLDEN, encoding="utf-8") as handle:
            state["golden"] = json.load(handle)
    return state


def _check_trial(state: Dict[str, Any], challenge: Challenge,
                 selections: Dict[str, str], num_records: Any, trial: Any,
                 expect: Callable[[bool, str], None]) -> None:
    expect(trial.succeeded, f"{trial.label}: {trial.error}")
    if not trial.succeeded:
        return
    run = trial.run
    if num_records is not None:
        expect(run.indicator("records_processed") == num_records,
               f"{trial.label}: records_processed")
    if "expert_accuracy" in state:
        if challenge.key == "churn-retention" and selections == {"model": "tree"}:
            expect(abs(run.indicator("accuracy") - state["expert_accuracy"])
                   < CHURN_ACCURACY_TOLERANCE, "churn accuracy vs expert")
        if challenge.key == "market-basket" and selections == {"thresholds": "balanced"}:
            expect(run.indicator("num_rules")
                   >= BASKET_RULES_SHARE * state["expert_rules"],
                   "basket rules vs expert")
    key = f"{challenge.key}:{trial.label}"
    observed = _golden_indicators(run)
    state["observed"][key] = observed
    if state["golden"] is not None:
        golden = state["golden"].get(key, {})
        expect(set(golden) == set(observed)
               and all(math.isclose(observed[name], value, rel_tol=1e-6, abs_tol=1e-9)
                       for name, value in golden.items()),
               f"{key}: indicators differ from the recorded golden values")


def _run_labs(state: Dict[str, Any], probe: Probe) -> None:
    platform = BDAaaSPlatform()
    user = platform.register_user("scout", role="analyst")
    for challenge, trials in state["plan"]:
        with probe.span(f"challenge.{challenge.key}"):
            session = LabSession(platform, user, challenge)
            for selections, num_records in trials:
                with probe.operation("trial", span=False) as expect:
                    trial = session.run_option(selections)
                    _check_trial(state, challenge, selections, num_records,
                                 trial, expect)
            if len(trials) > 1:
                with probe.operation("compare", span=False) as expect:
                    report = session.compare()
                    expect(len(report.run_labels) == len(trials), "compare rows")
                    expect(session.best_trial().succeeded, "best trial")


# ---------------------------------------------------------------------------
# compile_sweep
# ---------------------------------------------------------------------------


def _build_compile(seed: int, scale: float, warmup: bool) -> Dict[str, Any]:
    with open(os.path.join(EXPECTED_DIR, "compile_defaults.json"),
              encoding="utf-8") as handle:
        defaults = json.load(handle)
    specs = []
    for challenge in build_default_challenges().challenges:
        challenge = _pinned(challenge, seed, 1.0)
        keys = [dimension.option_keys for dimension in challenge.dimensions]
        for combination in itertools.product(*keys):
            selections = dict(zip(challenge.dimension_keys, combination))
            is_default = all(choice == options[0]
                             for choice, options in zip(combination, keys))
            specs.append((challenge.build_spec(selections),
                          defaults[challenge.key] if is_default else None))
    for position, size in enumerate(MULTI_GOAL_SIZES):
        spec = inputs.multi_goal_spec(size, seed)
        if position % 2:
            spec["policy"] = "open_data"  # the no-protection side of the invariant
        specs.append((spec, None))
    random.Random(seed).shuffle(specs)
    cases = [(json.dumps(spec), len(spec["goals"]),
              spec["policy"] != "open_data" or bool(spec.get("privacy")), expected)
             for spec, expected in specs]
    return {"cases": cases, "passes": _scaled(COMPILE_PASSES, scale)}


def _run_compile(state: Dict[str, Any], probe: Probe) -> None:
    compiler = CampaignCompiler()
    failed = 0
    for _ in range(state["passes"]):
        for text, goals, protected, expected in state["cases"]:
            try:
                campaign = compiler.compile(text)
                description = campaign.describe()
                steps = campaign.procedural.steps
                services = [step.service_name for step in steps]
                ok = (steps[0].area == "ingestion"
                      and ("prepare_anonymize" in services) == protected
                      and len(campaign.procedural.analytics_steps) == goals
                      and campaign.name in description
                      and (expected is None or expected ==
                           [[step.step_id, step.service_name] for step in steps]))
            except Exception:  # noqa: BLE001 - a compile that raises has failed
                ok = False
            failed += not ok
    probe.tally(state["passes"] * len(state["cases"]), failed, "compile")


# ---------------------------------------------------------------------------
# engine_narrow / engine_wide / engine_spill
# ---------------------------------------------------------------------------


def _build_narrow(seed: int, scale: float, warmup: bool) -> Dict[str, Any]:
    records = inputs.wide_records(seed, _scaled(NARROW_RECORDS, scale, 2_000))
    return {"records": records, "expected": inputs.narrow_reference(records),
            "config": EngineConfig(num_workers=WORKERS,
                                   default_parallelism=PARTITIONS, seed=seed)}


def _close(left: Dict[str, float], right: Dict[str, float]) -> bool:
    return all(math.isclose(left[key], value, rel_tol=1e-9, abs_tol=1e-9)
               for key, value in right.items())


def _run_narrow(state: Dict[str, Any], probe: Probe) -> None:
    expected = state["expected"]
    with EngineContext(state["config"]) as ctx:
        source = InMemorySource("wide_events", state["records"], WIDE_SCHEMA)
        events = ctx.from_source(source, PARTITIONS)
        with probe.operation("op.project_count") as expect:
            expect(events.project(["url", "latency"]).count()
                   == expected["project_count"])
        with probe.operation("op.udf_chain") as expect:
            expect(events.map(inputs.user_latency)
                   .filter(lambda pair: pair[1] > inputs.LATENCY_CUT)
                   .map(lambda pair: pair[0] * 1000 + pair[1]).collect()
                   == expected["udf_chain"])
        latencies = events.map(operator.itemgetter("latency"))
        with probe.operation("op.stats") as expect:
            expect(_close(latencies.stats(), expected["stats"]))
        with probe.operation("op.cached_count") as expect:
            served = events.filter(lambda record: record["status"] == 200).cache()
            for _ in range(3):
                expect(served.count() == expected["cached_count"])
            served.unpersist()
        with probe.operation("op.flat_map") as expect:
            expect(events.flat_map(lambda record: record["url"].split("/")).count()
                   == expected["flat_map"])
        with probe.operation("op.histogram") as expect:
            edges, counts = latencies.histogram(inputs.HISTOGRAM_BUCKETS)
            expect(counts == expected["histogram"][1] and all(
                math.isclose(edge, reference) for edge, reference
                in zip(edges, expected["histogram"][0])))


def _build_wide(seed: int, scale: float, warmup: bool,
                **overrides: Any) -> Dict[str, Any]:
    records = inputs.wide_records(seed, _scaled(WIDE_RECORDS, scale, 2_000))
    dim, side = inputs.join_sides(seed, records)
    return {"records": records, "dim": dim, "side": side,
            "expected": inputs.wide_reference(records, dim, side),
            "config": EngineConfig(num_workers=WORKERS,
                                   default_parallelism=PARTITIONS, seed=seed,
                                   broadcast_threshold_bytes=256 * 1024,
                                   **overrides)}


def _build_spill(seed: int, scale: float, warmup: bool) -> Dict[str, Any]:
    return _build_wide(seed, scale, warmup,
                       shuffle_memory_bytes=max(64 * 1024, int(2 * 1024 * 1024 * scale)),
                       spill_codec="auto")


def _run_wide(state: Dict[str, Any], probe: Probe) -> None:
    expected = state["expected"]
    with EngineContext(state["config"]) as ctx:
        source = InMemorySource("wide_events", state["records"], WIDE_SCHEMA)
        pairs = ctx.from_source(source, PARTITIONS).map(inputs.user_latency)
        events = ctx.from_source(source, PARTITIONS)

        def joined(table: List[Tuple[int, int]]) -> Tuple[int, int]:
            products = pairs.join(ctx.parallelize(table, 2)).map(
                lambda item: item[1][0] * item[1][1]).stats()
            return products["count"], products["sum"]

        with probe.operation("op.join_broadcast") as expect:
            expect(joined(state["dim"]) == expected["join_broadcast"])
        with probe.operation("op.join_shuffle") as expect:
            expect(joined(state["side"]) == expected["join_shuffle"])
        with probe.operation("op.group") as expect:
            expect(dict(pairs.group_by_key().map_values(len).collect())
                   == expected["group"])
        with probe.operation("op.sort") as expect:
            expect(events.sort_by(inputs.latency_then_ts)
                   .take(inputs.SORT_TAKE) == expected["sort"])
        with probe.operation("op.distinct") as expect:
            expect(events.map(lambda record: (record["ip"], record["method"]))
                   .distinct().count() == expected["distinct"])
        with probe.operation("op.aggregate") as expect:
            expect(dict(pairs.reduce_by_key(operator.add).collect())
                   == expected["aggregate"])


# ---------------------------------------------------------------------------
# engine_durable
# ---------------------------------------------------------------------------


def _build_durable(seed: int, scale: float, warmup: bool) -> Dict[str, Any]:
    pairs = inputs.durable_pairs(seed, _scaled(DURABLE_PAIRS, scale, 2_000))
    return {"pairs": pairs, "expected": inputs.durable_reference(pairs),
            "seed": seed, "backend": "process"}


def durable_program(ctx: EngineContext, pairs: List[Tuple[int, int]]
                    ) -> List[Tuple[int, int]]:
    """Burn map, then eight reduce/rekey rounds — eight settled shuffles."""
    dataset = ctx.parallelize(pairs, PARTITIONS).map(inputs.burn)
    for _ in range(inputs.DURABLE_ROUNDS):
        dataset = dataset.reduce_by_key(operator.add, 4).map(inputs.rekey)
    return sorted(dataset.collect())


def _run_durable(state: Dict[str, Any], probe: Probe) -> None:
    root = tempfile.mkdtemp(prefix="e21-durable-")
    try:
        for phase, recover in (("durable.cold", None), ("durable.resume", root)):
            with probe.operation(phase) as expect:
                config = EngineConfig(
                    num_workers=WORKERS, default_parallelism=PARTITIONS,
                    seed=state["seed"], executor_backend=state["backend"],
                    shuffle_transport="tcp", checkpoint_dir=root,
                    recover_from=recover)
                with EngineContext(config) as ctx:
                    result = durable_program(ctx, state["pairs"])
                    summary = ctx.metrics.summary()
                expect(result == state["expected"], "result differs")
                if recover:
                    expect(summary["stages_recovered"] > 0, "nothing recovered")
                else:
                    expect(summary["journal_bytes"] > 0, "nothing journaled")
                    probe.extra("journal_final_bytes", os.path.getsize(
                        os.path.join(root, "journal.json")))
    finally:
        shutil.rmtree(root, ignore_errors=True)


WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Workload("labs_scout",
             "the paper's own traffic: a trainee sweeps every option of the five "
             "challenges through the platform; driver-side services and governance "
             "dominate, so engine-only changes should barely move it",
             _build_labs, _run_labs, min_repetitions=2),
    Workload("compile_sweep",
             "64 specs x100 through parse, both compilers and describe() with no "
             "engine at all: the only place compiler and config re-plumbing shows",
             _build_compile, _run_compile),
    Workload("engine_narrow",
             "400k records through scans and narrow kernels with no shuffle: "
             "exercises batch/columnar paths, bypasses every shuffle optimisation",
             _build_narrow, _run_narrow),
    Workload("engine_wide",
             "joins, group, sort, distinct, reduce over a Zipf-skewed key with "
             "resident shuffle buckets: shuffle write/read and adaptive re-planning",
             _build_wide, _run_wide),
    Workload("engine_spill",
             "engine_wide's pipelines under a 2 MiB shuffle cap: the same shuffle "
             "layer as disk frames and merge runs, so in-memory gains cannot hide "
             "out-of-core costs",
             _build_spill, _run_wide),
    Workload("engine_durable",
             "process backend x2 over TCP with a journal, eight chained shuffles, "
             "then resume: the only workload paying fork, pickling, sockets, fsyncs",
             _build_durable, _run_durable),
)}
