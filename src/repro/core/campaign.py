"""Campaigns: the executable object produced by the compiler, and their runs.

A :class:`Campaign` bundles the three models (declarative, procedural,
deployment).  A :class:`CampaignRunner` executes the deployment model on the
dataflow engine — in batch or micro-batch streaming mode — and produces a
:class:`CampaignRun`: the measured indicator values, the evaluation of every
declared objective, the execution profile, the what-if deployment estimates
and the post-execution compliance verdict.  Campaign runs are the unit of
comparison of the TOREADOR Labs.
"""

from __future__ import annotations

import itertools
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..data.generators import generator_for_scenario
from ..data.sources import CSVFileSource, GeneratorStreamSource, ReplayStreamSource
from ..engine.context import EngineContext
from ..engine.dataset import Dataset
from ..engine.simulator import DeploymentSimulator
from ..errors import CompilationError, ServiceExecutionError
from ..governance.audit import AuditLog
from ..governance.compliance import CampaignDescription, ComplianceChecker
from ..governance.policies import BUILTIN_POLICIES, DataProtectionPolicy
from ..services.base import ServiceContext, ServiceResult
from .catalog import ServiceCatalog, build_default_catalog
from .declarative import DeclarativeModel
from .deployment import DeploymentModel
from .dsl import spec_to_dict
from .indicators import IndicatorEvaluation, IndicatorEvaluator
from .procedural import ProceduralModel, ServiceStep


@dataclass
class Campaign:
    """A compiled Big Data campaign: the three models, ready to execute."""

    declarative: DeclarativeModel
    procedural: ProceduralModel
    deployment: DeploymentModel

    @property
    def name(self) -> str:
        """Campaign name (from the declarative model)."""
        return self.declarative.name

    def option_signature(self) -> Dict[str, str]:
        """The analytics choices embodied by this campaign.

        Maps each goal id to the catalogue service chosen for it — the concise
        label the Labs uses to tell alternative options apart.
        """
        signature = {}
        for step in self.procedural.analytics_steps:
            signature[step.goal_id or step.step_id] = step.service_name
        return signature

    def describe(self) -> str:
        """Human-readable summary of the whole campaign."""
        lines = [f"Campaign: {self.name}",
                 f"  purpose: {self.declarative.purpose}",
                 f"  policy: {self.declarative.policy_name}",
                 f"  goals: {[goal.goal_id for goal in self.declarative.goals]}",
                 "", self.deployment.describe()]
        return "\n".join(lines)


@dataclass
class CampaignRun:
    """The immutable record of one campaign execution."""

    run_id: str
    campaign_name: str
    option_label: str
    option_signature: Dict[str, str]
    started_at: float
    finished_at: float
    indicator_values: Dict[str, float]
    objective_evaluations: List[IndicatorEvaluation]
    objective_summary: Dict[str, float]
    step_metrics: Dict[str, Dict[str, float]]
    artifacts: Dict[str, Dict[str, Any]]
    #: Engine metrics summary plus ``reused_blocks`` (partitions served from
    #: the platform's shared block store) and ``reused_from`` (the run ids
    #: that materialised them) — what the timings of this run stood on.
    execution_profile: Dict[str, Any]
    deployment_estimates: List[Dict[str, float]]
    compliance: Dict[str, Any]
    spec: Dict[str, Any]
    succeeded: bool = True
    error: str = ""

    @property
    def duration_s(self) -> float:
        """Wall-clock duration of the run."""
        return max(0.0, self.finished_at - self.started_at)

    @property
    def satisfied_all_hard_objectives(self) -> bool:
        """True when every hard objective was met."""
        return bool(self.objective_summary.get("hard_objectives_met", 0.0))

    @property
    def reused_blocks(self) -> int:
        """Partitions this run was served from an earlier run's work."""
        return int(self.execution_profile.get("reused_blocks", 0))

    @property
    def weighted_score(self) -> float:
        """Weighted objective score (1.0 = exactly on target everywhere)."""
        return float(self.objective_summary.get("weighted_score", 0.0))

    def indicator(self, metric_key: str, default: Optional[float] = None) -> Optional[float]:
        """Measured value of one indicator metric key."""
        return self.indicator_values.get(metric_key, default)

    def as_dict(self) -> Dict[str, Any]:
        """Serialisable view of the run."""
        return {
            "run_id": self.run_id,
            "campaign": self.campaign_name,
            "option_label": self.option_label,
            "option_signature": dict(self.option_signature),
            "duration_s": self.duration_s,
            "succeeded": self.succeeded,
            "error": self.error,
            "indicator_values": dict(self.indicator_values),
            "objective_summary": dict(self.objective_summary),
            "objectives": [evaluation.as_dict()
                           for evaluation in self.objective_evaluations],
            "execution_profile": dict(self.execution_profile),
            "deployment_estimates": list(self.deployment_estimates),
            "compliance": dict(self.compliance),
        }


class CampaignRunner:
    """Executes compiled campaigns on the dataflow engine."""

    def __init__(self, catalog: Optional[ServiceCatalog] = None,
                 policies: Optional[Dict[str, DataProtectionPolicy]] = None,
                 simulator: Optional[DeploymentSimulator] = None,
                 audit_log: Optional[AuditLog] = None):
        self.catalog = catalog if catalog is not None else build_default_catalog()
        self.policies = dict(policies or BUILTIN_POLICIES)
        self.simulator = simulator or DeploymentSimulator()
        # explicit None check: an empty-but-enabled audit log is falsy via __len__
        self.audit_log = audit_log if audit_log is not None else AuditLog(enabled=False)
        self.evaluator = IndicatorEvaluator()
        self._run_counter = itertools.count(1)

    # -- public API ------------------------------------------------------------------

    def run(self, campaign: Campaign, option_label: str = "",
            actor: str = "platform", engine: Optional[EngineContext] = None) -> CampaignRun:
        """Execute ``campaign`` and return its run record.

        A fresh engine context is created from the deployment model unless an
        existing one is passed (tests use that to inspect engine internals;
        the platform passes one that borrows its shared block store).

        Two datasets per trial are marked as shared materialisation points
        (:meth:`~repro.engine.dataset.Dataset.share`): the ingestion step's
        output and the dataset handed to each analytics step.  Every option
        that shapes them — generator seed and volume, masked fields and
        salt, the split seed and fraction — sits in a closure or a source
        the fingerprint covers, so a trial that changes one misses by
        construction, and a trial that changes only the model does not.
        """
        run_id = f"run-{next(self._run_counter)}-{uuid.uuid4().hex[:8]}"
        started = time.time()
        owns_engine = engine is None
        engine = engine or EngineContext(campaign.deployment.engine_config,
                                         name=f"campaign:{campaign.name}")
        self.audit_log.record(actor, "campaign.start", campaign.name,
                              run_id=run_id, option=option_label or "default")
        try:
            if campaign.deployment.streaming:
                results, stream_metrics = self._run_streaming(campaign, engine,
                                                              run_id)
            else:
                results = self._run_batch(campaign, engine, run_id)
                stream_metrics = {}
            run = self._build_run(campaign, engine, results, stream_metrics,
                                  run_id, option_label, started)
            for (fingerprint, origin), blocks in sorted(
                    self._reuse_of(engine, run_id).items()):
                self.audit_log.record(actor, "materialisation.reuse",
                                      fingerprint, run_id=run_id,
                                      derived_from=origin, blocks=blocks)
            self.audit_log.record(actor, "campaign.finish", campaign.name,
                                  run_id=run_id, succeeded=True)
            return run
        except Exception as error:
            self.audit_log.record(actor, "campaign.error", campaign.name,
                                  run_id=run_id, error=str(error))
            raise
        finally:
            if owns_engine:
                engine.stop()

    # -- batch execution ----------------------------------------------------------------

    def _run_batch(self, campaign: Campaign, engine: EngineContext,
                   run_id: str) -> Dict[str, ServiceResult]:
        results: Dict[str, ServiceResult] = {}
        for step in campaign.procedural.topological_order():
            results[step.step_id] = self._execute_step(campaign, engine, step,
                                                       results, run_id)
        return results

    def _execute_step(self, campaign: Campaign, engine: EngineContext,
                      step: ServiceStep, results: Dict[str, ServiceResult],
                      run_id: str) -> ServiceResult:
        dataset, schema = self._input_of(step, results)
        if dataset is not None and step.area == "analytics":
            dataset.share(origin=run_id)
        service = self.catalog.instantiate(step.service_name, **step.params)
        context = ServiceContext(engine=engine, dataset=dataset, schema=schema,
                                 params=dict(step.params), upstream=dict(results),
                                 seed=campaign.deployment.engine_config.seed)
        self.audit_log.record("platform", "step.execute", step.step_id,
                              service=step.service_name, campaign=campaign.name)
        try:
            result = service.execute(context)
        except Exception as error:
            raise ServiceExecutionError(
                f"step {step.step_id!r} ({step.service_name}) failed: {error}"
            ) from error
        if result.dataset is not None and step.area == "ingestion":
            result.dataset.share(origin=run_id)
        return result

    @staticmethod
    def _reuse_of(engine: EngineContext, run_id: str) -> Dict[tuple, int]:
        """``(fingerprint, publishing run) -> blocks`` this run was served
        from the shared store, its own publications excluded."""
        return {key: blocks for key, blocks in engine.shared_reuse.items()
                if key[1] != run_id}

    @staticmethod
    def _input_of(step: ServiceStep, results: Dict[str, ServiceResult]):
        """The dataset/schema handed to a step: from its first dataset-bearing dependency."""
        for dependency in step.depends_on:
            result = results.get(dependency)
            if result is not None and result.dataset is not None:
                return result.dataset, result.schema
        return None, None

    # -- streaming execution -----------------------------------------------------------------

    def _stream_source(self, campaign: Campaign):
        """Build the micro-batch stream source declared by the campaign."""
        declaration = campaign.declarative.source
        batch_size = campaign.deployment.batch_size
        if declaration.kind == "scenario":
            generator = generator_for_scenario(declaration.scenario, seed=7)
            return GeneratorStreamSource(generator, batch_size,
                                         campaign.deployment.max_batches)
        if declaration.kind == "csv":
            records = list(CSVFileSource(declaration.csv_path).read_all())
            return ReplayStreamSource(records, batch_size)
        return ReplayStreamSource(list(declaration.records or ()), batch_size)

    def _run_streaming(self, campaign: Campaign, engine: EngineContext,
                       run_id: str):
        """Run the non-ingestion pipeline once per micro-batch."""
        source = self._stream_source(campaign)
        steps = [step for step in campaign.procedural.topological_order()
                 if step.area != "ingestion"]
        ingest_steps = [step for step in campaign.procedural.topological_order()
                        if step.area == "ingestion"]
        ingest_id = ingest_steps[0].step_id if ingest_steps else "ingest"
        max_batches = campaign.deployment.max_batches or 10

        results: Dict[str, ServiceResult] = {}
        latencies: List[float] = []
        total_records = 0
        batches_processed = 0
        for batch_index in range(max_batches):
            records = source.next_batch(batch_index)
            if records is None:
                break
            batches_processed += 1
            total_records += len(records)
            batch_started = time.perf_counter()
            dataset = engine.parallelize(records, campaign.deployment.num_partitions)
            results = {ingest_id: ServiceResult(
                dataset=dataset, schema=None,
                metrics={"ingested_records": float(len(records))})}
            for step in steps:
                results[step.step_id] = self._execute_step(campaign, engine, step,
                                                           results, run_id)
            latencies.append(time.perf_counter() - batch_started)

        if batches_processed == 0:
            raise CompilationError(
                f"streaming campaign {campaign.name!r} produced no batches")
        total_time = sum(latencies)
        stream_metrics = {
            "num_batches": float(batches_processed),
            "total_input_records": float(total_records),
            "mean_latency_s": total_time / batches_processed,
            "max_latency_s": max(latencies),
            "throughput_records_per_s": (total_records / total_time
                                         if total_time > 0 else 0.0),
        }
        return results, stream_metrics

    # -- run assembly ------------------------------------------------------------------------------

    def _build_run(self, campaign: Campaign, engine: EngineContext,
                   results: Dict[str, ServiceResult], stream_metrics: Dict[str, float],
                   run_id: str, option_label: str, started: float) -> CampaignRun:
        step_metrics: Dict[str, Dict[str, float]] = {}
        artifacts: Dict[str, Dict[str, Any]] = {}
        indicator_values: Dict[str, float] = {}

        for step in campaign.procedural.topological_order():
            result = results.get(step.step_id)
            if result is None:
                continue
            step_metrics[step.step_id] = dict(result.metrics)
            artifacts[step.step_id] = {
                key: value for key, value in result.artifacts.items()
                if not isinstance(value, Dataset)}
            for key, value in result.metrics.items():
                indicator_values[key] = float(value)
                indicator_values[f"{step.step_id}.{key}"] = float(value)

        # engine execution profile
        profile = engine.metrics.summary()
        execution_profile: Dict[str, Any] = dict(profile)
        reuse = self._reuse_of(engine, run_id)
        execution_profile["reused_blocks"] = sum(reuse.values())
        execution_profile["reused_from"] = sorted(
            {origin for _, origin in reuse if origin})
        indicator_values["execution_time_s"] = profile.get("wall_clock_s", 0.0)
        indicator_values["total_task_time_s"] = profile.get("total_task_time_s", 0.0)
        indicator_values["shuffle_bytes"] = profile.get("shuffle_bytes", 0.0)
        indicator_values["num_tasks"] = profile.get("num_tasks", 0.0)
        ingest_metrics = step_metrics.get("ingest", {})
        indicator_values.setdefault("records_processed",
                                    ingest_metrics.get("ingested_records", 0.0))
        indicator_values.update(stream_metrics)

        # what-if deployment estimates (the declared profile plus the built-ins)
        profile_names = sorted({campaign.deployment.cluster_profile_name,
                                "local", "small-4", "large-16"})
        estimates = self.simulator.compare(engine.metrics.jobs, profile_names)
        deployment_estimates = [estimate.as_dict() for estimate in estimates]
        chosen = next((estimate for estimate in estimates
                       if estimate.profile.name ==
                       campaign.deployment.cluster_profile_name), None)
        if chosen is not None:
            indicator_values["estimated_cost_usd"] = chosen.estimated_cost_usd
            indicator_values["estimated_wall_clock_s"] = chosen.estimated_wall_clock_s

        # post-execution compliance verification
        compliance = self._post_compliance(campaign, indicator_values)
        indicator_values["policy_violations"] = float(
            len([violation for violation in compliance.get("violations", [])
                 if violation.get("severity") == "blocking"]))

        evaluations = self.evaluator.evaluate(campaign.declarative.all_objectives,
                                              indicator_values)
        summary = self.evaluator.summary(evaluations)
        return CampaignRun(
            run_id=run_id,
            campaign_name=campaign.name,
            option_label=option_label or "default",
            option_signature=campaign.option_signature(),
            started_at=started,
            finished_at=time.time(),
            indicator_values=indicator_values,
            objective_evaluations=evaluations,
            objective_summary=summary,
            step_metrics=step_metrics,
            artifacts=artifacts,
            execution_profile=execution_profile,
            deployment_estimates=deployment_estimates,
            compliance=compliance,
            spec=spec_to_dict(campaign.declarative),
        )

    def _post_compliance(self, campaign: Campaign,
                         indicator_values: Dict[str, float]) -> Dict[str, Any]:
        """Re-check the policy using measured privacy metrics."""
        policy = self.policies.get(campaign.declarative.policy_name)
        if policy is None:
            return {"policy": campaign.declarative.policy_name, "compliant": True,
                    "violations": [], "required_transforms": []}
        schema = None
        if campaign.declarative.source.scenario is not None:
            from ..data.schemas import BUILTIN_SCHEMAS
            schema = BUILTIN_SCHEMAS.get(campaign.declarative.source.scenario)
        capabilities = campaign.procedural.capabilities(self.catalog)
        achieved_k = indicator_values.get("achieved_k")
        description = CampaignDescription(
            schema=schema,
            purpose=campaign.declarative.purpose,
            deployment_region=campaign.deployment.region,
            pipeline_capabilities=capabilities,
            k_anonymity=int(achieved_k) if achieved_k else None,
            masks_identifiers="privacy:masking" in capabilities,
            exports_raw_records=any(step.service_name == "display_table"
                                    for step in campaign.procedural.steps))
        report = ComplianceChecker(policy).check(description)
        return report.as_dict()
