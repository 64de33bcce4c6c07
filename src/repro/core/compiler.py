"""The model-driven compiler chain.

Two compilers, composed by :class:`CampaignCompiler`:

* :class:`DeclarativeToProcedural` matches declarative goals against the
  service catalogue and produces the abstract service composition.  It is
  also where the regulatory barrier becomes concrete: the data-protection
  policy named by the campaign is consulted and, when it (or an explicit
  privacy requirement) demands protection, an anonymisation step is inserted
  into the composition.
* :class:`ProceduralToDeployment` binds the composition to the execution
  platform: partitioning, engine configuration, cluster profile, batch or
  streaming mode.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..config import (KINDS, KNOWN_OPTIMIZER_RULES, SPEC_KNOBS, EngineConfig,
                      Kind, accepts)
from ..data.schemas import BUILTIN_SCHEMAS, Schema
from ..errors import CompilationError, CompositionError, ConfigurationError
from ..governance.compliance import CampaignDescription, ComplianceChecker
from ..governance.policies import BUILTIN_POLICIES, DataProtectionPolicy
from ..services.base import ServiceMetadata
from .campaign import Campaign
from .catalog import ServiceCatalog, build_default_catalog
from .declarative import DeclarativeModel, Goal
from .deployment import DeploymentModel
from .dsl import SpecLike, parse_spec
from .procedural import ProceduralModel, ServiceStep

#: Tasks that need a train/test split preparation step.
_SUPERVISED_TASKS = ("classification", "regression")

#: Deployment preferences the compilers interpret themselves, by kind; every
#: other preference key sets one engine knob (``repro.config.SPEC_KNOBS``).
_DEPLOYMENT_KEYS: Dict[str, Kind] = {
    "num_partitions": KINDS["int"],
    "num_workers": KINDS["int"],
    "cluster_profile": KINDS["str"],
    "max_batches": KINDS["int"],
    "export_table": KINDS["bool"],
    "export_rows": KINDS["int"],
    "optimizer": KINDS["bool"],
    "optimizer_rules": KINDS["Tuple[str, ...]"],
    "map_side_combine": KINDS["bool"],
}


def _engine_overrides(preferences: Dict[str, Any]) -> Dict[str, Any]:
    """Check every deployment preference; return the engine knobs set.

    An unknown key or a value of the wrong kind is a
    :class:`ConfigurationError` naming ``deployment.<key>``; values are
    range-checked by ``EngineConfig`` itself.  A number given for a float
    knob becomes a float.
    """
    overrides: Dict[str, Any] = {}
    for key, value in preferences.items():
        knob = SPEC_KNOBS.get(key)
        kind = knob.kind if knob is not None else _DEPLOYMENT_KEYS.get(key)
        if kind is None:
            raise ConfigurationError(
                f"deployment.{key} is not a deployment preference; known: "
                f"{sorted([*SPEC_KNOBS, *_DEPLOYMENT_KEYS])}")
        if not accepts(kind, value):
            names = " or ".join(type_.__name__ for type_ in kind)
            raise ConfigurationError(f"deployment.{key} must be {names}, "
                                     f"got {value!r}")
        if knob is not None:
            overrides[knob.name] = float(value) if float in kind else value
    return overrides


class DeclarativeToProcedural:
    """Compile a declarative model into an abstract service composition."""

    def __init__(self, catalog: Optional[ServiceCatalog] = None,
                 policies: Optional[Dict[str, DataProtectionPolicy]] = None):
        self.catalog = catalog if catalog is not None else build_default_catalog()
        self.policies = dict(policies or BUILTIN_POLICIES)

    # -- public API -----------------------------------------------------------------

    def compile(self, declarative: DeclarativeModel) -> ProceduralModel:
        """Produce the procedural model realising ``declarative``."""
        schema = self._schema_of(declarative)
        policy = self._policy_of(declarative)
        steps: List[ServiceStep] = []

        ingest_step = self._ingestion_step(declarative)
        steps.append(ingest_step)
        last_step_id = ingest_step.step_id

        privacy_step = self._privacy_step(declarative, schema, policy, last_step_id)
        if privacy_step is not None:
            steps.append(privacy_step)
            last_step_id = privacy_step.step_id

        for prep_step in self._preparation_steps(declarative, last_step_id):
            steps.append(prep_step)
            last_step_id = prep_step.step_id

        analytics_step_ids: List[str] = []
        for goal in declarative.goals:
            analytics_step = self._analytics_step(goal, declarative, last_step_id)
            steps.append(analytics_step)
            analytics_step_ids.append(analytics_step.step_id)

        steps.extend(self._display_steps(declarative, policy, analytics_step_ids
                                         or [last_step_id]))
        return ProceduralModel(name=declarative.name, steps=steps)

    # -- helpers: context ---------------------------------------------------------------

    def _schema_of(self, declarative: DeclarativeModel) -> Optional[Schema]:
        if declarative.source.scenario is not None:
            return BUILTIN_SCHEMAS.get(declarative.source.scenario)
        return None

    def _policy_of(self, declarative: DeclarativeModel) -> DataProtectionPolicy:
        if declarative.policy_name not in self.policies:
            raise CompilationError(
                f"campaign {declarative.name!r} references unknown policy "
                f"{declarative.policy_name!r}; known: {sorted(self.policies)}")
        return self.policies[declarative.policy_name]

    # -- helpers: ingestion -----------------------------------------------------------------

    def _ingestion_step(self, declarative: DeclarativeModel) -> ServiceStep:
        source = declarative.source
        if source.kind == "scenario":
            return ServiceStep(
                step_id="ingest", service_name="ingest_scenario", area="ingestion",
                params={"scenario": source.scenario,
                        "num_records": source.num_records},
                rationale=f"declared scenario source {source.scenario!r}")
        if source.kind == "csv":
            return ServiceStep(
                step_id="ingest", service_name="ingest_csv", area="ingestion",
                params={"path": source.csv_path},
                rationale="declared CSV source")
        return ServiceStep(
            step_id="ingest", service_name="ingest_records", area="ingestion",
            params={"records": list(source.records or ())},
            rationale="declared in-memory records")

    # -- helpers: privacy ---------------------------------------------------------------------

    def _privacy_step(self, declarative: DeclarativeModel, schema: Optional[Schema],
                      policy: DataProtectionPolicy,
                      depends_on: str) -> Optional[ServiceStep]:
        privacy = declarative.privacy_params
        requested_k = int(privacy.get("k_anonymity", 0) or 0)
        requested_masking = bool(privacy.get("mask_identifiers", False))

        # what the policy demands for this data
        description = CampaignDescription(
            schema=schema, purpose=declarative.purpose,
            deployment_region=declarative.region,
            pipeline_capabilities=(), k_anonymity=requested_k or None,
            masks_identifiers=requested_masking)
        report = ComplianceChecker(policy).check(description)
        required_k = 0
        required_masking = False
        for transform in report.required_transforms:
            if transform.get("service_capability") == "privacy:k_anonymity":
                required_k = max(required_k, int(transform.get("k", 0)))
            if transform.get("service_capability") == "privacy:masking":
                required_masking = True

        target_k = max(requested_k, required_k)
        need_masking = requested_masking or required_masking
        if target_k <= 1 and not need_masking:
            return None
        params: Dict[str, Any] = {"k": max(1, target_k)}
        if "quasi_identifiers" in privacy:
            params["quasi_identifiers"] = list(privacy["quasi_identifiers"])
        if "mask_fields" in privacy:
            params["mask_fields"] = list(privacy["mask_fields"])
        elif not need_masking:
            params["mask_fields"] = []
        rationale_parts = []
        if required_k or required_masking:
            rationale_parts.append(f"policy {policy.name!r} requires protection")
        if requested_k or requested_masking:
            rationale_parts.append("declared privacy objectives")
        return ServiceStep(
            step_id="protect", service_name="prepare_anonymize", area="preparation",
            params=params, depends_on=(depends_on,),
            rationale="; ".join(rationale_parts))

    # -- helpers: preparation ---------------------------------------------------------------------

    def _preparation_steps(self, declarative: DeclarativeModel,
                           depends_on: str) -> List[ServiceStep]:
        preparation = declarative.preparation_params
        steps: List[ServiceStep] = []
        last = depends_on

        def add(step_id: str, service_name: str, params: Dict[str, Any],
                rationale: str) -> None:
            nonlocal last
            steps.append(ServiceStep(step_id=step_id, service_name=service_name,
                                     area="preparation", params=params,
                                     depends_on=(last,), rationale=rationale))
            last = step_id

        for index, filter_spec in enumerate(preparation.get("filters", ()) or ()):
            add(f"filter-{index}", "prepare_filter",
                {"field": filter_spec.get("field"),
                 "operator": filter_spec.get("operator", "=="),
                 "value": filter_spec.get("value")},
                "declared row filter")
        if preparation.get("deduplicate"):
            add("dedup", "prepare_dedup", {}, "declared deduplication")
        if preparation.get("impute"):
            add("impute", "prepare_impute",
                {"fields": list(preparation["impute"]),
                 "strategy": preparation.get("impute_strategy", "mean")},
                "declared missing-value handling")
        if preparation.get("normalize"):
            add("normalize", "prepare_normalize",
                {"fields": list(preparation["normalize"]),
                 "method": preparation.get("normalize_method", "zscore")},
                "declared normalisation")
        if preparation.get("project"):
            add("project", "prepare_project",
                {"fields": list(preparation["project"])}, "declared projection")

        if any(goal.task in _SUPERVISED_TASKS for goal in declarative.goals):
            add("split", "prepare_split",
                {"test_fraction": float(preparation.get("test_fraction", 0.3))},
                "supervised goals need a train/test split")
        return steps

    # -- helpers: analytics -----------------------------------------------------------------------

    def _analytics_step(self, goal: Goal, declarative: DeclarativeModel,
                        depends_on: str) -> ServiceStep:
        metadata = self._select_analytics_service(goal, declarative)
        params = self._map_goal_params(goal, metadata)
        return ServiceStep(
            step_id=f"analytics-{goal.goal_id}", service_name=metadata.name,
            area="analytics", params=params, depends_on=(depends_on,),
            goal_id=goal.goal_id,
            rationale=f"task {goal.task!r} optimised for {goal.optimize_for}")

    def _select_analytics_service(self, goal: Goal,
                                  declarative: DeclarativeModel) -> ServiceMetadata:
        candidates = self.catalog.find_for_task(goal.task)
        if goal.preferred_model:
            capability = f"model:{goal.preferred_model}"
            candidates = [metadata for metadata in candidates
                          if metadata.has_capability(capability)]
        if declarative.source.streaming:
            candidates = [metadata for metadata in candidates
                          if metadata.supports_streaming]
        if not candidates:
            raise CompositionError(
                f"no catalogue service can realise goal {goal.goal_id!r} "
                f"(task={goal.task!r}, model={goal.preferred_model!r}, "
                f"streaming={declarative.source.streaming})")
        return self._rank_candidates(candidates, goal.optimize_for)[0]

    @staticmethod
    def _rank_candidates(candidates: List[ServiceMetadata],
                         optimize_for: str) -> List[ServiceMetadata]:
        """Order candidate services according to the goal's preference."""
        non_baseline = [metadata for metadata in candidates
                        if not metadata.has_capability("model:baseline")]
        pool = non_baseline or candidates
        if optimize_for in ("cost", "speed"):
            return sorted(pool, key=lambda metadata: (metadata.relative_cost,
                                                      metadata.name))
        if optimize_for == "interpretability":
            return sorted(pool, key=lambda metadata: (
                not metadata.interpretable,
                not metadata.has_capability("output:rules"),
                metadata.relative_cost, metadata.name))
        # quality: prefer the most sophisticated (highest relative cost)
        return sorted(pool, key=lambda metadata: (-metadata.relative_cost,
                                                  metadata.name))

    @staticmethod
    def _map_goal_params(goal: Goal, metadata: ServiceMetadata) -> Dict[str, Any]:
        """Keep only the goal parameters the selected service declares."""
        params: Dict[str, Any] = {}
        for name, value in goal.params.items():
            if metadata.parameter(name) is not None:
                params[name] = value
        return params

    # -- helpers: display ---------------------------------------------------------------------------

    def _display_steps(self, declarative: DeclarativeModel,
                       policy: DataProtectionPolicy,
                       depends_on: List[str]) -> List[ServiceStep]:
        steps = [
            ServiceStep(step_id="report", service_name="display_report", area="display",
                        params={"title": f"Campaign report: {declarative.name}"},
                        depends_on=tuple(depends_on),
                        rationale="every campaign produces a report"),
            ServiceStep(step_id="dashboard", service_name="display_dashboard",
                        area="display", params={}, depends_on=tuple(depends_on),
                        rationale="indicator dashboard for run comparison"),
        ]
        preferences = declarative.deployment_params
        _engine_overrides(preferences)  # named errors before any use
        allow_export = not any(rule.requirement == "forbid_raw_export"
                               for rule in policy.rules)
        if allow_export and preferences.get("export_table", False):
            steps.append(ServiceStep(
                step_id="table", service_name="display_table", area="display",
                params={"max_rows": preferences.get("export_rows", 100)},
                depends_on=tuple(depends_on),
                rationale="requested record-level export"))
        return steps


class ProceduralToDeployment:
    """Bind a procedural model to the execution platform.

    Besides partitioning and engine configuration, the binding emits
    *optimizer hints*: the deployment layer's way of steering the engine's
    logical-plan optimizer (target partitions, map-side combining on/off,
    streaming micro-batch sizing) without touching the composed services.
    Engine knobs a spec may set come from the table in :mod:`repro.config`;
    only knobs the campaign actually sets are overridden, so engine
    defaults stay in one place.
    """

    def compile(self, procedural: ProceduralModel,
                declarative: DeclarativeModel) -> DeploymentModel:
        """Produce the deployment model for ``procedural``."""
        preferences = declarative.deployment_params
        overrides = _engine_overrides(preferences)
        num_records = declarative.source.num_records
        num_partitions = preferences.get("num_partitions", 0) or \
            self._default_partitions(num_records)
        num_workers = preferences.get("num_workers", 0) or min(4, num_partitions)
        engine_config = EngineConfig(
            num_workers=num_workers,
            default_parallelism=num_partitions,
            optimizer_rules=self._optimizer_rules(preferences),
            **overrides,
        )
        max_batches = preferences.get("max_batches")
        if declarative.source.streaming and max_batches is None:
            max_batches = max(1, num_records // declarative.source.batch_size)
        return DeploymentModel(
            procedural=procedural,
            cluster_profile_name=preferences.get("cluster_profile", "local"),
            engine_config=engine_config,
            num_partitions=num_partitions,
            region=declarative.region,
            streaming=declarative.source.streaming,
            batch_size=declarative.source.batch_size,
            max_batches=max_batches,
        )

    @staticmethod
    def _optimizer_rules(preferences: Dict[str, Any]) -> Tuple[str, ...]:
        """Resolve the engine optimizer rules from deployment preferences.

        ``optimizer: false`` disables plan optimization entirely,
        ``optimizer_rules: [...]`` picks an explicit subset, and
        ``map_side_combine: false`` switches off just the combine rewrite
        (e.g. for non-associative aggregation UDFs).
        """
        if not preferences.get("optimizer", True):
            return ()
        rules = preferences.get("optimizer_rules", KNOWN_OPTIMIZER_RULES)
        if not preferences.get("map_side_combine", True):
            rules = [rule for rule in rules if rule != "map_side_combine"]
        return tuple(rules)

    @staticmethod
    def _default_partitions(num_records: int) -> int:
        """Heuristic partition count: one partition per ~2500 records, capped."""
        return max(2, min(16, num_records // 2500 or 2))


class CampaignCompiler:
    """Facade running the whole chain: specification → executable campaign."""

    def __init__(self, catalog: Optional[ServiceCatalog] = None,
                 policies: Optional[Dict[str, DataProtectionPolicy]] = None):
        self.catalog = catalog if catalog is not None else build_default_catalog()
        self.declarative_compiler = DeclarativeToProcedural(self.catalog, policies)
        self.deployment_compiler = ProceduralToDeployment()

    def compile(self, spec: SpecLike) -> Campaign:
        """Compile a specification (dict, JSON or model) into a campaign."""
        declarative = parse_spec(spec)
        procedural = self.declarative_compiler.compile(declarative)
        deployment = self.deployment_compiler.compile(procedural, declarative)
        return Campaign(declarative=declarative, procedural=procedural,
                        deployment=deployment)
