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

from ..config import KNOWN_OPTIMIZER_RULES, EngineConfig
from ..data.schemas import BUILTIN_SCHEMAS, Schema
from ..errors import CompilationError, CompositionError
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
        allow_export = not any(rule.requirement == "forbid_raw_export"
                               for rule in policy.rules)
        if allow_export and declarative.deployment_params.get("export_table", False):
            steps.append(ServiceStep(
                step_id="table", service_name="display_table", area="display",
                params={"max_rows": int(declarative.deployment_params.get(
                    "export_rows", 100))},
                depends_on=tuple(depends_on),
                rationale="requested record-level export"))
        return steps


class ProceduralToDeployment:
    """Bind a procedural model to the execution platform.

    Besides partitioning and engine configuration, the binding emits
    *optimizer hints*: the deployment layer's way of steering the engine's
    logical-plan optimizer (target partitions, map-side combining on/off,
    streaming micro-batch sizing) without touching the composed services.
    """

    def compile(self, procedural: ProceduralModel,
                declarative: DeclarativeModel) -> DeploymentModel:
        """Produce the deployment model for ``procedural``."""
        preferences = declarative.deployment_params
        num_records = declarative.source.num_records
        num_partitions = int(preferences.get("num_partitions", 0)) or \
            self._default_partitions(num_records)
        num_workers = int(preferences.get("num_workers", 0)) or min(4, num_partitions)
        optimizer_rules = self._optimizer_rules(preferences)
        cost_overrides = self._cost_model_overrides(preferences)
        engine_config = EngineConfig(
            num_workers=num_workers,
            default_parallelism=num_partitions,
            max_task_retries=int(preferences.get("max_task_retries", 2)),
            failure_rate=float(preferences.get("failure_rate", 0.0)),
            seed=int(preferences.get("seed", 0)),
            optimizer_rules=optimizer_rules,
            **cost_overrides,
        )
        cluster_profile = str(preferences.get("cluster_profile", "local"))
        max_batches = preferences.get("max_batches")
        if declarative.source.streaming and max_batches is None:
            max_batches = max(1, num_records // declarative.source.batch_size)
        optimizer_hints = {
            "target_partitions": num_partitions,
            "map_side_combine": "map_side_combine" in optimizer_rules,
            "optimizer_rules": list(optimizer_rules),
            "micro_batch_records": (declarative.source.batch_size
                                    if declarative.source.streaming else None),
            "broadcast_threshold_bytes": engine_config.broadcast_threshold_bytes,
            "target_partition_bytes": engine_config.target_partition_bytes,
            "adaptive": engine_config.adaptive_enabled,
            "batch_size": engine_config.batch_size,
            "skew_split_factor": engine_config.skew_split_factor,
            "skew_min_partition_bytes": engine_config.skew_min_partition_bytes,
            "shuffle_memory_bytes": engine_config.shuffle_memory_bytes,
            "executor_backend": engine_config.executor_backend,
            "shuffle_transport": engine_config.shuffle_transport,
            "fetch_max_retries": engine_config.fetch_max_retries,
            "speculation_multiplier": engine_config.speculation_multiplier,
            "blacklist_failure_threshold":
                engine_config.blacklist_failure_threshold,
            "blacklist_cooldown_s": engine_config.blacklist_cooldown_s,
            "checkpoint_dir": engine_config.checkpoint_dir,
            "checkpoint_interval": engine_config.checkpoint_interval,
            "recover_from": engine_config.recover_from,
        }
        return DeploymentModel(
            procedural=procedural,
            cluster_profile_name=cluster_profile,
            engine_config=engine_config,
            num_partitions=num_partitions,
            region=declarative.region,
            streaming=declarative.source.streaming,
            batch_size=declarative.source.batch_size,
            max_batches=int(max_batches) if max_batches is not None else None,
            optimizer_hints=optimizer_hints,
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
        explicit = preferences.get("optimizer_rules")
        rules = [str(rule) for rule in explicit] if explicit is not None \
            else list(KNOWN_OPTIMIZER_RULES)
        if not preferences.get("map_side_combine", True):
            rules = [rule for rule in rules if rule != "map_side_combine"]
        return tuple(rules)

    @staticmethod
    def _cost_model_overrides(preferences: Dict[str, Any]) -> Dict[str, Any]:
        """Cost-model and execution knobs of the engine's physical layer.

        ``broadcast_threshold_bytes`` bounds the build side of a broadcast
        join, ``target_partition_bytes`` turns on post-shuffle partition
        coalescing, ``adaptive`` toggles mid-job re-optimization,
        ``batch_size`` sets the engine's records per batch, and
        ``skew_split_factor`` / ``skew_min_partition_bytes`` steer runtime
        skew splitting of straggler reduce partitions, and
        ``shuffle_memory_bytes`` caps resident shuffle state for
        memory-bounded (spill-to-disk) execution, and ``executor_backend``
        picks the task execution substrate (``"thread"`` or ``"process"``
        multiprocessing workers).  ``shuffle_transport`` selects how reduce
        tasks fetch map output (``"local"`` shared files or ``"tcp"``
        networked fetches), ``fetch_max_retries`` bounds the per-span
        retry/backoff loop of the networked fetch client,
        ``speculation_multiplier`` arms speculative re-execution of
        straggler tasks, and ``blacklist_failure_threshold`` is the number
        of consecutive failures after which a worker stops receiving new
        work (``blacklist_cooldown_s`` rehabilitates it after that many
        seconds).  ``checkpoint_dir`` turns on the durable job journal,
        ``checkpoint_interval`` automates checkpointing every N settled
        shuffle stages, and ``recover_from`` resumes a campaign from a
        previous run's journal.  Values are validated by
        ``EngineConfig.__post_init__``; only knobs the campaign actually
        sets are overridden, so engine defaults stay in one place.
        """
        overrides: Dict[str, Any] = {}
        if "broadcast_threshold_bytes" in preferences:
            overrides["broadcast_threshold_bytes"] = \
                int(preferences["broadcast_threshold_bytes"])
        if "target_partition_bytes" in preferences:
            overrides["target_partition_bytes"] = \
                int(preferences["target_partition_bytes"])
        if "adaptive" in preferences:
            overrides["adaptive_enabled"] = bool(preferences["adaptive"])
        if "batch_size" in preferences:
            overrides["batch_size"] = int(preferences["batch_size"])
        if "skew_split_factor" in preferences:
            overrides["skew_split_factor"] = \
                int(preferences["skew_split_factor"])
        if "skew_min_partition_bytes" in preferences:
            overrides["skew_min_partition_bytes"] = \
                int(preferences["skew_min_partition_bytes"])
        if "shuffle_memory_bytes" in preferences:
            overrides["shuffle_memory_bytes"] = \
                int(preferences["shuffle_memory_bytes"])
        if "executor_backend" in preferences:
            overrides["executor_backend"] = \
                str(preferences["executor_backend"])
        if "shuffle_transport" in preferences:
            overrides["shuffle_transport"] = \
                str(preferences["shuffle_transport"])
        if "fetch_max_retries" in preferences:
            overrides["fetch_max_retries"] = \
                int(preferences["fetch_max_retries"])
        if "speculation_multiplier" in preferences:
            overrides["speculation_multiplier"] = \
                float(preferences["speculation_multiplier"])
        if "blacklist_failure_threshold" in preferences:
            overrides["blacklist_failure_threshold"] = \
                int(preferences["blacklist_failure_threshold"])
        if "blacklist_cooldown_s" in preferences:
            overrides["blacklist_cooldown_s"] = \
                float(preferences["blacklist_cooldown_s"])
        if "checkpoint_dir" in preferences:
            overrides["checkpoint_dir"] = str(preferences["checkpoint_dir"])
        if "checkpoint_interval" in preferences:
            overrides["checkpoint_interval"] = \
                int(preferences["checkpoint_interval"])
        if "recover_from" in preferences:
            overrides["recover_from"] = str(preferences["recover_from"])
        return overrides

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
