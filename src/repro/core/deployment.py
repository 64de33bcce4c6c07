"""The deployment model: a procedural model bound to an execution platform.

The deployment model fixes everything the procedural model left abstract:
engine configuration (parallelism, workers), data partitioning, the target
cluster profile used for cost estimation, the execution mode (batch or
micro-batch streaming) and the region.  It is the "ready-to-be executed Big
Data pipeline" the paper's Section 2 describes as the output of BDAaaS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..config import HINT_KNOBS, EngineConfig
from ..errors import DeploymentError
from ..engine.simulator import BUILTIN_PROFILES, ClusterProfile
from .procedural import ProceduralModel


@dataclass
class DeploymentModel:
    """A procedural model plus all platform bindings needed to execute it."""

    procedural: ProceduralModel
    cluster_profile_name: str = "local"
    engine_config: EngineConfig = field(default_factory=EngineConfig)
    num_partitions: int = 4
    region: str = "eu"
    streaming: bool = False
    batch_size: int = 500
    max_batches: Optional[int] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise DeploymentError("num_partitions must be >= 1")
        if self.batch_size < 1:
            raise DeploymentError("batch_size must be >= 1")
        if self.cluster_profile_name not in BUILTIN_PROFILES and \
                "cluster_profile" not in self.extra:
            raise DeploymentError(
                f"unknown cluster profile {self.cluster_profile_name!r}; "
                f"known: {sorted(BUILTIN_PROFILES)}")

    @property
    def cluster_profile(self) -> ClusterProfile:
        """The resolved cluster profile object."""
        custom = self.extra.get("cluster_profile")
        if isinstance(custom, ClusterProfile):
            return custom
        return BUILTIN_PROFILES[self.cluster_profile_name]

    @property
    def name(self) -> str:
        """Deployment name, derived from the procedural model."""
        return f"{self.procedural.name}@{self.cluster_profile_name}"

    @property
    def optimizer_hints(self) -> Dict[str, Any]:
        """Deployment-level steering of the engine's logical-plan optimizer.

        Target partitions, map-side combining, micro-batch sizing and the
        optimizer rule set, plus every engine knob the configuration table
        marks as a hint (keyed by its deployment preference), all read from
        ``engine_config`` and the deployment's own bindings.
        """
        config = self.engine_config
        hints: Dict[str, Any] = {
            "target_partitions": self.num_partitions,
            "map_side_combine": "map_side_combine" in config.optimizer_rules,
            "micro_batch_records": self.batch_size if self.streaming else None,
            "optimizer_rules": list(config.optimizer_rules),
        }
        for knob in HINT_KNOBS:
            hints[knob.preference] = getattr(config, knob.name)
        return hints

    def describe(self) -> str:
        """Human-readable deployment summary."""
        config = self.engine_config
        workers = config.num_workers
        mode = (f"streaming (batch size {self.batch_size})"
                if self.streaming else "batch")
        skew = config.skew_split_factor
        memory_cap = config.shuffle_memory_bytes
        speculation = config.speculation_multiplier
        blacklist = config.blacklist_failure_threshold
        cooldown = config.blacklist_cooldown_s
        lines = [
            f"Deployment model: {self.name}",
            f"  mode: {mode}",
            f"  region: {self.region}",
            f"  partitions: {self.num_partitions}",
            f"  engine workers: {workers}",
            f"  cluster profile: {self.cluster_profile_name} "
            f"({self.cluster_profile.num_workers} workers, "
            f"${self.cluster_profile.usd_per_hour}/h)",
            "  optimizer: " + (", ".join(config.optimizer_rules)
                               or "disabled"),
        ]
        if config.broadcast_threshold_bytes:
            lines.append(
                f"  broadcast threshold: {config.broadcast_threshold_bytes} "
                f"bytes (adaptive={'on' if config.adaptive_enabled else 'off'})")
        lines += [
            f"  vectorized execution: {config.batch_size}-record batches",
            "  skew splitting: "
            + (f"up to {skew} sub-reads per skewed partition"
               if skew > 1 else "off"),
            "  shuffle memory: "
            + (f"bounded at {memory_cap} bytes (spill-to-disk)"
               if memory_cap else "unbounded (fully resident)"),
            "  executor backend: "
            + (f"process ({workers} worker processes, spill-file shuffle "
               "transport)" if config.executor_backend == "process"
               else f"thread ({workers} in-process workers)"),
            "  shuffle transport: "
            + (f"tcp (networked fetches, up to {config.fetch_max_retries} "
               "retries per span)" if config.shuffle_transport == "tcp"
               else "local (shared spill files)"),
            "  speculative execution: "
            + (f"stragglers over {speculation}x median relaunched"
               if speculation else "off"),
            "  worker blacklisting: "
            + (f"after {blacklist} consecutive failures"
               + (f", rehabilitated after {cooldown}s" if cooldown else "")
               if blacklist else "off"),
        ]
        if config.checkpoint_dir:
            lines.append(
                f"  durable checkpoints: journaled under {config.checkpoint_dir}"
                + (f", auto every {config.checkpoint_interval} shuffle stages"
                   if config.checkpoint_interval
                   else " (manual Dataset.checkpoint())"))
        if config.recover_from:
            lines.append(
                f"  recovery: resume from journal at {config.recover_from} "
                "(CRC-revalidated, lineage fallback)")
        lines.extend(["", self.procedural.describe()])
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        """Serialisable view of the deployment bindings."""
        return {
            "procedural": self.procedural.as_dict(),
            "cluster_profile": self.cluster_profile_name,
            "num_partitions": self.num_partitions,
            "num_workers": self.engine_config.num_workers,
            "region": self.region,
            "streaming": self.streaming,
            "batch_size": self.batch_size,
            "max_batches": self.max_batches,
            "optimizer_hints": self.optimizer_hints,
        }
