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

from ..config import EngineConfig
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
    #: Deployment-level steering of the engine's logical-plan optimizer:
    #: target partitions, map-side combining, micro-batch sizing and the
    #: exact rule set baked into ``engine_config.optimizer_rules``.
    optimizer_hints: Dict[str, Any] = field(default_factory=dict)
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

    def describe(self) -> str:
        """Human-readable deployment summary."""
        mode = (f"streaming (batch size {self.batch_size})"
                if self.streaming else "batch")
        lines = [
            f"Deployment model: {self.name}",
            f"  mode: {mode}",
            f"  region: {self.region}",
            f"  partitions: {self.num_partitions}",
            f"  engine workers: {self.engine_config.num_workers}",
            f"  cluster profile: {self.cluster_profile_name} "
            f"({self.cluster_profile.num_workers} workers, "
            f"${self.cluster_profile.usd_per_hour}/h)",
        ]
        if self.optimizer_hints:
            rules = self.optimizer_hints.get("optimizer_rules") or []
            lines.append(
                f"  optimizer: {', '.join(rules) if rules else 'disabled'}")
            threshold = self.optimizer_hints.get("broadcast_threshold_bytes")
            if threshold:
                lines.append(f"  broadcast threshold: {threshold} bytes"
                             f" (adaptive={'on' if self.optimizer_hints.get('adaptive') else 'off'})")
            engine_batch = self.optimizer_hints.get("batch_size")
            if engine_batch is not None:
                lines.append(
                    f"  vectorized execution: {engine_batch}-record batches")
            skew_factor = self.optimizer_hints.get("skew_split_factor")
            if skew_factor is not None:
                lines.append(
                    "  skew splitting: "
                    + (f"up to {skew_factor} sub-reads per skewed partition"
                       if skew_factor and skew_factor > 1
                       else "off"))
            memory_cap = self.optimizer_hints.get("shuffle_memory_bytes")
            if memory_cap is not None:
                lines.append(
                    "  shuffle memory: "
                    + (f"bounded at {memory_cap} bytes (spill-to-disk)"
                       if memory_cap else "unbounded (fully resident)"))
            backend = self.optimizer_hints.get("executor_backend")
            if backend is not None:
                lines.append(
                    "  executor backend: "
                    + (f"process ({self.engine_config.num_workers} "
                       "worker processes, spill-file shuffle transport)"
                       if backend == "process"
                       else f"thread ({self.engine_config.num_workers} "
                            "in-process workers)"))
            transport = self.optimizer_hints.get("shuffle_transport")
            if transport is not None:
                retries = self.optimizer_hints.get("fetch_max_retries")
                lines.append(
                    "  shuffle transport: "
                    + (f"tcp (networked fetches, up to {retries} "
                       "retries per span)"
                       if transport == "tcp"
                       else "local (shared spill files)"))
            speculation = self.optimizer_hints.get("speculation_multiplier")
            if speculation is not None:
                lines.append(
                    "  speculative execution: "
                    + (f"stragglers over {speculation}x median relaunched"
                       if speculation else "off"))
            blacklist = self.optimizer_hints.get("blacklist_failure_threshold")
            if blacklist is not None:
                cooldown = self.optimizer_hints.get("blacklist_cooldown_s")
                lines.append(
                    "  worker blacklisting: "
                    + (f"after {blacklist} consecutive failures"
                       + (f", rehabilitated after {cooldown}s"
                          if cooldown else "")
                       if blacklist else "off"))
            checkpoint_dir = self.optimizer_hints.get("checkpoint_dir")
            if checkpoint_dir:
                interval = self.optimizer_hints.get("checkpoint_interval")
                lines.append(
                    f"  durable checkpoints: journaled under {checkpoint_dir}"
                    + (f", auto every {interval} shuffle stages"
                       if interval else " (manual Dataset.checkpoint())"))
            recover_from = self.optimizer_hints.get("recover_from")
            if recover_from:
                lines.append(
                    f"  recovery: resume from journal at {recover_from} "
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
            "optimizer_hints": dict(self.optimizer_hints),
        }
