"""Exception hierarchy for the TOREADOR reproduction library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch the whole family with a single ``except`` clause while still
being able to discriminate among the subsystems (engine, core models,
platform, governance, labs).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


# ---------------------------------------------------------------------------
# Engine errors
# ---------------------------------------------------------------------------


class EngineError(ReproError):
    """Base class for dataflow-engine errors."""


class PlanError(EngineError):
    """The logical plan of a dataset is malformed (e.g. empty lineage)."""


class TaskError(EngineError):
    """A task failed on the executor after exhausting its retries."""

    def __init__(self, message: str, task_id: str = "", cause: Exception | None = None):
        super().__init__(message)
        self.task_id = task_id
        self.cause = cause


class SerializationError(EngineError):
    """A task graph cannot be pickled for the process execution backend."""


class ShuffleError(EngineError):
    """Shuffle data requested before the producing stage completed."""


class ShuffleCorruptionError(ShuffleError):
    """A framed payload (spill, transport, checkpoint) failed its integrity check.

    Raised on the read path when a frame's CRC32 does not match its payload,
    when a frame header is malformed or checksum-less (truncated file,
    flipped header bits), when the frames do not fill their span exactly,
    or when a span yields a different record count than it recorded.  The
    reader never feeds a corrupt payload downstream.
    """

    def __init__(self, message: str, path: str = "", offset: int = -1):
        super().__init__(message)
        self.path = path
        self.offset = offset


class FetchFailedError(ShuffleError):
    """A reduce-side read lost one map partition's shuffle output.

    Carries the ``(shuffle_id, map_partition)`` coordinates of the lost or
    corrupt span so the scheduler can invalidate exactly that map output and
    recompute it from lineage instead of failing the job.
    """

    def __init__(self, message: str, shuffle_id: int = -1,
                 map_partition: int = -1):
        super().__init__(message)
        self.shuffle_id = shuffle_id
        self.map_partition = map_partition


class StreamError(EngineError):
    """A streaming job was misconfigured or its source was exhausted."""


# ---------------------------------------------------------------------------
# Data-substrate errors
# ---------------------------------------------------------------------------


class DataError(ReproError):
    """Base class for synthetic-data generation and source errors."""


class SchemaError(DataError):
    """A record does not conform to its declared schema."""


class SourceError(DataError):
    """A data source could not be opened or read."""


# ---------------------------------------------------------------------------
# Service-library errors
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for errors raised by services in the catalogue."""


class ServiceConfigurationError(ServiceError):
    """A service received invalid or missing parameters."""


class ServiceExecutionError(ServiceError):
    """A service failed while running on the engine."""


# ---------------------------------------------------------------------------
# Model-driven core errors
# ---------------------------------------------------------------------------


class ModelError(ReproError):
    """Base class for declarative/procedural/deployment model errors."""


class SpecificationError(ModelError):
    """A declarative specification could not be parsed or validated."""


class VocabularyError(ModelError):
    """An unknown goal area, indicator, or objective was referenced."""


class CompilationError(ModelError):
    """The model-driven compiler could not produce a valid next model."""


class CompositionError(CompilationError):
    """No service composition satisfies the declared goals."""


class DeploymentError(ModelError):
    """A procedural model could not be bound to an execution platform."""


# ---------------------------------------------------------------------------
# Governance errors
# ---------------------------------------------------------------------------


class GovernanceError(ReproError):
    """Base class for data-protection and policy errors."""


class PolicyError(GovernanceError):
    """A policy definition is invalid."""


class ComplianceError(GovernanceError):
    """A campaign violates one or more regulatory policies."""

    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        self.violations = list(violations or [])


class AnonymizationError(GovernanceError):
    """An anonymisation transform could not reach its target guarantee."""


# ---------------------------------------------------------------------------
# Platform errors
# ---------------------------------------------------------------------------


class PlatformError(ReproError):
    """Base class for BDAaaS platform errors."""


class AuthorizationError(PlatformError):
    """The user lacks the permission required for the operation."""


class QuotaExceededError(PlatformError):
    """A free-limited (Labs) quota was exhausted."""


class WorkspaceError(PlatformError):
    """A workspace operation failed (unknown workspace, duplicate name...)."""


class JobError(PlatformError):
    """A platform job could not be submitted, found, or cancelled."""


class ProvisioningError(PlatformError):
    """A deployment model could not be provisioned onto a cluster."""


# ---------------------------------------------------------------------------
# Labs errors
# ---------------------------------------------------------------------------


class LabsError(ReproError):
    """Base class for TOREADOR Labs errors."""


class ChallengeError(LabsError):
    """A challenge definition is inconsistent or references unknown options."""


class SessionError(LabsError):
    """A trainee session operation failed."""


class ComparisonError(LabsError):
    """Two campaign runs cannot be compared (e.g. nothing to compare)."""
