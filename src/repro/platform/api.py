"""The BDAaaS facade: goals and preferences in, executed pipeline out.

:class:`BDAaaSPlatform` is the programmatic equivalent of the TOREADOR PaaS
front-end.  It owns the user registry, workspaces, job manager, provisioner,
compiler, runner and audit log, and exposes the single entry point the paper
describes: ``submit_campaign(user, spec)`` compiles the declarative goals,
enforces quotas and policies, provisions a (simulated) cluster, executes the
pipeline and records the run in the user's workspace.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from ..config import PlatformConfig
from ..core.campaign import Campaign, CampaignRun, CampaignRunner
from ..core.catalog import ServiceCatalog, build_default_catalog
from ..core.compiler import CampaignCompiler
from ..core.dsl import SpecLike, parse_spec, spec_to_dict
from ..engine.context import EngineContext
from ..engine.simulator import DeploymentSimulator
from ..engine.storage import BlockStore
from ..errors import PlatformError
from ..governance.audit import AuditLog
from ..governance.policies import BUILTIN_POLICIES, DataProtectionPolicy
from .auth import PERMISSION_SUBMIT, ROLE_TRAINEE, User, UserRegistry
from .jobs import Job, JobManager
from .provisioning import Provisioner
from .workspace import Workspace, WorkspaceManager


#: Resident-byte cap of the block store a platform shares between the
#: engine contexts it creates.  One challenge's working set is its scenario
#: at base volume on two levels (source blocks, analytics input); the
#: largest, 2 x 6000 churn records, is accounted at 8.3 MB (~690 B per
#: record), and an LRU that is one block short of a cyclically read working
#: set misses every time, so the cap leaves a fifth of headroom over it.
#: Not a knob: a larger cap buys nothing the Labs traffic can use and is
#: paid for, byte for byte, in peak RSS.
SHARED_BLOCKS_BUDGET_BYTES = 10 * 1024 * 1024


class BDAaaSPlatform:
    """The Big Data Analytics-as-a-Service platform facade.

    The platform owns one bounded, content-addressed block store
    (``shared_blocks``) and lends it to every engine context it creates, so
    the trials of a Lab session — one option changed at a time — stop
    regenerating and re-preparing the input they have in common.  Blocks are
    keyed by lineage fingerprint (policy-driven masking and anonymisation
    parameters included, so a trial is never served a less-protected block
    than it declared), admitted on the second request for their key, and
    every run records which earlier run's blocks it was served
    (``execution_profile["reused_from"]``, ``materialisation.reuse`` audit
    events).  The store lives and dies with the platform object.
    """

    def __init__(self, config: Optional[PlatformConfig] = None,
                 catalog: Optional[ServiceCatalog] = None,
                 policies: Optional[Dict[str, DataProtectionPolicy]] = None,
                 simulator: Optional[DeploymentSimulator] = None):
        self.config = config or PlatformConfig()
        self.catalog = catalog if catalog is not None else build_default_catalog()
        self.policies = dict(policies or BUILTIN_POLICIES)
        self.simulator = simulator or DeploymentSimulator()
        self.audit = AuditLog(enabled=self.config.audit_enabled)
        self.users = UserRegistry(self.config)
        self.workspaces = WorkspaceManager()
        self.jobs = JobManager()
        self.provisioner = Provisioner(self.simulator)
        self.compiler = CampaignCompiler(self.catalog, self.policies)
        self.runner = CampaignRunner(self.catalog, self.policies, self.simulator,
                                     audit_log=self.audit)
        self.shared_blocks = BlockStore(SHARED_BLOCKS_BUDGET_BYTES,
                                        admit_on_second_touch=True)

    # -- account and workspace management ----------------------------------------------

    def register_user(self, name: str, role: str = ROLE_TRAINEE,
                      organisation: str = "") -> User:
        """Create a platform account."""
        user = self.users.register(name, role, organisation)
        self.audit.record("platform", "user.register", user.user_id,
                          name=name, role=role)
        return user

    def create_workspace(self, user: User, name: str) -> Workspace:
        """Create a workspace owned by ``user``."""
        workspace = self.workspaces.create(name, user.user_id)
        self.audit.record(user.name, "workspace.create", workspace.workspace_id,
                          name=name)
        return workspace

    # -- the BDAaaS function --------------------------------------------------------------

    def compile_campaign(self, spec: SpecLike) -> Campaign:
        """Compile a specification without executing it (design-time preview)."""
        return self.compiler.compile(spec)

    def submit_campaign(self, user: User, workspace: Workspace, spec: SpecLike,
                        option_label: str = "default") -> Job:
        """The BDAaaS function: compile, check quotas, provision, execute.

        Returns the terminal :class:`Job`; its ``run`` attribute carries the
        :class:`CampaignRun` when execution succeeded.
        """
        user.require(PERMISSION_SUBMIT)
        declarative = parse_spec(spec)
        self.users.check_job_quota(user)
        self.users.check_data_quota(user, declarative.source.num_records)
        campaign = self.compiler.compile(declarative)
        max_workers = (self.config.free_tier_max_workers if user.is_free_tier else None)
        self.users.check_cluster_quota(user,
                                       campaign.deployment.engine_config.num_workers
                                       if user.is_free_tier else 0)
        workspace.save_spec(declarative.name, spec_to_dict(declarative))

        job = self.jobs.submit(declarative.name, user.user_id,
                               workspace.workspace_id, option_label)
        self.audit.record(user.name, "campaign.submit", declarative.name,
                          job_id=job.job_id, option=option_label)
        cluster = self.provisioner.provision(campaign.deployment, max_workers)
        self.jobs.mark_running(job.job_id)
        try:
            engine = EngineContext(cluster.engine_config,
                                   name=f"platform:{declarative.name}",
                                   shared_blocks=self.shared_blocks)
            try:
                run = self.runner.run(campaign, option_label=option_label,
                                      actor=user.name, engine=engine)
            finally:
                engine.stop()
        except Exception as error:  # noqa: BLE001 - surfaced via the job record
            self.jobs.mark_failed(job.job_id, str(error))
            self.provisioner.release(cluster)
            self.users.record_job(user)
            self.audit.record(user.name, "campaign.failed", declarative.name,
                              job_id=job.job_id, error=str(error))
            return self.jobs.get(job.job_id)
        self.provisioner.release(cluster)
        self.users.record_job(user)
        self.jobs.mark_succeeded(job.job_id, run)
        workspace.record_run(run)
        self.audit.record(user.name, "campaign.succeeded", declarative.name,
                          job_id=job.job_id, run_id=run.run_id)
        return self.jobs.get(job.job_id)

    def run_campaign(self, user: User, workspace: Workspace, spec: SpecLike,
                     option_label: str = "default") -> CampaignRun:
        """Submit a campaign and return its run, raising when execution failed."""
        job = self.submit_campaign(user, workspace, spec, option_label)
        if job.run is None:
            raise PlatformError(
                f"campaign {job.campaign_name!r} failed: {job.error}")
        return job.run

    # -- introspection ---------------------------------------------------------------------

    def catalogue_overview(self) -> str:
        """Human-readable listing of the service catalogue."""
        return self.catalog.describe()

    def job_statistics(self) -> Dict[str, float]:
        """Aggregate job statistics across every account."""
        return self.jobs.statistics()

    def runs_for(self, workspace: Workspace,
                 campaign_name: Optional[str] = None) -> List[CampaignRun]:
        """Run history of a workspace."""
        return workspace.run_history(campaign_name)
