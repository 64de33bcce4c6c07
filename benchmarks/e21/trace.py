"""The traced pass: spans around each layer's public callables.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces the
callables listed in :data:`SITES` by timing wrappers (attribute replacement,
this process only) and :meth:`Tracer.uninstall` puts the originals back.
Spans stay in memory; :func:`layer_metrics` turns them into the per-layer
numbers after the run.

A span is ``[name, start, end, parent, repetition, value]``.  ``parent`` is
the span open on the same thread when this one started; a span opened on a
pool thread with nothing open takes the innermost open
``engine.execute_stage`` span as parent.  A span's *self time* is its
duration minus the part of it that its children cover, so nested layers
never count the same second twice.

Process-backend workers are forked with the wrappers in place but record
nothing (their pid differs): worker-side time is reported from the engine's
own ``TaskMetrics`` instead.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

NAME, START, END, PARENT, REPETITION, VALUE = range(6)
Span = List[Any]

STAGE_SPAN = "engine.execute_stage"
REPETITION_SPAN = "repetition"
#: Spans the benchmark opens itself to group work (per action, per phase,
#: per challenge).  Time directly under them is in no layer's span.
OWN_PREFIXES = (REPETITION_SPAN, "op.", "durable.", "challenge.")


def _service_span(args: tuple) -> str:
    """Services are timed by catalogue area; anonymisation is governance's."""
    metadata = args[0].metadata
    if metadata.name == "prepare_anonymize":
        return "governance.anonymize"
    return f"services.{metadata.area}"


#: (span name or ``args -> name``, module, attribute path, ``(result, args) ->
#: value`` or None).  A module-level function is replaced in every loaded
#: ``repro`` module that imported it by name.
SITES: Tuple[Tuple[Any, str, str, Optional[Callable]], ...] = (
    ("dsl.parse", "repro.core.dsl", "parse_spec", None),
    ("compiler.procedural", "repro.core.compiler", "DeclarativeToProcedural.compile",
     lambda result, args: len(result.steps)),
    ("compiler.deployment", "repro.core.compiler", "ProceduralToDeployment.compile", None),
    ("compiler.describe", "repro.core.campaign", "Campaign.describe", None),
    ("governance.compliance", "repro.governance.compliance", "ComplianceChecker.check", None),
    ("governance.audit", "repro.governance.audit", "AuditLog.record", None),
    ("platform.submit", "repro.platform.api", "BDAaaSPlatform.submit_campaign", None),
    ("campaign.run", "repro.core.campaign", "CampaignRunner.run", None),
    ("labs.build_spec", "repro.labs.challenge", "Challenge.build_spec", None),
    ("labs.compare", "repro.labs.session", "LabSession.compare", None),
    ("labs.trial", "repro.labs.session", "LabSession.run_option", None),
    ("engine.context_start", "repro.engine.context", "EngineContext.__init__", None),
    ("engine.context_stop", "repro.engine.context", "EngineContext.stop", None),
    ("engine.optimize", "repro.engine.optimizer", "PlanOptimizer.optimize", None),
    ("engine.stats", "repro.engine.stats", "StatsEstimator.annotate", None),
    ("engine.stats", "repro.engine.stats", "StatsEstimator.key_distribution", None),
    ("engine.lower", "repro.engine.optimizer", "lower_plan", None),
    ("engine.schedule", "repro.engine.scheduler", "DAGScheduler.run_job", None),
    (STAGE_SPAN, "repro.engine.executor", "Executor.execute_stage", None),
    (STAGE_SPAN, "repro.engine.executor", "ProcessExecutor.execute_stage", None),
    ("engine.serialize", "repro.engine.serializer", "dumps",
     lambda result, args: len(result)),
    ("engine.serialize", "repro.engine.serializer", "loads",
     lambda result, args: len(args[0])),
    ("engine.shuffle_write", "repro.engine.shuffle", "ShuffleManager.write_map_output", None),
    ("engine.shuffle_read", "repro.engine.shuffle", "ShuffleManager.read_reduce_input", None),
    ("engine.shuffle_read", "repro.engine.shuffle", "ShuffleManager.iter_reduce_input", None),
    ("engine.frame_encode", "repro.engine.memory", "dump_frames", None),
    ("engine.frame_decode", "repro.engine.memory", "load_frames", None),
    ("engine.frame_decode", "repro.engine.memory", "load_frames_bytes", None),
    ("engine.frame_decode", "repro.engine.memory", "iter_frames", None),
    ("engine.spill_write", "repro.engine.memory", "SpillRun.write", None),
    ("engine.spill_write", "repro.engine.memory", "SpillFile.append", None),
    ("engine.fetch", "repro.engine.transport", "ShuffleTransport.read_span", None),
    ("engine.fetch", "repro.engine.transport", "TcpShuffleTransport.read_span", None),
    ("engine.fetch", "repro.engine.shuffle_server", "ShuffleFetchClient.fetch_records", None),
    ("engine.journal_write", "repro.engine.journal", "atomic_write_bytes", None),
    ("engine.export_catalog", "repro.engine.shuffle", "ShuffleManager.export_durable_catalog", None),
    ("engine.recovery_validate", "repro.engine.journal", "validate_shuffle_entry", None),
    ("engine.recovery_validate", "repro.engine.journal", "validate_checkpoint_entry", None),
)

#: Per-layer time metrics that are the summed self time of one span name.
SELF_TIME_METRICS = {
    "dsl.parse_s": "dsl.parse",
    "compiler.procedural_s": "compiler.procedural",
    "compiler.deployment_s": "compiler.deployment",
    "compiler.describe_s": "compiler.describe",
    "governance.compliance_s": "governance.compliance",
    "governance.anonymize_s": "governance.anonymize",
    "platform.submit_overhead_s": "platform.submit",
    "campaign.assemble_s": "campaign.run",
    "labs.build_spec_s": "labs.build_spec",
    "labs.compare_s": "labs.compare",
    "services.ingestion_s": "services.ingestion",
    "services.preparation_s": "services.preparation",
    "services.analytics_s": "services.analytics",
    "services.display_s": "services.display",
    "engine.context_start_s": "engine.context_start",
    "engine.context_stop_s": "engine.context_stop",
    "engine.optimize_s": "engine.optimize",
    "engine.stats_s": "engine.stats",
    "engine.lower_s": "engine.lower",
    "engine.schedule_s": "engine.schedule",
    "engine.execute_stage_s": STAGE_SPAN,
    "engine.serialize_s": "engine.serialize",
    "engine.shuffle_write_s": "engine.shuffle_write",
    "engine.shuffle_read_s": "engine.shuffle_read",
    "engine.frame_encode_s": "engine.frame_encode",
    "engine.frame_decode_s": "engine.frame_decode",
    "engine.spill_write_s": "engine.spill_write",
    "engine.fetch_s": "engine.fetch",
    "engine.journal_write_s": "engine.journal_write",
    "engine.export_catalog_s": "engine.export_catalog",
    "engine.recovery_validate_s": "engine.recovery_validate",
}

#: Wall of each span the workloads open themselves, reported as ``<name>_s``.
OWN_SPAN_METRICS = (
    "op.project_count", "op.udf_chain", "op.stats", "op.cached_count",
    "op.flat_map", "op.histogram", "op.join_broadcast", "op.join_shuffle",
    "op.group", "op.sort", "op.distinct", "op.aggregate",
    "durable.cold", "durable.resume",
)
CHALLENGE_METRICS = {"labs.churn_s": "challenge.churn-retention",
                     "labs.basket_s": "challenge.market-basket",
                     "labs.energy_s": "challenge.energy-anomaly",
                     "labs.patient_s": "challenge.patient-privacy",
                     "labs.web_s": "challenge.web-operations"}

#: Engine counters, read from the ``JobMetrics`` each job registers.
JOB_COUNTERS = {
    "engine.jobs": "num_jobs", "engine.stages": "num_stages",
    "engine.tasks": "num_tasks", "engine.task_time_s": "total_task_time_s",
    "engine.failed_attempts": "num_failed_attempts",
    "engine.stage_retries": "stage_retries",
    "engine.recomputed_tasks": "recomputed_tasks",
    "engine.adaptive_replans": "adaptive_replans",
    "engine.shuffle_bytes": "shuffle_bytes",
    "engine.records_read": "records_read",
    "engine.records_written": "records_written",
    "engine.spills": "spills", "engine.spill_bytes": "spill_bytes",
    "engine.peak_shuffle_bytes": "peak_shuffle_bytes",
    "engine.fetch_retries": "fetch_retries",
    "engine.journal_bytes": "journal_bytes",
    "engine.stages_recovered": "stages_recovered",
    "engine.checkpoints_written": "checkpoints_written",
    "engine.cache_hits": "cache_hits",
    "engine.batches_processed": "batches_processed",
}

COUNT_UNITS = ("engine.jobs", "engine.stages", "engine.tasks",
               "engine.failed_attempts", "engine.stage_retries",
               "engine.recomputed_tasks", "engine.adaptive_replans",
               "engine.records_read", "engine.records_written", "engine.spills",
               "engine.fetch_retries", "engine.stages_recovered",
               "engine.checkpoints_written", "engine.cache_hits",
               "engine.batches_processed", "engine.optimizer_calls",
               "engine.journal_writes", "compiler.compiles", "compiler.steps",
               "governance.audit_events", "labs.trials")
BYTE_UNITS = ("engine.shuffle_bytes", "engine.spill_bytes",
              "engine.peak_shuffle_bytes", "engine.journal_bytes",
              "engine.serialize_bytes")
RATIO_UNITS = ("engine.parallel_efficiency", "engine.spill_amplification",
               "engine.journal_amplification", "trace.overhead_share",
               "trace.unattributed_share")


#: Untraced repetitions of the same run in raw seconds (the end-to-end
#: metrics divide these by the yardstick): median wall, CPU and yardstick.
RAW_METRICS = ("run.wall_s", "run.cpu_s", "run.yardstick_s")


def layer_metric_names() -> List[str]:
    """Every per-layer metric the traced pass reports, in table order."""
    names = list(RAW_METRICS) + list(SELF_TIME_METRICS) + [f"{name}_s" for name in OWN_SPAN_METRICS]
    names += list(CHALLENGE_METRICS) + list(JOB_COUNTERS)
    names += ["compiler.compiles", "compiler.steps", "governance.audit_events",
              "labs.trials", "labs.trial_p50_s", "labs.trial_max_s",
              "engine.optimizer_calls", "engine.max_task_s",
              "engine.parallel_efficiency", "engine.serialize_bytes",
              "engine.spill_amplification", "engine.journal_writes",
              "engine.journal_amplification", "trace.overhead_share",
              "trace.unattributed_share"]
    return names


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric in COUNT_UNITS:
        return "count"
    if metric in BYTE_UNITS:
        return "bytes"
    if metric in RATIO_UNITS:
        return "ratio"
    return "s"


class Tracer:
    """Records spans around the callables in :data:`SITES`."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        #: ``(repetition, JobMetrics)`` of every job an engine registered.
        self.jobs: List[Tuple[int, Any]] = []
        #: Values only the workload knows (``journal_final_bytes``), per
        #: repetition.
        self.extras: List[Tuple[int, str, float]] = []
        self.repetition = -1
        self._local = threading.local()
        self._open_stages: List[Span] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> Span:
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._open_stages[-1] if self._open_stages else None
        span = [name, 0.0, 0.0, parent, self.repetition, None]
        stack.append(span)
        self.spans.append(span)
        if name == STAGE_SPAN:
            self._open_stages.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()
        if span[NAME] == STAGE_SPAN:
            self._open_stages.remove(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span the benchmark opens itself (an action, a phase)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def extra(self, name: str, value: float) -> None:
        """Record a value only the workload can observe."""
        self.extras.append((self.repetition, name, value))

    # -- wrapping -------------------------------------------------------------

    def _wrapper(self, original: Callable, name: Any,
                 value_of: Optional[Callable]) -> Callable:
        tracer = self
        dynamic = callable(name)

        if inspect.isgeneratorfunction(original):
            def traced_generator(*args, **kwargs):
                iterator = original(*args, **kwargs)
                if os.getpid() != tracer.pid:
                    yield from iterator
                    return
                try:
                    while True:
                        span = tracer._open(name)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(span)
                        yield item
                finally:
                    iterator.close()
            return traced_generator

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return original(*args, **kwargs)
            span = tracer._open(name(args) if dynamic else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if value_of is not None:
                span[VALUE] = value_of(result, args)
            return result
        return traced

    def _replace(self, owner: Any, attribute: str, wrapper: Callable) -> None:
        raw = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        self._restore.append((owner, attribute, raw))
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(wrapper)
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap every site; the ``repro`` packages must be importable."""
        from repro.core.catalog import DEFAULT_SERVICE_CLASSES
        from repro.engine.metrics import MetricsRegistry

        for name, module_name, path, value_of in SITES:
            module = importlib.import_module(module_name)
            owner_path, _, attribute = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                raw = owner.__dict__[attribute]
                original = getattr(raw, "__func__", raw)
                self._replace(owner, attribute,
                              self._wrapper(original, name, value_of))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrapper(original, name, value_of)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for bound, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, bound, wrapper)

        wrapped = set()
        for service_class in DEFAULT_SERVICE_CLASSES:
            for klass in service_class.__mro__:
                if "execute" in klass.__dict__ and klass not in wrapped \
                        and klass.__module__.startswith("repro") \
                        and klass.__name__ != "Service":
                    wrapped.add(klass)
                    self._replace(klass, "execute", self._wrapper(
                        klass.__dict__["execute"], _service_span, None))

        register = MetricsRegistry.register
        tracer = self

        def traced_register(registry, job):
            if os.getpid() == tracer.pid:
                tracer.jobs.append((tracer.repetition, job))
            return register(registry, job)
        self._replace(MetricsRegistry, "register", traced_register)

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, attribute, raw in reversed(self._restore):
            setattr(owner, attribute, raw)
        self._restore.clear()


# ---------------------------------------------------------------------------
# From spans to per-layer metrics
# ---------------------------------------------------------------------------


def _covered(span: Span, children: List[Span]) -> float:
    """Length of the part of ``span`` that the union of ``children`` covers."""
    covered = 0.0
    reach = span[START]
    for child in sorted(children, key=lambda item: item[START]):
        start, end = max(child[START], reach), min(child[END], span[END])
        if end > start:
            covered += end - start
            reach = end
    return covered


class _Totals:
    """Per-name sums over one repetition's spans."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.wall_s: Dict[str, float] = {}
        self.count: Dict[str, int] = {}
        self.value: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}

    def add(self, span: Span, self_time: float) -> None:
        name = span[NAME]
        duration = span[END] - span[START]
        self.self_s[name] = self.self_s.get(name, 0.0) + self_time
        self.wall_s[name] = self.wall_s.get(name, 0.0) + duration
        self.count[name] = self.count.get(name, 0) + 1
        self.durations.setdefault(name, []).append(duration)
        if span[VALUE] is not None:
            self.value[name] = self.value.get(name, 0.0) + span[VALUE]


def _repetition_metrics(totals: _Totals, jobs: List[Any],
                        extras: Dict[str, float], workers: int) -> Dict[str, float]:
    from repro.engine.metrics import merge_job_metrics

    metrics: Dict[str, float] = {}
    for metric, name in SELF_TIME_METRICS.items():
        metrics[metric] = totals.self_s.get(name, 0.0)
    for name in OWN_SPAN_METRICS:
        metrics[f"{name}_s"] = totals.wall_s.get(name, 0.0)
    for metric, name in CHALLENGE_METRICS.items():
        metrics[metric] = totals.wall_s.get(name, 0.0)

    summary = merge_job_metrics(jobs)
    for metric, key in JOB_COUNTERS.items():
        metrics[metric] = summary[key]
    metrics["engine.max_task_s"] = max(
        (stage.max_task_duration_s for job in jobs for stage in job.stages),
        default=0.0)
    stage_wall = totals.wall_s.get(STAGE_SPAN, 0.0)
    metrics["engine.parallel_efficiency"] = (
        summary["total_task_time_s"] / (stage_wall * workers) if stage_wall else 0.0)

    trials = totals.durations.get("labs.trial", [])
    metrics["labs.trials"] = len(trials)
    metrics["labs.trial_p50_s"] = statistics.median(trials) if trials else 0.0
    metrics["labs.trial_max_s"] = max(trials, default=0.0)
    metrics["compiler.compiles"] = totals.count.get("compiler.procedural", 0)
    metrics["compiler.steps"] = totals.value.get("compiler.procedural", 0)
    metrics["governance.audit_events"] = totals.count.get("governance.audit", 0)
    metrics["engine.optimizer_calls"] = totals.count.get("engine.optimize", 0)
    metrics["engine.serialize_bytes"] = totals.value.get("engine.serialize", 0)
    metrics["engine.journal_writes"] = totals.count.get("engine.journal_write", 0)
    metrics["engine.spill_amplification"] = (
        summary["spill_bytes"] / summary["shuffle_bytes"]
        if summary["shuffle_bytes"] else 0.0)
    final_journal = extras.get("journal_final_bytes", 0.0)
    metrics["engine.journal_amplification"] = (
        summary["journal_bytes"] / final_journal if final_journal else 0.0)

    own = sum(seconds for name, seconds in totals.self_s.items()
              if name.startswith(OWN_PREFIXES))
    wall = totals.wall_s.get(REPETITION_SPAN, 0.0)
    metrics["trace.unattributed_share"] = own / wall if wall else 0.0
    return metrics


def layer_metrics(tracer: Tracer, workers: int,
                  raw: Dict[str, float]) -> Dict[str, float]:
    """Median over traced repetitions of each per-layer metric.

    ``raw`` holds :data:`RAW_METRICS` of the untraced repetitions the traced
    ones alternated with; they pass through, and their wall is the base of
    ``trace.overhead_share``.
    """
    children: Dict[int, List[Span]] = {}
    for span in tracer.spans:
        if span[PARENT] is not None:
            children.setdefault(id(span[PARENT]), []).append(span)

    repetitions = sorted({span[REPETITION] for span in tracer.spans
                          if span[NAME] == REPETITION_SPAN})
    totals = {repetition: _Totals() for repetition in repetitions}
    for span in tracer.spans:
        if span[REPETITION] in totals:
            covered = _covered(span, children.get(id(span), []))
            totals[span[REPETITION]].add(
                span, span[END] - span[START] - covered)

    per_repetition = []
    for repetition in repetitions:
        jobs = [job for owner, job in tracer.jobs if owner == repetition]
        extras = {name: value for owner, name, value in tracer.extras
                  if owner == repetition}
        per_repetition.append(
            _repetition_metrics(totals[repetition], jobs, extras, workers))

    metrics = {name: statistics.median(item[name] for item in per_repetition)
               for name in per_repetition[0]}
    traced_wall = statistics.median(
        totals[repetition].wall_s[REPETITION_SPAN] for repetition in repetitions)
    metrics["trace.overhead_share"] = traced_wall / raw["run.wall_s"] - 1.0
    metrics.update(raw)
    return metrics


def spans_as_rows(tracer: Tracer, workload: str) -> List[Dict[str, Any]]:
    """Spans as JSON-ready rows; ``parent`` is the parent's row index."""
    index = {id(span): position for position, span in enumerate(tracer.spans)}
    return [{"name": span[NAME], "start": span[START], "end": span[END],
             "parent": index.get(id(span[PARENT])) if span[PARENT] is not None else None,
             "repetition": span[REPETITION], "workload": workload}
            for span in tracer.spans]
