"""Campaign execution: batch runs, streaming runs, indicators, compliance."""

from __future__ import annotations

import copy

import pytest

from repro.core.campaign import CampaignRunner
from repro.errors import ServiceExecutionError
from repro.governance.audit import AuditLog
from tests.conftest import small_churn_spec


class TestBatchRun:
    def test_run_produces_indicator_values(self, churn_run):
        assert churn_run.succeeded
        assert churn_run.indicator("accuracy") > 0.5
        assert churn_run.indicator("records_processed") == 1500
        assert churn_run.indicator("execution_time_s") > 0
        assert churn_run.indicator("num_tasks") > 0

    def test_objectives_evaluated(self, churn_run):
        assert len(churn_run.objective_evaluations) == 1
        evaluation = churn_run.objective_evaluations[0]
        assert evaluation.objective.indicator_name == "accuracy"
        assert evaluation.satisfied
        assert churn_run.satisfied_all_hard_objectives
        assert churn_run.weighted_score > 0.9

    def test_step_metrics_namespaced(self, churn_run):
        assert "ingest" in churn_run.step_metrics
        assert "analytics-churn" in churn_run.step_metrics
        assert "analytics-churn.accuracy" in churn_run.indicator_values

    def test_artifacts_exclude_datasets(self, churn_run):
        from repro.engine.dataset import Dataset
        for artifacts in churn_run.artifacts.values():
            assert not any(isinstance(value, Dataset) for value in artifacts.values())

    def test_report_artifact_present(self, churn_run):
        assert "report" in churn_run.artifacts["report"]
        assert "Campaign report" in churn_run.artifacts["report"]["report"]

    def test_deployment_estimates_cover_declared_profile(self, churn_run):
        profiles = {estimate["profile"] for estimate in churn_run.deployment_estimates}
        assert "local" in profiles
        assert "large-16" in profiles
        assert churn_run.indicator("estimated_cost_usd") is not None

    def test_compliance_attached(self, churn_run):
        assert churn_run.compliance["policy"] == "open_data"
        assert churn_run.compliance["compliant"] is True
        assert churn_run.indicator("policy_violations") == 0

    def test_run_serialisation(self, churn_run):
        import json
        as_dict = churn_run.as_dict()
        assert as_dict["campaign"] == "test-churn"
        assert as_dict["option_signature"]["churn"] == "classify_naive_bayes"
        json.dumps(as_dict)  # everything must be JSON-serialisable

    def test_option_label_recorded(self, churn_run):
        assert churn_run.option_label == "shared"

    def test_duration_positive(self, churn_run):
        assert churn_run.duration_s > 0

    def test_failing_objective_reported_not_raised(self, compiler, runner):
        spec = small_churn_spec()
        spec["goals"][0]["objectives"] = [{"indicator": "accuracy", "target": 0.999}]
        run = runner.run(compiler.compile(spec))
        assert not run.satisfied_all_hard_objectives
        assert run.objective_summary["hard_objectives_met"] == 0.0

    def test_gdpr_campaign_measures_achieved_k(self, compiler, runner):
        spec = small_churn_spec(policy="gdpr_baseline", num_records=1200)
        run = runner.run(compiler.compile(spec))
        assert run.indicator("achieved_k") >= 5
        assert run.compliance["compliant"] is True

    def test_audit_log_records_lifecycle(self, compiler, default_catalog):
        audit = AuditLog()
        runner = CampaignRunner(default_catalog, audit_log=audit)
        runner.run(compiler.compile(small_churn_spec()), actor="tester")
        actions = [event.action for event in audit.events]
        assert "campaign.start" in actions
        assert "campaign.finish" in actions
        assert any(event.actor == "tester" for event in audit.events)

    def test_failing_step_raises_service_execution_error(self, compiler, runner):
        spec = small_churn_spec()
        spec["goals"][0]["params"]["label"] = "not_a_field"
        with pytest.raises(ServiceExecutionError):
            runner.run(compiler.compile(spec))

    def test_failure_is_audited(self, compiler, default_catalog):
        audit = AuditLog()
        runner = CampaignRunner(default_catalog, audit_log=audit)
        spec = small_churn_spec()
        spec["goals"][0]["params"]["label"] = "not_a_field"
        with pytest.raises(ServiceExecutionError):
            runner.run(compiler.compile(spec))
        assert any(event.action == "campaign.error" for event in audit.events)

    def test_multi_goal_campaign(self, compiler, runner):
        spec = small_churn_spec()
        spec["goals"].append({"id": "segments", "task": "clustering",
                              "params": {"features": ["monthly_charges"], "k": 2},
                              "optimize_for": "cost"})
        run = runner.run(compiler.compile(spec))
        assert run.indicator("analytics-segments.inertia") is not None
        assert run.indicator("analytics-churn.accuracy") is not None
        assert run.option_signature == {"churn": "classify_naive_bayes",
                                        "segments": "cluster_kmeans"}

    def test_campaign_over_records_leaves_callers_records_untouched(
            self, compiler, runner, churn_records):
        """The row scan hands the caller's dicts to the services: none may
        write into them (the split step tags a copy)."""
        records = churn_records[:400]
        before = copy.deepcopy(records)
        spec = small_churn_spec(source={"records": records})
        run = runner.run(compiler.compile(spec))
        assert run.succeeded
        assert run.indicator("records_processed") == len(records)
        assert records == before


class TestStreamingRun:
    @pytest.fixture(scope="class")
    def streaming_run(self, compiler, runner):
        spec = {
            "name": "stream-anomaly",
            "source": {"scenario": "energy", "num_records": 1500, "streaming": True,
                       "batch_size": 300},
            "deployment": {"num_partitions": 2, "num_workers": 1, "max_batches": 4},
            "goals": [{"id": "detect", "task": "anomaly_detection",
                       "params": {"value_field": "kwh", "label_field": "is_anomaly",
                                  "z_threshold": 2.5},
                       "objectives": [{"indicator": "latency", "target": 30.0}]}],
        }
        return runner.run(compiler.compile(spec), option_label="stream")

    def test_stream_metrics_present(self, streaming_run):
        assert streaming_run.indicator("num_batches") == 4
        assert streaming_run.indicator("total_input_records") == 1200
        assert streaming_run.indicator("mean_latency_s") > 0
        assert streaming_run.indicator("throughput_records_per_s") > 0

    def test_latency_objective_evaluated(self, streaming_run):
        evaluation = streaming_run.objective_evaluations[0]
        assert evaluation.objective.indicator_name == "latency"
        assert evaluation.satisfied

    def test_analytics_metrics_from_last_batch(self, streaming_run):
        assert streaming_run.indicator("anomalies_flagged") is not None
        assert streaming_run.indicator("records_scanned") == 300

    def test_streaming_empty_source_fails_cleanly(self, compiler, runner):
        from repro.errors import ReproError
        spec = {
            "name": "empty-stream",
            "source": {"records": [], "streaming": True, "batch_size": 10},
            "goals": [{"id": "d", "task": "descriptive", "params": {"fields": ["v"]}}],
        }
        with pytest.raises(ReproError):
            runner.run(compiler.compile(spec))
