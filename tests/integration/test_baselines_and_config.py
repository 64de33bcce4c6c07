"""Baselines, configuration objects and the public package surface."""

from __future__ import annotations

import pytest

import repro
from repro.baselines.manual_pipeline import expert_basket_pipeline, expert_churn_pipeline
from repro.config import EngineConfig, PlatformConfig
from repro.errors import ConfigurationError


class TestBaselines:
    def test_expert_churn_pipeline_reports_quality(self):
        result = expert_churn_pipeline(num_records=1200, num_partitions=2)
        assert result.name == "expert-churn"
        assert result.metrics["accuracy"] > 0.6
        assert result.wall_clock_s > 0
        assert not result.governance_applied

    def test_expert_basket_pipeline_finds_rules(self):
        result = expert_basket_pipeline(num_records=1200, num_partitions=2)
        assert result.metrics["num_rules"] >= 3
        assert result.artifacts["rules"]

    def test_expert_pipelines_are_deterministic_for_a_seed(self):
        first = expert_basket_pipeline(num_records=800, seed=3, num_partitions=2)
        second = expert_basket_pipeline(num_records=800, seed=3, num_partitions=2)
        assert first.metrics["num_rules"] == second.metrics["num_rules"]


class TestConfig:
    def test_engine_config_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(num_workers=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(default_parallelism=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(failure_rate=1.5)
        with pytest.raises(ConfigurationError):
            EngineConfig(max_task_retries=-1)

    def test_engine_config_overrides(self):
        config = EngineConfig().with_overrides(num_workers=7)
        assert config.num_workers == 7
        assert EngineConfig().num_workers == 4  # default untouched

    def test_platform_config_validation(self):
        with pytest.raises(ConfigurationError):
            PlatformConfig(free_tier_max_jobs=0)
        with pytest.raises(ConfigurationError):
            PlatformConfig(free_tier_max_rows=0)

    def test_platform_config_overrides(self):
        assert PlatformConfig().with_overrides(free_tier_max_jobs=3) \
            .free_tier_max_jobs == 3


class TestPublicSurface:
    def test_version_and_main_exports(self):
        assert repro.__version__ == "1.0.0"
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_quickstart_snippet_from_module_docstring_runs(self):
        platform = repro.BDAaaSPlatform()
        trainee = platform.register_user("doc-reader", role="trainee")
        challenge = repro.build_default_challenges().get("churn-retention")
        assert challenge.dimension_keys
        assert isinstance(platform.catalogue_overview(), str)

    def test_error_hierarchy_single_root(self):
        from repro import errors
        exception_classes = [value for value in vars(errors).values()
                             if isinstance(value, type) and issubclass(value, Exception)]
        assert all(issubclass(cls, errors.ReproError) or cls is errors.ReproError
                   for cls in exception_classes)
