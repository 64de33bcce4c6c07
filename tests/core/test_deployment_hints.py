"""Deployment layer -> engine optimizer hint threading."""

from __future__ import annotations

import pytest

from repro.config import KNOWN_OPTIMIZER_RULES, EngineConfig
from repro.core.compiler import CampaignCompiler
from repro.errors import ConfigurationError


def _spec(**deployment):
    return {
        "name": "hints",
        "policy": "open_data",
        "source": {"scenario": "churn", "num_records": 2000},
        "deployment": deployment,
        "goals": [{
            "id": "g",
            "task": "descriptive",
            "params": {"fields": ["monthly_charges"]},
        }],
    }


class TestOptimizerHints:
    def test_default_deployment_enables_every_rule(self):
        campaign = CampaignCompiler().compile(_spec(num_partitions=4))
        deployment = campaign.deployment
        assert deployment.engine_config.optimizer_rules == KNOWN_OPTIMIZER_RULES
        hints = deployment.optimizer_hints
        assert hints["target_partitions"] == deployment.num_partitions == 4
        assert hints["map_side_combine"] is True
        assert hints["micro_batch_records"] is None

    def test_map_side_combine_toggle(self):
        campaign = CampaignCompiler().compile(
            _spec(num_partitions=4, map_side_combine=False))
        rules = campaign.deployment.engine_config.optimizer_rules
        assert "map_side_combine" not in rules
        assert "fuse_narrow" in rules
        assert campaign.deployment.optimizer_hints["map_side_combine"] is False

    def test_optimizer_disabled_entirely(self):
        campaign = CampaignCompiler().compile(_spec(num_partitions=4, optimizer=False))
        assert campaign.deployment.engine_config.optimizer_rules == ()
        assert campaign.deployment.optimizer_hints["optimizer_rules"] == []

    def test_explicit_rule_subset(self):
        campaign = CampaignCompiler().compile(
            _spec(num_partitions=4, optimizer_rules=["fuse_narrow", "pushdown"]))
        assert campaign.deployment.engine_config.optimizer_rules == \
            ("fuse_narrow", "pushdown")

    def test_streaming_deployment_emits_micro_batch_hint(self):
        spec = _spec(num_partitions=2)
        spec["source"]["streaming"] = True
        spec["source"]["batch_size"] = 250
        campaign = CampaignCompiler().compile(spec)
        assert campaign.deployment.optimizer_hints["micro_batch_records"] == 250

    def test_default_cost_model_thresholds(self):
        campaign = CampaignCompiler().compile(_spec(num_partitions=4))
        config = campaign.deployment.engine_config
        assert config.broadcast_threshold_bytes == \
            EngineConfig.broadcast_threshold_bytes
        assert config.target_partition_bytes == 0
        assert config.adaptive_enabled is True
        hints = campaign.deployment.optimizer_hints
        assert hints["broadcast_threshold_bytes"] == \
            config.broadcast_threshold_bytes
        assert hints["target_partition_bytes"] == 0
        assert hints["adaptive"] is True

    def test_cost_model_thresholds_from_spec(self):
        campaign = CampaignCompiler().compile(
            _spec(num_partitions=4, broadcast_threshold_bytes=123_456,
                  target_partition_bytes=65_536, adaptive=False))
        config = campaign.deployment.engine_config
        assert config.broadcast_threshold_bytes == 123_456
        assert config.target_partition_bytes == 65_536
        assert config.adaptive_enabled is False
        hints = campaign.deployment.optimizer_hints
        assert hints["broadcast_threshold_bytes"] == 123_456
        assert hints["target_partition_bytes"] == 65_536
        assert hints["adaptive"] is False

    def test_negative_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignCompiler().compile(
                _spec(num_partitions=4, broadcast_threshold_bytes=-1))
        with pytest.raises(ConfigurationError):
            CampaignCompiler().compile(
                _spec(num_partitions=4, target_partition_bytes=-5))

    def test_default_engine_batch_size_hint(self):
        campaign = CampaignCompiler().compile(_spec(num_partitions=4))
        config = campaign.deployment.engine_config
        assert config.batch_size == EngineConfig.batch_size
        assert campaign.deployment.optimizer_hints["batch_size"] == \
            config.batch_size

    def test_engine_batch_size_from_spec(self):
        campaign = CampaignCompiler().compile(
            _spec(num_partitions=4, batch_size=256))
        assert campaign.deployment.engine_config.batch_size == 256
        assert campaign.deployment.optimizer_hints["batch_size"] == 256
        assert "256-record batches" in campaign.deployment.describe()

    def test_engine_batching_disabled_from_spec(self):
        # batches are the only execution mode: a zero batch size is bad input
        with pytest.raises(ConfigurationError, match="batch_size"):
            CampaignCompiler().compile(_spec(num_partitions=4, batch_size=0))
        with pytest.raises(ConfigurationError, match="batch_size"):
            EngineConfig(batch_size=0)

    def test_negative_engine_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignCompiler().compile(_spec(num_partitions=4, batch_size=-8))

    def test_broadcast_threshold_shown_in_describe(self):
        campaign = CampaignCompiler().compile(
            _spec(num_partitions=4, broadcast_threshold_bytes=2048))
        assert "broadcast threshold: 2048 bytes" in campaign.deployment.describe()

    def test_hints_serialised_in_as_dict(self):
        campaign = CampaignCompiler().compile(_spec(num_partitions=4))
        payload = campaign.deployment.as_dict()
        assert payload["optimizer_hints"]["target_partitions"] == 4

    def test_hints_shown_in_describe(self):
        campaign = CampaignCompiler().compile(_spec(num_partitions=4))
        assert "optimizer:" in campaign.deployment.describe()

    def test_skew_split_hints_default(self):
        campaign = CampaignCompiler().compile(_spec(num_partitions=4))
        config = campaign.deployment.engine_config
        hints = campaign.deployment.optimizer_hints
        assert config.skew_split_factor == EngineConfig.skew_split_factor
        assert hints["skew_split_factor"] == config.skew_split_factor
        assert hints["skew_min_partition_bytes"] == \
            config.skew_min_partition_bytes

    def test_skew_split_factor_from_spec(self):
        campaign = CampaignCompiler().compile(
            _spec(num_partitions=4, skew_split_factor=8,
                  skew_min_partition_bytes=4096))
        config = campaign.deployment.engine_config
        assert config.skew_split_factor == 8
        assert config.skew_min_partition_bytes == 4096
        assert campaign.deployment.optimizer_hints["skew_split_factor"] == 8
        assert "up to 8 sub-reads" in campaign.deployment.describe()

    def test_skew_split_disabled_from_spec(self):
        campaign = CampaignCompiler().compile(
            _spec(num_partitions=4, skew_split_factor=0))
        assert campaign.deployment.engine_config.skew_split_factor == 0
        assert "skew splitting: off" in campaign.deployment.describe()

    def test_negative_skew_settings_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignCompiler().compile(
                _spec(num_partitions=4, skew_split_factor=-1))
        with pytest.raises(ConfigurationError):
            CampaignCompiler().compile(
                _spec(num_partitions=4, skew_min_partition_bytes=-1))

    def test_executor_backend_default_hint(self):
        campaign = CampaignCompiler().compile(_spec(num_partitions=4))
        config = campaign.deployment.engine_config
        assert config.executor_backend == "thread"
        assert campaign.deployment.optimizer_hints["executor_backend"] == \
            "thread"
        assert "executor backend: thread" in campaign.deployment.describe()

    def test_executor_backend_from_spec(self):
        campaign = CampaignCompiler().compile(
            _spec(num_partitions=4, executor_backend="process",
                  num_workers=3))
        config = campaign.deployment.engine_config
        assert config.executor_backend == "process"
        assert config.num_workers == 3
        assert campaign.deployment.optimizer_hints["executor_backend"] == \
            "process"
        assert "executor backend: process (3 worker processes" in \
            campaign.deployment.describe()

    def test_unknown_executor_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignCompiler().compile(
                _spec(num_partitions=4, executor_backend="fiber"))
