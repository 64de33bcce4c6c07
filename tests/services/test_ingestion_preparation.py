"""Ingestion and preparation services."""

from __future__ import annotations

import copy
import hashlib

import pytest

from repro.data.schemas import CHURN_SCHEMA
from repro.data.sources import InMemorySource, write_csv
from repro.errors import ServiceConfigurationError
from repro.services.base import ServiceContext
from repro.services.ingestion import (CSVIngestionService, GeneratorIngestionService,
                                      InMemoryIngestionService, SourceIngestionService)
from repro.services.preparation import (CategoricalEncodingService,
                                        DeduplicationService, FieldProjectionService,
                                        FilterService, MissingValueImputationService,
                                        NormalizationService, TrainTestSplitService)


class TestIngestionServices:
    def test_generator_ingestion(self, engine):
        result = GeneratorIngestionService(scenario="churn", num_records=100) \
            .execute(ServiceContext(engine=engine))
        assert result.dataset.count() == 100
        assert result.schema is CHURN_SCHEMA
        assert result.metrics["ingested_records"] == 100

    def test_generator_ingestion_unknown_scenario(self, engine):
        from repro.errors import DataError
        service = GeneratorIngestionService(scenario="nope", num_records=10)
        with pytest.raises(DataError):
            service.execute(ServiceContext(engine=engine))

    def test_source_ingestion(self, engine):
        source = InMemorySource("mem", [{"v": i} for i in range(20)])
        result = SourceIngestionService(source=source, num_partitions=2) \
            .execute(ServiceContext(engine=engine))
        assert result.dataset.count() == 20

    def test_source_ingestion_rejects_non_source(self, engine):
        service = SourceIngestionService(source="not-a-source")
        with pytest.raises(ServiceConfigurationError):
            service.execute(ServiceContext(engine=engine))

    def test_records_ingestion(self, engine):
        records = [{"v": 1}, {"v": 2}]
        result = InMemoryIngestionService(records=records) \
            .execute(ServiceContext(engine=engine))
        assert result.dataset.collect() == records

    def test_schema_bearing_records_survive_writing_services(self, engine,
                                                             churn_records):
        """A full-width scan aliases the ingested dicts; services copy."""
        records = churn_records[:200]
        before = copy.deepcopy(records)
        result = InMemoryIngestionService(records=records, schema=CHURN_SCHEMA) \
            .execute(ServiceContext(engine=engine))
        for service in (MissingValueImputationService(fields=["monthly_charges"]),
                        NormalizationService(fields=["monthly_charges"]),
                        CategoricalEncodingService(fields=["contract_type"]),
                        TrainTestSplitService()):
            result = service.execute(ServiceContext(
                engine=engine, dataset=result.dataset, schema=result.schema))
        assert result.dataset.count() == len(records)
        assert records == before

    def test_records_ingestion_with_schema_object(self, engine):
        result = InMemoryIngestionService(records=[{"v": 1}], schema=None) \
            .execute(ServiceContext(engine=engine))
        assert result.schema is None

    def test_csv_ingestion(self, engine, tmp_path, churn_records):
        path = str(tmp_path / "churn.csv")
        write_csv(path, churn_records[:50], CHURN_SCHEMA)
        result = CSVIngestionService(path=path, scenario="churn") \
            .execute(ServiceContext(engine=engine))
        assert result.dataset.count() == 50
        assert result.schema is CHURN_SCHEMA


@pytest.fixture()
def churn_context(engine, churn_records):
    """A service context holding a small churn dataset."""
    dataset = engine.parallelize(churn_records[:400], 4)
    return ServiceContext(engine=engine, dataset=dataset, schema=CHURN_SCHEMA)


class TestProjectionAndFilter:
    def test_projection_keeps_only_requested_fields(self, churn_context):
        result = FieldProjectionService(fields=["age", "churned"]).execute(churn_context)
        record = result.dataset.first()
        assert set(record) == {"age", "churned"}
        assert result.schema.field_names == ["age", "churned"]

    def test_filter_equality(self, churn_context):
        result = FilterService(field="contract_type", operator="==",
                               value="monthly").execute(churn_context)
        assert all(r["contract_type"] == "monthly" for r in result.dataset.take(50))

    def test_filter_numeric_comparison(self, churn_context):
        result = FilterService(field="age", operator=">=", value=60).execute(churn_context)
        collected = result.dataset.collect()
        assert collected and all(r["age"] >= 60 for r in collected)

    def test_filter_in_operator(self, churn_context):
        result = FilterService(field="region", operator="in",
                               value=["north", "south"]).execute(churn_context)
        assert all(r["region"] in ("north", "south") for r in result.dataset.take(50))

    def test_filter_unknown_operator(self, churn_context):
        service = FilterService(field="age", operator="~=", value=1)
        with pytest.raises(ServiceConfigurationError):
            service.execute(churn_context)


class TestImputation:
    def test_mean_imputation_fills_missing(self, engine):
        records = [{"x": 10.0}, {"x": None}, {"x": 20.0}]
        context = ServiceContext(engine=engine, dataset=engine.parallelize(records, 1))
        result = MissingValueImputationService(fields=["x"]).execute(context)
        values = [r["x"] for r in result.dataset.collect()]
        assert values == [10.0, 15.0, 20.0]

    def test_mode_imputation_for_strings(self, engine):
        records = [{"c": "a"}, {"c": "a"}, {"c": None}, {"c": "b"}]
        context = ServiceContext(engine=engine, dataset=engine.parallelize(records, 1))
        result = MissingValueImputationService(fields=["c"], strategy="mode") \
            .execute(context)
        assert [r["c"] for r in result.dataset.collect()] == ["a", "a", "a", "b"]

    def test_constant_imputation(self, engine):
        records = [{"x": None}]
        context = ServiceContext(engine=engine, dataset=engine.parallelize(records, 1))
        result = MissingValueImputationService(fields=["x"], strategy="constant",
                                               fill_value=-1).execute(context)
        assert result.dataset.first()["x"] == -1

    def test_unknown_strategy_rejected(self, engine):
        records = [{"x": 1.0}]
        context = ServiceContext(engine=engine, dataset=engine.parallelize(records, 1))
        with pytest.raises(ServiceConfigurationError):
            MissingValueImputationService(fields=["x"], strategy="wat").execute(context)


class TestNormalizationAndEncoding:
    def test_zscore_normalisation_centres_values(self, churn_context):
        result = NormalizationService(fields=["monthly_charges"]).execute(churn_context)
        stats = result.dataset.map(lambda r: r["monthly_charges"]).stats()
        assert abs(stats["mean"]) < 1e-6
        assert stats["stdev"] == pytest.approx(1.0, abs=0.05)

    def test_minmax_normalisation_bounds(self, churn_context):
        result = NormalizationService(fields=["age"], method="minmax") \
            .execute(churn_context)
        stats = result.dataset.map(lambda r: r["age"]).stats()
        assert stats["min"] == pytest.approx(0.0)
        assert stats["max"] == pytest.approx(1.0)

    def test_unknown_normalisation_method(self, churn_context):
        with pytest.raises(ServiceConfigurationError):
            NormalizationService(fields=["age"], method="log").execute(churn_context)

    def test_onehot_encoding_creates_indicator_columns(self, churn_context):
        result = CategoricalEncodingService(fields=["contract_type"]).execute(churn_context)
        record = result.dataset.first()
        assert "contract_type" not in record
        indicator_keys = [k for k in record if k.startswith("contract_type=")]
        assert len(indicator_keys) == 3
        assert sum(record[k] for k in indicator_keys) == 1.0

    def test_ordinal_encoding(self, churn_context):
        result = CategoricalEncodingService(fields=["region"], method="ordinal") \
            .execute(churn_context)
        record = result.dataset.first()
        assert "region_code" in record
        assert record["region_code"] >= 0


class TestSplitAndDedup:
    def test_split_tags_every_record(self, churn_context):
        result = TrainTestSplitService(test_fraction=0.25).execute(churn_context)
        tags = result.dataset.map(lambda r: r["__split__"]).count_by_value()
        assert set(tags) == {"train", "test"}
        fraction = tags["test"] / (tags["test"] + tags["train"])
        assert 0.15 < fraction < 0.35

    def test_split_is_deterministic(self, churn_context):
        first = TrainTestSplitService(seed=5).execute(churn_context).dataset.collect()
        second = TrainTestSplitService(seed=5).execute(churn_context).dataset.collect()
        assert first == second

    def test_split_assignment_is_pinned(self, churn_context):
        # digest recorded before the per-record ``import random`` was hoisted:
        # a changed tag would silently move every downstream train/test metric
        tagged = TrainTestSplitService(seed=5).execute(churn_context).dataset.collect()
        tags = "".join(record["__split__"][1] for record in tagged)
        assert hashlib.sha256(tags.encode()).hexdigest() == (
            "cc129af8ef3c85137ca7f599d6222e646055519a29a2368adda85451fba0ad80")

    def test_split_invalid_fraction(self, churn_context):
        with pytest.raises(ServiceConfigurationError):
            TrainTestSplitService(test_fraction=1.5).execute(churn_context)

    def test_dedup_removes_exact_duplicates(self, engine):
        records = [{"a": 1, "b": "x"}, {"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        context = ServiceContext(engine=engine, dataset=engine.parallelize(records, 2))
        result = DeduplicationService().execute(context)
        assert result.metrics["duplicates_removed"] == 1
        assert result.dataset.count() == 2

    def test_dedup_by_subset_of_fields(self, engine):
        records = [{"id": 1, "v": "a"}, {"id": 1, "v": "b"}, {"id": 2, "v": "c"}]
        context = ServiceContext(engine=engine, dataset=engine.parallelize(records, 2))
        result = DeduplicationService(fields=["id"]).execute(context)
        assert result.dataset.count() == 2

    def test_dedup_handles_list_values(self, engine):
        records = [{"basket": ["a", "b"]}, {"basket": ["a", "b"]}]
        context = ServiceContext(engine=engine, dataset=engine.parallelize(records, 1))
        assert DeduplicationService().execute(context).dataset.count() == 1
