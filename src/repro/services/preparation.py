"""Data-preparation services: cleaning, encoding, filtering, splitting.

Preparation services transform the record dataset handed over by ingestion and
pass an updated schema downstream.  They are the design stage where trainees
typically discover "interferences": a projection that drops the feature an
analytics option needed, a normalisation that helps one model and not another,
an imputation that changes class balance.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from ..errors import ServiceConfigurationError
from .base import (AREA_PREPARATION, Service, ServiceContext, ServiceMetadata,
                   ServiceParameter, ServiceResult)


class FieldProjectionService(Service):
    """Keep only the listed fields of every record."""

    metadata = ServiceMetadata(
        name="prepare_project",
        area=AREA_PREPARATION,
        capabilities=("prepare:projection",),
        parameters=(
            ServiceParameter("fields", "list", required=True,
                             description="Fields to keep"),
        ),
        relative_cost=0.5,
        supports_streaming=True,
        description="Project records onto a subset of their fields",
    )

    def execute(self, context: ServiceContext) -> ServiceResult:
        fields: List[str] = self.params["fields"]
        # a first-class projection (not an opaque map) so the engine's plan
        # optimizer can push it below shuffle boundaries and fuse it
        dataset = context.require_dataset().project(fields)
        schema = context.schema.project(
            [name for name in fields if context.schema.has_field(name)]
        ) if context.schema else None
        return ServiceResult(dataset=dataset, schema=schema,
                             metrics={"projected_fields": float(len(fields))})


class FilterService(Service):
    """Keep records satisfying a simple ``field operator value`` condition."""

    _OPERATORS = {
        "==": lambda left, right: left == right,
        "!=": lambda left, right: left != right,
        ">": lambda left, right: left is not None and left > right,
        ">=": lambda left, right: left is not None and left >= right,
        "<": lambda left, right: left is not None and left < right,
        "<=": lambda left, right: left is not None and left <= right,
        "in": lambda left, right: left in right,
        "not_in": lambda left, right: left not in right,
    }

    metadata = ServiceMetadata(
        name="prepare_filter",
        area=AREA_PREPARATION,
        capabilities=("prepare:filter",),
        parameters=(
            ServiceParameter("field", "str", required=True),
            ServiceParameter("operator", "str", default="==",
                             description="One of ==, !=, >, >=, <, <=, in, not_in"),
            ServiceParameter("value", "str", required=True),
        ),
        relative_cost=0.5,
        supports_streaming=True,
        description="Filter records with a field/operator/value predicate",
    )

    def execute(self, context: ServiceContext) -> ServiceResult:
        operator = self.params["operator"]
        if operator not in self._OPERATORS:
            raise ServiceConfigurationError(
                f"unknown filter operator {operator!r}; known: {sorted(self._OPERATORS)}")
        field, value = self.params["field"], self.params["value"]
        compare = self._OPERATORS[operator]
        dataset = context.require_dataset().filter(
            lambda record: compare(record.get(field), value))
        return ServiceResult(dataset=dataset, schema=context.schema)


class MissingValueImputationService(Service):
    """Replace ``None`` values of the given fields with a computed statistic."""

    metadata = ServiceMetadata(
        name="prepare_impute",
        area=AREA_PREPARATION,
        capabilities=("prepare:imputation", "prepare:cleaning"),
        parameters=(
            ServiceParameter("fields", "list", required=True,
                             description="Fields whose missing values are imputed"),
            ServiceParameter("strategy", "str", default="mean",
                             description="mean, median, mode or constant"),
            ServiceParameter("fill_value", "float", default=0.0,
                             description="Value used by the 'constant' strategy"),
        ),
        relative_cost=1.0,
        description="Impute missing values with mean/median/mode/constant",
    )

    def _fill_values(self, records: List[Dict[str, Any]], fields: List[str]) -> Dict[str, Any]:
        strategy = self.params["strategy"]
        fills: Dict[str, Any] = {}
        for field in fields:
            present = [record[field] for record in records
                       if record.get(field) is not None]
            if not present:
                fills[field] = self.params["fill_value"]
            elif strategy == "constant":
                fills[field] = self.params["fill_value"]
            elif strategy == "mode" or isinstance(present[0], str):
                counts: Dict[Any, int] = {}
                for value in present:
                    counts[value] = counts.get(value, 0) + 1
                fills[field] = max(counts.items(), key=lambda item: item[1])[0]
            elif strategy == "median":
                ordered = sorted(present)
                fills[field] = ordered[len(ordered) // 2]
            elif strategy == "mean":
                fills[field] = sum(present) / len(present)
            else:
                raise ServiceConfigurationError(
                    f"unknown imputation strategy {strategy!r}")
        return fills

    def execute(self, context: ServiceContext) -> ServiceResult:
        fields: List[str] = self.params["fields"]
        dataset = context.require_dataset()
        sample = dataset.take(5_000)
        fills = self._fill_values(sample, fields)

        def impute(record: Dict[str, Any]) -> Dict[str, Any]:
            updated = dict(record)
            for field, fill in fills.items():
                if updated.get(field) is None:
                    updated[field] = fill
            return updated

        imputed_sample = sum(1 for record in sample
                             for field in fields if record.get(field) is None)
        return ServiceResult(dataset=dataset.map(impute), schema=context.schema,
                             artifacts={"fill_values": fills},
                             metrics={"missing_in_sample": float(imputed_sample)})


class NormalizationService(Service):
    """Scale numeric fields with min-max or z-score normalisation."""

    metadata = ServiceMetadata(
        name="prepare_normalize",
        area=AREA_PREPARATION,
        capabilities=("prepare:normalization", "prepare:scaling"),
        parameters=(
            ServiceParameter("fields", "list", required=True),
            ServiceParameter("method", "str", default="zscore",
                             description="zscore or minmax"),
        ),
        relative_cost=1.0,
        description="Normalise numeric fields (z-score or min-max)",
    )

    def execute(self, context: ServiceContext) -> ServiceResult:
        fields: List[str] = self.params["fields"]
        method = self.params["method"]
        if method not in ("zscore", "minmax"):
            raise ServiceConfigurationError(f"unknown normalisation method {method!r}")
        dataset = context.require_dataset()
        stats: Dict[str, Dict[str, float]] = {}
        for field in fields:
            stats[field] = dataset.map(
                lambda record, field=field: float(record.get(field) or 0.0)).stats()

        def normalise(record: Dict[str, Any]) -> Dict[str, Any]:
            updated = dict(record)
            for field in fields:
                value = float(updated.get(field) or 0.0)
                field_stats = stats[field]
                if method == "zscore":
                    scale = field_stats["stdev"] or 1.0
                    updated[field] = (value - field_stats["mean"]) / scale
                else:
                    span = (field_stats["max"] - field_stats["min"]) or 1.0
                    updated[field] = (value - field_stats["min"]) / span
            return updated

        return ServiceResult(dataset=dataset.map(normalise), schema=context.schema,
                             artifacts={"field_stats": stats},
                             metrics={"normalized_fields": float(len(fields))})


class CategoricalEncodingService(Service):
    """One-hot or ordinal encode categorical fields into numeric ones."""

    metadata = ServiceMetadata(
        name="prepare_encode",
        area=AREA_PREPARATION,
        capabilities=("prepare:encoding",),
        parameters=(
            ServiceParameter("fields", "list", required=True),
            ServiceParameter("method", "str", default="onehot",
                             description="onehot or ordinal"),
        ),
        relative_cost=1.0,
        description="Encode categorical fields as numbers",
    )

    def execute(self, context: ServiceContext) -> ServiceResult:
        fields: List[str] = self.params["fields"]
        method = self.params["method"]
        if method not in ("onehot", "ordinal"):
            raise ServiceConfigurationError(f"unknown encoding method {method!r}")
        dataset = context.require_dataset()
        categories: Dict[str, List[Any]] = {}
        for field in fields:
            values = dataset.map(
                lambda record, field=field: record.get(field)).distinct().collect()
            categories[field] = sorted((v for v in values if v is not None),
                                       key=lambda value: str(value))

        def encode(record: Dict[str, Any]) -> Dict[str, Any]:
            updated = dict(record)
            for field in fields:
                value = updated.pop(field, None)
                if method == "ordinal":
                    try:
                        updated[f"{field}_code"] = float(categories[field].index(value))
                    except ValueError:
                        updated[f"{field}_code"] = -1.0
                else:
                    for candidate in categories[field]:
                        updated[f"{field}={candidate}"] = 1.0 if value == candidate else 0.0
            return updated

        encoded_columns = (sum(len(values) for values in categories.values())
                           if method == "onehot" else len(fields))
        return ServiceResult(dataset=dataset.map(encode), schema=None,
                             artifacts={"categories": categories},
                             metrics={"encoded_columns": float(encoded_columns)})


class TrainTestSplitService(Service):
    """Tag every record with a deterministic train/test split marker."""

    metadata = ServiceMetadata(
        name="prepare_split",
        area=AREA_PREPARATION,
        capabilities=("prepare:split",),
        parameters=(
            ServiceParameter("test_fraction", "float", default=0.3),
            ServiceParameter("seed", "int", default=13),
            ServiceParameter("split_field", "str", default="__split__"),
        ),
        relative_cost=0.5,
        description="Mark records as train or test deterministically",
    )

    def execute(self, context: ServiceContext) -> ServiceResult:
        fraction = self.params["test_fraction"]
        if not 0.0 < fraction < 1.0:
            raise ServiceConfigurationError("test_fraction must be in (0, 1)")
        seed = self.params["seed"]
        split_field = self.params["split_field"]

        def tag(record: Dict[str, Any]) -> Dict[str, Any]:
            digest = random.Random(f"{seed}:{sorted(record.items())!r}").random()
            updated = dict(record)
            updated[split_field] = "test" if digest < fraction else "train"
            return updated

        return ServiceResult(dataset=context.require_dataset().map(tag),
                             schema=context.schema,
                             metrics={"test_fraction": fraction})


class DeduplicationService(Service):
    """Drop duplicate records, optionally considering only some fields."""

    metadata = ServiceMetadata(
        name="prepare_dedup",
        area=AREA_PREPARATION,
        capabilities=("prepare:deduplication", "prepare:cleaning"),
        parameters=(
            ServiceParameter("fields", "list", default=None,
                             description="Fields defining identity; all fields if omitted"),
        ),
        relative_cost=1.5,
        description="Remove duplicate records",
    )

    def execute(self, context: ServiceContext) -> ServiceResult:
        fields: Optional[List[str]] = self.params["fields"]
        dataset = context.require_dataset()
        before = dataset.count()

        def key_of(record: Dict[str, Any]):
            if fields:
                return tuple((name, record.get(name)) for name in fields)
            return tuple(sorted((name, _freeze(value)) for name, value in record.items()))

        deduplicated = (dataset.map(lambda record: (key_of(record), record))
                        .reduce_by_key(lambda left, right: left)
                        .values())
        after = deduplicated.count()
        return ServiceResult(dataset=deduplicated, schema=context.schema,
                             metrics={"records_before": float(before),
                                      "records_after": float(after),
                                      "duplicates_removed": float(before - after)})


def _freeze(value: Any) -> Any:
    """Make list values hashable for deduplication keys."""
    if isinstance(value, list):
        return tuple(value)
    return value
