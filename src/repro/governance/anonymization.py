"""Anonymisation transforms: masking, generalisation, k-anonymity.

The privacy objectives of a declarative campaign (and the rules of a
data-protection policy) are fulfilled by inserting the
:class:`AnonymizationService` preparation step into the compiled pipeline.
The service masks direct identifiers and generalises quasi-identifiers until
every equivalence class contains at least ``k`` records, suppressing the
records that cannot be generalised enough.  It reports both the achieved *k*
and the information loss, which is what the privacy/utility trade-off
experiment (E5) sweeps.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import AnonymizationError
from ..services.base import (AREA_PREPARATION, Service, ServiceContext, ServiceMetadata,
                             ServiceParameter, ServiceResult)

Record = Dict[str, Any]


def mask_value(value: Any, salt: str = "repro") -> str:
    """Replace a direct identifier with a stable pseudonymous token."""
    digest = hashlib.sha256(f"{salt}:{value}".encode("utf-8")).hexdigest()
    return f"tok_{digest[:12]}"


#: One row of the frequency set: the quasi-identifier components of a record.
ClassKey = Tuple[Any, ...]


def _frequency_set(records: Sequence[Record], fields: Sequence[str],
                   key_of: Optional[Callable[[Any], Any]] = None,
                   ) -> Tuple[List[ClassKey], Dict[ClassKey, int]]:
    """Group ``records`` on ``fields``: one key per record, and ``{key: count}``.

    This is the one place equivalence classes are counted.  A missing field
    reads as ``None``; ``key_of`` maps each value to the component it is
    grouped under (the value itself by default).  Classes keep first-seen
    order.
    """
    columns = [[record.get(field) for record in records] for field in fields]
    keyed = columns if key_of is None else [[key_of(value) for value in column]
                                            for column in columns]
    rows = list(zip(*keyed))
    try:
        return rows, Counter(rows)
    except TypeError:
        for field, column in zip(fields, columns):
            for value in column:
                try:
                    hash(value)
                except TypeError:
                    raise AnonymizationError(
                        f"quasi-identifier {field!r} holds an unhashable value "
                        f"({value!r}); equivalence classes need hashable "
                        f"values") from None
        raise


def measure_k_anonymity(records: Sequence[Record],
                        quasi_identifiers: Sequence[str]) -> int:
    """Return the k-anonymity level of ``records`` w.r.t. the quasi-identifiers.

    The level is the size of the smallest equivalence class (group of records
    sharing every quasi-identifier value).  An empty input has level 0.
    """
    if not records:
        return 0
    if not quasi_identifiers:
        return len(records)
    return min(_frequency_set(records, quasi_identifiers)[1].values())


def _generalize_numeric(value: Any, level: int, base_width: float = 5.0) -> Any:
    """Coarsen a numeric value into a bucket label; wider buckets per level."""
    if value is None or level <= 0:
        return value
    width = base_width * (2 ** (level - 1))
    try:
        low = int(float(value) // width * width)
    except (TypeError, ValueError, OverflowError):
        # NaN, infinities and ints beyond float range have no bucket
        return value
    return f"[{low}-{low + int(width)})"

def _generalize_string(value: Any, level: int) -> Any:
    """Coarsen a string by truncating its suffix; '*' when fully generalised."""
    if value is None or level <= 0:
        return value
    text = str(value)
    keep = max(0, len(text) - 2 * level)
    if keep == 0:
        return "*"
    return text[:keep] + "*" * (len(text) - keep)


def generalize_value(value: Any, level: int, base_width: float = 5.0) -> Any:
    """Generalise a quasi-identifier value to the requested level."""
    if isinstance(value, bool):
        return "*" if level > 0 else value
    if isinstance(value, (int, float)):
        return _generalize_numeric(value, level, base_width)
    return _generalize_string(value, level)


def _hierarchy_key(value: Any) -> Any:
    """The component a raw value is grouped under in the frequency set.

    Values sharing a key must generalise alike at every level, and ``==`` does
    not promise that: ``True``, ``1`` and ``Decimal(1)`` hash together, yet a
    bool coarsens to ``"*"``, an int into a bucket and anything else through
    its ``str()``.  An int and the float equal to it may share a key (both
    bucket ``float(value)``); every other type is told apart by type and text.
    """
    kind = type(value)
    if value is None or kind is str or kind is int or kind is float:
        return value
    return (kind, str(value), value)


def _keyed_value(key: Any) -> Any:
    """The raw value ``_hierarchy_key`` made ``key`` from."""
    return key[2] if type(key) is tuple else key


def _coarsen(classes: Dict[ClassKey, int], position: int,
             coarser: Dict[Any, Any]) -> Dict[ClassKey, int]:
    """Re-key a class histogram, mapping one component through ``coarser``."""
    merged: Dict[ClassKey, int] = {}
    after = position + 1
    for key, count in classes.items():
        key = key[:position] + (coarser[key[position]],) + key[after:]
        merged[key] = merged.get(key, 0) + count
    return merged


class _Hierarchy:
    """Lazily memoised generalisation hierarchy of one quasi-identifier.

    Built over the attribute's distinct values, so ``generalize_value`` runs
    once per distinct value and level however many records carry the value and
    however often the lattice walk asks.
    """

    def __init__(self, keys: Iterable[Any], base_width: float):
        self._values = {key: _keyed_value(key) for key in dict.fromkeys(keys)}
        self._base_width = base_width
        self._labels: Dict[int, Dict[Any, Any]] = {}
        self._parents: Dict[int, Optional[Dict[Any, Any]]] = {}

    def labels(self, level: int) -> Dict[Any, Any]:
        """``{hierarchy key: label at level}``."""
        labels = self._labels.get(level)
        if labels is None:
            labels = self._labels[level] = {
                key: generalize_value(value, level, self._base_width)
                for key, value in self._values.items()}
        return labels

    def parents(self, level: int) -> Optional[Dict[Any, Any]]:
        """``{label at level: label at level + 1}``, or ``None`` if not nested.

        Bucket doubling and suffix truncation nest: a label decides its
        coarser label, so classes roll up without going back to raw values.
        Fractional bucket widths break that (their labels truncate the bounds
        to ints), which shows up here as one label wanting two parents.
        """
        if level not in self._parents:
            parents: Optional[Dict[Any, Any]] = {}
            coarser = self.labels(level + 1)
            for key, label in self.labels(level).items():
                parent = coarser[key]
                known = parents.setdefault(label, parent)
                if known is not parent and known != parent:
                    parents = None
                    break
            self._parents[level] = parents
        return self._parents[level]


def _classes_at(frequency: Dict[ClassKey, int], hierarchies: Sequence[_Hierarchy],
                levels: Sequence[int]) -> Dict[ClassKey, int]:
    """The class histogram of the frequency set generalised to ``levels``."""
    classes = frequency
    for position, (hierarchy, level) in enumerate(zip(hierarchies, levels)):
        classes = _coarsen(classes, position, hierarchy.labels(level))
    return classes


class KAnonymizer:
    """Greedy per-attribute k-anonymiser with suppression.

    Each quasi-identifier has its own generalisation level.  Starting from the
    raw values, the anonymiser repeatedly raises the level of the single
    attribute whose coarsening moves the most records into equivalence classes
    of size ``>= k`` (a greedy walk up the generalisation lattice), stopping as
    soon as the target is met or every attribute is fully generalised.
    Records still in undersized classes afterwards are suppressed.

    The walk never touches records: one pass builds the frequency set
    ``{raw quasi-identifier tuple: count}``, candidates are scored by merging
    its classes through each attribute's memoised hierarchy, and a second pass
    writes the surviving records out.
    """

    def __init__(self, quasi_identifiers: Sequence[str], k: int,
                 max_level: int = 6, numeric_base_width: float = 5.0):
        if k < 1:
            raise AnonymizationError("k must be >= 1")
        if not quasi_identifiers:
            raise AnonymizationError("k-anonymisation needs at least one quasi-identifier")
        self.quasi_identifiers = list(quasi_identifiers)
        self.k = k
        self.max_level = max_level
        self.numeric_base_width = numeric_base_width

    def _search_levels(self, frequency: Dict[ClassKey, int],
                       hierarchies: Sequence[_Hierarchy],
                       ) -> Tuple[List[int], Dict[ClassKey, int]]:
        """Greedy lattice walk: raise one attribute's level per step.

        Returns the level of each attribute and the class histogram there.
        """
        levels = [0] * len(hierarchies)
        classes = _classes_at(frequency, hierarchies, levels)
        while min(classes.values()) < self.k:
            best_position, best_score, best_classes = None, (-1, -1), None
            for position, hierarchy in enumerate(hierarchies):
                if levels[position] >= self.max_level:
                    continue
                parents = hierarchy.parents(levels[position])
                if parents is not None:
                    trial = _coarsen(classes, position, parents)
                else:
                    trial_levels = list(levels)
                    trial_levels[position] += 1
                    trial = _classes_at(frequency, hierarchies, trial_levels)
                score = (sum(count for count in trial.values() if count >= self.k),
                         min(trial.values()))
                if score > best_score:
                    best_position, best_score, best_classes = position, score, trial
            if best_position is None:
                break
            levels[best_position] += 1
            classes = best_classes
        return levels, classes

    def anonymize(self, records: Sequence[Record]) -> Tuple[List[Record], Dict[str, float]]:
        """Return (anonymised records, quality report).

        The report contains the mean generalisation ``level``, the number of
        ``suppressed`` records, the ``achieved_k`` and an ``information_loss``
        score in ``[0, 1]`` combining generalisation depth and suppression.
        """
        records = list(records)
        if not records:
            return [], {"level": 0.0, "suppressed": 0.0, "achieved_k": 0.0,
                        "information_loss": 0.0}
        fields = list(dict.fromkeys(self.quasi_identifiers))
        rows, frequency = _frequency_set(records, fields, _hierarchy_key)
        hierarchies = [_Hierarchy(keys, self.numeric_base_width)
                       for keys in zip(*frequency)]
        levels, classes = self._search_levels(frequency, hierarchies)

        # suppress residual undersized classes; level 0 leaves a value as it is
        label_maps = [hierarchy.labels(level)
                      for hierarchy, level in zip(hierarchies, levels)]
        rewritten = [(field, position) for position, field in enumerate(fields)
                     if levels[position] > 0]
        surviving: Dict[ClassKey, Optional[ClassKey]] = {}
        for row in frequency:
            labels = tuple([labels_of[key] for labels_of, key in zip(label_maps, row)])
            surviving[row] = labels if classes[labels] >= self.k else None
        kept = []
        for record, row in zip(records, rows):
            labels = surviving[row]
            if labels is None:
                continue
            updated = dict(record)
            for field, position in rewritten:
                if field in updated:
                    updated[field] = labels[position]
            kept.append(updated)

        kept_sizes = [count for count in classes.values() if count >= self.k]
        suppressed = len(records) - sum(kept_sizes)
        achieved = min(kept_sizes) if kept_sizes else 0
        mean_level = sum(levels) / len(levels)
        generalisation_loss = mean_level / self.max_level
        suppression_loss = suppressed / len(records)
        information_loss = min(1.0, 0.5 * generalisation_loss + 0.5 * suppression_loss
                               if kept else 1.0)
        report = {"level": float(mean_level), "suppressed": float(suppressed),
                  "achieved_k": float(achieved),
                  "information_loss": float(information_loss)}
        return kept, report


class AnonymizationService(Service):
    """Preparation service applying masking and k-anonymisation.

    This is the service the compiler inserts when the declarative model
    carries privacy objectives, or when the governance checker reports that a
    policy requires anonymisation.
    """

    metadata = ServiceMetadata(
        name="prepare_anonymize",
        area=AREA_PREPARATION,
        capabilities=("prepare:anonymization", "privacy:k_anonymity",
                      "privacy:masking"),
        parameters=(
            ServiceParameter("quasi_identifiers", "list", default=None,
                             description="Quasi-identifier fields (defaults to the schema's)"),
            ServiceParameter("mask_fields", "list", default=None,
                             description="Direct identifiers to mask (defaults to the schema's)"),
            ServiceParameter("k", "int", default=5, description="Target k-anonymity"),
            ServiceParameter("max_level", "int", default=6,
                             description="Maximum generalisation level before suppression"),
            ServiceParameter("salt", "str", default="repro",
                             description="Salt of the masking tokens"),
        ),
        relative_cost=2.5,
        privacy_preserving=True,
        description="Mask identifiers and enforce k-anonymity on quasi-identifiers",
    )

    def execute(self, context: ServiceContext) -> ServiceResult:
        dataset = context.require_dataset()
        schema = context.schema
        mask_fields = self.params["mask_fields"]
        quasi_identifiers = self.params["quasi_identifiers"]
        if mask_fields is None:
            mask_fields = schema.sensitive_fields if schema else []
        if quasi_identifiers is None:
            quasi_identifiers = schema.quasi_identifiers if schema else []
        salt = self.params["salt"]
        k = self.params["k"]

        if mask_fields:
            def mask(record: Record) -> Record:
                updated = dict(record)
                for field in mask_fields:
                    if updated.get(field) is not None:
                        updated[field] = mask_value(updated[field], salt)
                return updated
            dataset = dataset.map(mask)

        metrics: Dict[str, float] = {"masked_fields": float(len(mask_fields)),
                                     "target_k": float(k)}
        report: Dict[str, float] = {}
        if quasi_identifiers and k > 1:
            records = dataset.collect()
            anonymizer = KAnonymizer(quasi_identifiers, k,
                                     max_level=self.params["max_level"])
            anonymized, report = anonymizer.anonymize(records)
            dataset = context.engine.parallelize(
                anonymized, num_partitions=context.engine.config.default_parallelism)
            metrics.update(report)
            metrics["records_after"] = float(len(anonymized))
        else:
            metrics["achieved_k"] = float(measure_k_anonymity(
                dataset.take(10_000), quasi_identifiers)) if quasi_identifiers else 0.0
            metrics["information_loss"] = 0.0
        return ServiceResult(dataset=dataset, schema=schema,
                             artifacts={"masked_fields": list(mask_fields),
                                        "quasi_identifiers": list(quasi_identifiers),
                                        "anonymization_report": report},
                             metrics=metrics)
