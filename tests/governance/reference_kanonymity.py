"""Reference k-anonymiser: the naive record-copying algorithm, kept as an oracle.

This is the implementation ``repro.governance.anonymization`` shipped before
it was rebuilt around a frequency set, moved here unchanged: every lattice
step copies and re-generalises every record for every candidate attribute.
It is slow and obviously faithful to the greedy walk's definition, which is
what makes it a useful independent check — the differential test in
``test_anonymization.py`` requires the production anonymiser to return the
same levels, the same records in the same order and the same report.

Only the search and the materialisation live here; the per-value hierarchy
(``generalize_value``) is the production one, so both sides coarsen a value
the same way and any disagreement is the algorithm's.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import AnonymizationError
from repro.governance.anonymization import generalize_value

Record = Dict[str, Any]


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
    classes: Dict[Tuple[Any, ...], int] = {}
    for record in records:
        key = tuple(record.get(field) for field in quasi_identifiers)
        classes[key] = classes.get(key, 0) + 1
    return min(classes.values())


class KAnonymizer:
    """Greedy per-attribute k-anonymiser with suppression.

    Each quasi-identifier has its own generalisation level.  Starting from the
    raw values, the anonymiser repeatedly raises the level of the single
    attribute whose coarsening moves the most records into equivalence classes
    of size ``>= k`` (a greedy walk up the generalisation lattice), stopping as
    soon as the target is met or every attribute is fully generalised.
    Records still in undersized classes afterwards are suppressed.
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

    def _generalize_records(self, records: Sequence[Record],
                            levels: Dict[str, int]) -> List[Record]:
        generalized = []
        for record in records:
            updated = dict(record)
            for field, level in levels.items():
                if field in updated:
                    updated[field] = generalize_value(updated[field], level,
                                                      self.numeric_base_width)
            generalized.append(updated)
        return generalized

    def _records_in_large_classes(self, records: Sequence[Record]) -> int:
        """Number of records whose equivalence class already has size >= k."""
        classes: Dict[Tuple[Any, ...], int] = {}
        for record in records:
            key = tuple(record.get(field) for field in self.quasi_identifiers)
            classes[key] = classes.get(key, 0) + 1
        return sum(count for count in classes.values() if count >= self.k)

    def _search_levels(self, records: Sequence[Record]) -> Dict[str, int]:
        """Greedy lattice walk: raise one attribute's level per step."""
        levels = {field: 0 for field in self.quasi_identifiers}
        generalized = self._generalize_records(records, levels)
        while measure_k_anonymity(generalized, self.quasi_identifiers) < self.k:
            candidates = [field for field in self.quasi_identifiers
                          if levels[field] < self.max_level]
            if not candidates:
                break
            best_field, best_score = None, (-1, -1)
            for field in candidates:
                trial_levels = dict(levels)
                trial_levels[field] += 1
                trial = self._generalize_records(records, trial_levels)
                score = (self._records_in_large_classes(trial),
                         measure_k_anonymity(trial, self.quasi_identifiers))
                if score > best_score:
                    best_field, best_score = field, score
            levels[best_field] += 1
            generalized = self._generalize_records(records, levels)
        return levels

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
        levels = self._search_levels(records)
        generalized = self._generalize_records(records, levels)
        # suppress residual undersized classes
        classes: Dict[Tuple[Any, ...], int] = {}
        for record in generalized:
            key = tuple(record.get(field) for field in self.quasi_identifiers)
            classes[key] = classes.get(key, 0) + 1
        kept = [record for record in generalized
                if classes[tuple(record.get(field) for field in self.quasi_identifiers)]
                >= self.k]
        suppressed = len(generalized) - len(kept)
        achieved = measure_k_anonymity(kept, self.quasi_identifiers) if kept else 0
        mean_level = sum(levels.values()) / len(levels)
        generalisation_loss = mean_level / self.max_level
        suppression_loss = suppressed / len(records)
        information_loss = min(1.0, 0.5 * generalisation_loss + 0.5 * suppression_loss
                               if kept else 1.0)
        report = {"level": float(mean_level), "suppressed": float(suppressed),
                  "achieved_k": float(achieved),
                  "information_loss": float(information_loss)}
        return kept, report
