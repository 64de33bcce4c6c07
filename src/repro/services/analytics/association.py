"""Association-rule mining (Apriori) for the retail basket scenario.

The frequent-itemset counting runs on the engine: each candidate generation
round is a ``flat_map`` + ``reduce_by_key`` over the baskets, so the execution
profile exhibits one shuffle per itemset size, as a distributed Apriori would.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, FrozenSet, List, Tuple

from ...errors import ServiceConfigurationError, ServiceExecutionError
from ..base import (AREA_ANALYTICS, ServiceContext, ServiceMetadata, ServiceParameter,
                    ServiceResult)
from .base import AnalyticsService

Record = Dict[str, Any]


class AssociationRulesService(AnalyticsService):
    """Apriori frequent itemsets and association rules."""

    metadata = ServiceMetadata(
        name="mine_association_rules",
        area=AREA_ANALYTICS,
        capabilities=("task:association_rules", "model:apriori", "output:rules"),
        parameters=(
            ServiceParameter("basket_field", "str", default="basket",
                             description="Field holding the list of items"),
            ServiceParameter("min_support", "float", default=0.05,
                             description="Minimum fraction of baskets containing the itemset"),
            ServiceParameter("min_confidence", "float", default=0.4),
            ServiceParameter("max_itemset_size", "int", default=3),
        ),
        relative_cost=4.0,
        interpretable=True,
        description="Apriori association-rule mining over baskets",
    )

    def execute(self, context: ServiceContext) -> ServiceResult:
        basket_field = self.params["basket_field"]
        min_support = self.params["min_support"]
        min_confidence = self.params["min_confidence"]
        max_size = self.params["max_itemset_size"]
        if not 0.0 < min_support <= 1.0:
            raise ServiceConfigurationError("min_support must be in (0, 1]")
        if not 0.0 < min_confidence <= 1.0:
            raise ServiceConfigurationError("min_confidence must be in (0, 1]")

        dataset = context.require_dataset()
        baskets = dataset.map(
            lambda record: frozenset(record.get(basket_field) or ())).cache()
        num_baskets = baskets.count()
        if num_baskets == 0:
            raise ServiceExecutionError("association mining received an empty dataset")
        min_count = max(1, int(min_support * num_baskets))

        started = time.perf_counter()
        support_counts: Dict[FrozenSet[str], int] = {}

        # size-1 itemsets; items and candidates go out sorted (candidates as
        # sorted tuples), never in frozenset order, which follows the
        # per-process string hash seed
        item_counts = (baskets.flat_map(lambda basket: ((item, 1)
                                                        for item in sorted(basket)))
                       .reduce_by_key(lambda left, right: left + right)
                       .filter(lambda pair: pair[1] >= min_count)
                       .collect())
        current_frequent = {frozenset([item]) for item, _ in item_counts}
        support_counts.update({frozenset([item]): count for item, count in item_counts})

        size = 1
        while current_frequent and size < max_size:
            size += 1
            candidates = self._candidates(current_frequent, size)
            if not candidates:
                break
            itemsets = [frozenset(candidate) for candidate in candidates]

            def count_candidates(basket: FrozenSet[str], candidates=candidates,
                                 itemsets=itemsets) -> List[Tuple[Tuple[str, ...], int]]:
                return [(candidate, 1)
                        for candidate, itemset in zip(candidates, itemsets)
                        if itemset <= basket]

            counted = (baskets.flat_map(count_candidates)
                       .reduce_by_key(lambda left, right: left + right)
                       .filter(lambda pair: pair[1] >= min_count)
                       .collect())
            current_frequent = {frozenset(itemset) for itemset, _ in counted}
            support_counts.update((frozenset(itemset), count)
                                  for itemset, count in counted)

        rules = self._rules(support_counts, num_baskets, min_confidence)
        mining_time = time.perf_counter() - started

        rules_records = [
            {"antecedent": sorted(antecedent), "consequent": sorted(consequent),
             "support": support, "confidence": confidence, "lift": lift}
            for antecedent, consequent, support, confidence, lift in rules]
        return ServiceResult(
            dataset=context.engine.parallelize(rules_records) if rules_records
            else context.engine.empty(),
            schema=None,
            artifacts={"frequent_itemsets": {tuple(sorted(itemset)): count
                                             for itemset, count in support_counts.items()},
                       "rules": rules_records},
            metrics={"num_frequent_itemsets": float(len(support_counts)),
                     "num_rules": float(len(rules_records)),
                     "max_lift": max((rule[4] for rule in rules), default=0.0),
                     "training_time_s": mining_time,
                     "baskets": float(num_baskets)})

    @staticmethod
    def _candidates(frequent: set, size: int) -> List[Tuple[str, ...]]:
        """Generate size-``size`` candidates from (size-1)-frequent itemsets,
        each a sorted tuple, in sorted order."""
        items = sorted({item for itemset in frequent for item in itemset})
        # prune: every (size-1)-subset must be frequent
        return [combination
                for combination in itertools.combinations(items, size)
                if all(frozenset(subset) in frequent for subset
                       in itertools.combinations(combination, size - 1))]

    @staticmethod
    def _rules(support_counts: Dict[FrozenSet[str], int], num_baskets: int,
               min_confidence: float) -> List[Tuple[frozenset, frozenset, float, float, float]]:
        """Derive rules antecedent => consequent from the frequent itemsets."""
        rules = []
        for itemset, count in support_counts.items():
            if len(itemset) < 2:
                continue
            support = count / num_baskets
            for split_size in range(1, len(itemset)):
                for antecedent_items in itertools.combinations(sorted(itemset), split_size):
                    antecedent = frozenset(antecedent_items)
                    consequent = itemset - antecedent
                    antecedent_count = support_counts.get(antecedent)
                    consequent_count = support_counts.get(consequent)
                    if not antecedent_count or not consequent_count:
                        continue
                    confidence = count / antecedent_count
                    if confidence < min_confidence:
                        continue
                    lift = confidence / (consequent_count / num_baskets)
                    rules.append((antecedent, consequent, support, confidence, lift))
        rules.sort(key=lambda rule: (-rule[3], -rule[2]))
        return rules
