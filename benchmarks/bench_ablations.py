"""A1–A3 — ablations of design choices called out in DESIGN.md.

Three internal design decisions materially affect the numbers every other
experiment reports; each ablation measures the system with and without the
mechanism so the choice is justified by data rather than by assertion:

* **A1 — map-side combining.**  ``reduce_by_key`` pre-aggregates on the map
  side (``combine_by_key``); the ablation re-expresses the same aggregation as
  ``group_by_key`` + reduce, which ships every record through the shuffle.
* **A2 — dataset caching.**  Iterative analytics (k-means) cache their feature
  vectors; the ablation recomputes the lineage on every iteration.
* **A3 — compiler-inserted protection.**  The anonymisation step is inserted
  by the compiler from the policy; the ablation runs the same campaign on the
  open-data policy, quantifying what the protection costs end to end.
"""

from __future__ import annotations

import contextlib
import time
from unittest import mock

from repro.config import EngineConfig
from repro.core.campaign import CampaignRunner
from repro.core.compiler import CampaignCompiler
from repro.engine.context import EngineContext
from repro.engine.dataset import Dataset

from .bench_utils import churn_spec, emit_table


def test_a1_map_side_combine_ablation(benchmark):
    """Shuffle volume and time with vs. without map-side combining."""
    size, partitions = 60_000, 8

    def with_combine():
        with EngineContext(EngineConfig(num_workers=2,
                                        default_parallelism=partitions)) as engine:
            (engine.range(size, num_partitions=partitions)
             .map(lambda value: (value % 100, 1))
             .reduce_by_key(lambda left, right: left + right).collect())
            return engine.metrics.summary()

    def without_combine():
        with EngineContext(EngineConfig(num_workers=2,
                                        default_parallelism=partitions)) as engine:
            (engine.range(size, num_partitions=partitions)
             .map(lambda value: (value % 100, 1))
             .group_by_key()
             .map_values(sum).collect())
            return engine.metrics.summary()

    started = time.perf_counter()
    combined = with_combine()
    combined_time = time.perf_counter() - started
    started = time.perf_counter()
    grouped = without_combine()
    grouped_time = time.perf_counter() - started

    rows = [
        ("reduce_by_key (map-side combine)", combined_time,
         combined["shuffle_bytes"] / 1024.0, combined["records_written"]),
        ("group_by_key + reduce (ablation)", grouped_time,
         grouped["shuffle_bytes"] / 1024.0, grouped["records_written"]),
        ("ratio (ablation / combine)", grouped_time / combined_time,
         grouped["shuffle_bytes"] / max(1, combined["shuffle_bytes"]),
         grouped["records_written"] / max(1, combined["records_written"])),
    ]
    emit_table("A1", "map-side combining ablation (60k records, 100 keys)",
               ["variant", "wall s", "shuffle KiB", "records through shuffle"],
               rows,
               notes=["without map-side combining every input record crosses the "
                      "shuffle; with it only one partial per key and partition does"])
    assert grouped["shuffle_bytes"] > 5 * combined["shuffle_bytes"]

    benchmark.pedantic(with_combine, rounds=3, iterations=1)


def test_a2_cache_ablation(benchmark):
    """Iterative k-means with and without caching the feature vectors."""
    from repro.data.generators import ChurnDataGenerator
    from repro.data.sources import GeneratorSource
    from repro.services.analytics.clustering import KMeansService
    from repro.services.base import ServiceContext

    def run_kmeans(cache_enabled: bool):
        config = EngineConfig(num_workers=2, default_parallelism=4)
        # the ablation: ``cache()`` returns the dataset unmarked
        ablated = contextlib.nullcontext() if cache_enabled else \
            mock.patch.object(Dataset, "cache", lambda self: self)
        with ablated, EngineContext(config) as engine:
            source = GeneratorSource(ChurnDataGenerator(seed=3), 6000)
            dataset = engine.from_source(source, 4)
            service = KMeansService(features=["monthly_charges", "tenure_months",
                                              "data_usage_gb"],
                                    k=4, max_iterations=6, seed=1)
            started = time.perf_counter()
            result = service.execute(ServiceContext(engine=engine, dataset=dataset))
            elapsed = time.perf_counter() - started
            return elapsed, result.metrics, engine.metrics.summary()["cache_hits"]

    cached_time, cached_metrics, cached_hits = run_kmeans(True)
    uncached_time, uncached_metrics, uncached_hits = run_kmeans(False)
    rows = [
        ("vectors cached", cached_time, cached_hits,
         cached_metrics["iterations"], cached_metrics["inertia"]),
        ("cache() unmarked (ablation)", uncached_time, uncached_hits,
         uncached_metrics["iterations"], uncached_metrics["inertia"]),
    ]
    emit_table("A2", "cache ablation on iterative k-means (6k records, 6 iterations)",
               ["variant", "wall s", "cache hits", "iterations", "inertia"],
               rows,
               notes=["the clustering result is identical; only the cost of "
                      "recomputing the feature extraction per iteration changes",
                      "with cache() returning the dataset unmarked nothing is "
                      "kept, so each iteration regenerates the source data"])
    assert cached_metrics["inertia"] == uncached_metrics["inertia"]
    assert cached_hits > uncached_hits

    benchmark.pedantic(lambda: run_kmeans(True), rounds=2, iterations=1)


def test_a3_protection_cost_ablation(benchmark):
    """End-to-end cost of the compiler-inserted protection step."""
    compiler = CampaignCompiler()
    runner = CampaignRunner(compiler.catalog)

    protected_spec = churn_spec(num_records=4000, model="naive_bayes",
                                policy="gdpr_baseline")
    unprotected_spec = churn_spec(num_records=4000, model="naive_bayes",
                                  policy="open_data")
    protected = runner.run(compiler.compile(protected_spec), option_label="gdpr")
    unprotected = runner.run(compiler.compile(unprotected_spec), option_label="open")

    rows = [
        ("open_data (no protection)", unprotected.indicator("execution_time_s"),
         unprotected.indicator("accuracy"), 0.0, 0.0,
         unprotected.indicator("policy_violations")),
        ("gdpr_baseline (protect step inserted)",
         protected.indicator("execution_time_s"),
         protected.indicator("accuracy"),
         protected.indicator("achieved_k"),
         protected.indicator("information_loss"),
         protected.indicator("policy_violations")),
    ]
    emit_table("A3", "cost of compiler-inserted protection (churn, naive Bayes)",
               ["policy", "wall s", "accuracy", "achieved k", "info loss",
                "violations"],
               rows,
               notes=["the protected campaign pays the anonymisation time and a "
                      "small accuracy cost, and in exchange reports k>=5 with zero "
                      "policy violations; the unprotected one is only legal because "
                      "the open-data policy applies to it"])
    assert protected.indicator("achieved_k") >= 5
    assert protected.indicator("policy_violations") == 0

    campaign = compiler.compile(protected_spec)
    benchmark.pedantic(lambda: runner.run(campaign), rounds=2, iterations=1)
