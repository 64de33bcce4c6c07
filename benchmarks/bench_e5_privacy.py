"""E5 — regulatory constraints change the campaign, measurably.

Claim exercised (paper §1/§2): the "regulatory barrier" and the privacy
objectives of the declarative model.  The experiment runs the hospital
readmission campaign under the strict health policy while sweeping the
declared k-anonymity level, and regenerates the privacy/utility table: the
achieved k, the information loss, the surviving records and the analytics
quality at each level, plus the unprotected (open-data) reference point.
The same rows, with the seconds the anonymisation step took at each level,
go to ``results/BENCH_E5.json`` via :func:`bench_utils.emit_json`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, List
from unittest import mock

from repro.core.campaign import CampaignRunner
from repro.core.compiler import CampaignCompiler
from repro.governance.anonymization import AnonymizationService

from .bench_utils import emit_json, emit_table

K_LEVELS = (2, 10, 50, 200)


def _patient_spec(k_anonymity: int, policy: str = "health_strict") -> dict:
    spec = {
        "name": f"bench-readmission-k{k_anonymity}",
        "purpose": "research",
        "policy": policy,
        "source": {"scenario": "patients", "num_records": 4000},
        "deployment": {"num_partitions": 4, "num_workers": 2},
        "goals": [{
            "id": "readmit",
            "task": "classification",
            "params": {"label": "readmitted",
                       "features": ["age", "length_of_stay", "treatment_cost"],
                       "categorical_features": ["diagnosis"]},
            "optimize_for": "cost",
            "objectives": [{"indicator": "accuracy", "target": 0.6, "hard": False},
                           {"indicator": "policy_violations", "target": 0,
                            "comparator": "<="}],
        }],
    }
    if k_anonymity > 0:
        spec["privacy"] = {"k_anonymity": k_anonymity, "mask_identifiers": True}
    return spec


@contextmanager
def _timed_anonymisation() -> Iterator[List[float]]:
    """Collect the wall-clock seconds of every ``prepare_anonymize`` step.

    The step collects its (lazy) input itself, so its seconds include the
    masking map and whatever ingestion work was still pending upstream.
    """
    seconds: List[float] = []
    execute = AnonymizationService.execute

    def timed(self, context):
        started = time.perf_counter()
        try:
            return execute(self, context)
        finally:
            seconds.append(time.perf_counter() - started)

    with mock.patch.object(AnonymizationService, "execute", timed):
        yield seconds


def test_e5_privacy_utility_tradeoff(benchmark):
    """Privacy level vs. analytics utility on the health-data campaign."""
    compiler = CampaignCompiler()
    runner = CampaignRunner(compiler.catalog)

    rows = []
    # unprotected reference point (only legal on the open-data policy)
    reference = runner.run(compiler.compile(_patient_spec(0, policy="open_data")),
                           option_label="no-protection")
    rows.append(("none (open_data)", 0, 0.0, 4000,
                 reference.indicator("accuracy"),
                 reference.indicator("policy_violations")))

    timed_rows = [rows[0] + (0.0,)]
    accuracies = {}
    for k in K_LEVELS:
        with _timed_anonymisation() as seconds:
            run = runner.run(compiler.compile(_patient_spec(k)), option_label=f"k={k}")
        accuracies[k] = run.indicator("accuracy")
        rows.append((f"k>={k} (health_strict)",
                     run.indicator("achieved_k"),
                     run.indicator("information_loss"),
                     run.indicator("records_after"),
                     run.indicator("accuracy"),
                     run.indicator("policy_violations")))
        timed_rows.append(rows[-1] + (sum(seconds),))

    title = "privacy / utility trade-off on hospital readmissions"
    headers = ["declared protection", "achieved k", "info loss", "records kept",
               "accuracy", "violations"]
    notes = ["the health policy enforces a minimum of k=10, so declaring "
             "k=2 is silently strengthened",
             "information loss grows with k while accuracy degrades only "
             "moderately: generalised ages keep most of their predictive "
             "power, which is exactly the argument for anonymise-then-analyse"]
    emit_table("E5", title, headers, rows, notes=notes)
    emit_json("E5", title, headers + ["anonymize s"], timed_rows,
              notes=notes + ["anonymize s: wall-clock of the prepare_anonymize step "
                             "(collect + mask + k-anonymise + re-parallelise) on "
                             "4000 records; 0 for the open-data run, which has none"])

    assert all(run_violations == 0 for *_, run_violations in rows[1:])
    # utility never improves as protection grows
    assert accuracies[K_LEVELS[-1]] <= reference.indicator("accuracy") + 0.05

    # benchmarked quantity: one protected campaign execution (k = policy minimum)
    campaign = compiler.compile(_patient_spec(10))
    benchmark.pedantic(lambda: runner.run(campaign), rounds=3, iterations=1)
