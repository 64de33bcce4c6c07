"""Association mining does not depend on the interpreter's string hash seed.

Baskets are frozensets, whose iteration order follows ``PYTHONHASHSEED``.
The service emits every basket's items and its candidate itemsets in sorted
order, so the records of every ``flat_map`` bucket, the byte estimate
sampled from them and the order of the ``frequent_itemsets`` artefact are
the same in every process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

SCRIPT = """
import json
from repro.config import EngineConfig
from repro.data.generators import RetailTransactionGenerator
from repro.engine.context import EngineContext
from repro.services.analytics.association import AssociationRulesService
from repro.services.base import ServiceContext

with EngineContext(EngineConfig(num_workers=1, default_parallelism=4,
                                seed=1)) as engine:
    records = RetailTransactionGenerator(seed=5).generate(800)
    context = ServiceContext(engine=engine,
                             dataset=engine.parallelize(records, 4))
    result = AssociationRulesService(min_support=0.05,
                                     min_confidence=0.3).execute(context)
    print(json.dumps({
        "shuffle_bytes": engine.metrics.summary()["shuffle_bytes"],
        "itemsets": [list(itemset) for itemset
                     in result.artifacts["frequent_itemsets"]],
        "rules": result.artifacts["rules"]}))
"""


def run_with_hash_seed(seed: str) -> dict:
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [source, os.environ.get("PYTHONPATH")])))
    output = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                            check=True, capture_output=True, text=True)
    return json.loads(output.stdout.splitlines()[-1])


def test_mining_is_the_same_under_every_hash_seed():
    first, second = run_with_hash_seed("1"), run_with_hash_seed("2")
    assert first["itemsets"] == second["itemsets"]
    assert first["shuffle_bytes"] == second["shuffle_bytes"]
    assert first["rules"] == second["rules"]
