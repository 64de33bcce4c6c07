"""Seeded input generators and plain-Python reference results.

Nothing here imports ``repro``: the references are the independent oracle
the engine workloads are checked against, and the program under test only
ever sees what these generators produce from ``--seed``.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import Counter
from typing import Any, Dict, List, Tuple

Record = Dict[str, Any]
Pair = Tuple[int, int]

#: Field order of the eight-field record (also the engine-side schema).
FIELDS = ("ts", "ip", "user", "url", "method", "status", "latency", "service")
STR_FIELDS = ("url", "service")

HISTOGRAM_BUCKETS = 10
LATENCY_CUT = 450
SORT_TAKE = 100
#: Burn iterations and key space of the durable workload's map stage.
BURN_ITERATIONS = 40
DURABLE_ROUNDS = 8


def wide_records(seed: int, count: int) -> List[Record]:
    """``count`` eight-field records whose ``user`` key is Zipf-skewed.

    The seed permutes which user ids are hot and draws every value, but the
    skew exponent, the domains and the count are fixed, so every seed asks
    the same amount of work of the engine.
    """
    rng = random.Random(seed)
    num_users = max(50, count // 20)
    user_ids = list(range(num_users))
    rng.shuffle(user_ids)
    zipf = list(itertools.accumulate(
        1.0 / (rank + 1) ** 1.1 for rank in range(num_users)))
    users = rng.choices(user_ids, cum_weights=zipf, k=count)
    ips = rng.choices(range(251), k=count)
    pages = rng.choices(range(20), k=count)
    methods = rng.choices(range(4), k=count)
    statuses = rng.choices((200, 200, 200, 200, 404, 500), k=count)
    latencies = rng.choices(range(900), k=count)
    services = rng.choices(("frontend", "checkout", "search"), k=count)
    return [{"ts": ts, "ip": ip, "user": user,
             "url": f"/api/items/{page}", "method": method, "status": status,
             "latency": latency, "service": service}
            for ts, (ip, user, page, method, status, latency, service)
            in enumerate(zip(ips, users, pages, methods, statuses, latencies,
                             services))]


def join_sides(seed: int, records: List[Record]) -> Tuple[List[Pair], List[Pair]]:
    """The small (broadcast) and mid-sized (shuffle) join sides.

    Both are keyed by ``user``: the dimension table covers a tenth of the
    user ids (1k rows at full size, under the broadcast threshold), the
    shuffle side covers all of them (10k rows, over it).
    """
    rng = random.Random(seed + 1)
    num_users = max(50, len(records) // 20)
    dim_users = rng.sample(range(num_users), max(5, num_users // 10))
    dim = [(user, rng.randrange(1, 5)) for user in dim_users]
    side = [(user, rng.randrange(1, 100)) for user in range(num_users)]
    return dim, side


def user_latency(record: Record) -> Pair:
    """The ``(user, latency)`` pair every wide operator is keyed on."""
    return record["user"], record["latency"]


def latency_then_ts(record: Record) -> Pair:
    """Total order of the sort action (``ts`` is unique)."""
    return record["latency"], record["ts"]


def narrow_reference(records: List[Record]) -> Dict[str, Any]:
    """Expected results of the six ``engine_narrow`` actions."""
    latencies = [record["latency"] for record in records]
    low, high = min(latencies), max(latencies)
    width = (high - low) / HISTOGRAM_BUCKETS
    buckets = Counter(min(HISTOGRAM_BUCKETS - 1, max(0, int((value - low) / width)))
                      for value in latencies)
    total = float(sum(latencies))
    mean = total / len(latencies)
    return {
        "project_count": len(records),
        "udf_chain": [user * 1000 + latency
                      for user, latency in map(user_latency, records)
                      if latency > LATENCY_CUT],
        "stats": {"count": len(latencies), "sum": total, "min": low, "max": high,
                  "mean": mean,
                  "variance": max(0.0, sum(float(v * v) for v in latencies)
                                  / len(latencies) - mean * mean)},
        "cached_count": sum(1 for record in records if record["status"] == 200),
        "flat_map": sum(len(record["url"].split("/")) for record in records),
        "histogram": ([low + i * width for i in range(HISTOGRAM_BUCKETS + 1)],
                      [buckets.get(i, 0) for i in range(HISTOGRAM_BUCKETS)]),
    }


def wide_reference(records: List[Record], dim: List[Pair],
                   side: List[Pair]) -> Dict[str, Any]:
    """Expected results of the six ``engine_wide`` / ``engine_spill`` actions."""
    pairs = [user_latency(record) for record in records]
    sums: Dict[int, int] = {}
    for user, latency in pairs:
        sums[user] = sums.get(user, 0) + latency

    def joined(table: List[Pair]) -> Tuple[int, int]:
        lookup = dict(table)
        products = [latency * lookup[user] for user, latency in pairs
                    if user in lookup]
        return len(products), sum(products)

    return {
        "join_broadcast": joined(dim),
        "join_shuffle": joined(side),
        "group": dict(Counter(user for user, _ in pairs)),
        "sort": heapq.nsmallest(SORT_TAKE, records, key=latency_then_ts),
        "distinct": len({(record["ip"], record["method"]) for record in records}),
        "aggregate": sums,
    }


def durable_pairs(seed: int, count: int) -> List[Pair]:
    """Key/value pairs of the durable workload (keys over ``count // 4`` ids)."""
    rng = random.Random(seed)
    keys = rng.choices(range(max(16, count // 4)), k=count)
    values = rng.choices(range(1, 1_000_000), k=count)
    return list(zip(keys, values))


def burn(pair: Pair) -> Pair:
    """CPU-bound map: a 40-step linear congruential walk of the value."""
    key, value = pair
    for _ in range(BURN_ITERATIONS):
        value = (value * 1_103_515_245 + 12_345) % 2_147_483_647
    return key, value


def rekey(pair: Pair) -> Pair:
    """Move a reduced pair to another key so the next round reshuffles it."""
    key, value = pair
    return (key * 7919 + 13) % 1_000_003, value % 2_147_483_647


def durable_reference(pairs: List[Pair]) -> List[Pair]:
    """Expected sorted output of the chained reduce/rekey program."""
    current = [burn(pair) for pair in pairs]
    for _ in range(DURABLE_ROUNDS):
        sums: Dict[int, int] = {}
        for key, value in current:
            sums[key] = sums.get(key, 0) + value
        current = [rekey(item) for item in sums.items()]
    return sorted(current)


def multi_goal_spec(num_goals: int, seed: int) -> Dict[str, Any]:
    """A campaign with ``num_goals`` descriptive goals (compiler stress input)."""
    goals = []
    for index in range(num_goals):
        aggregation = index % 2 == 0
        goals.append({
            "id": f"goal-{index}",
            "task": "aggregation" if aggregation else "descriptive",
            "params": ({"group_field": "region", "value_field": "monthly_charges",
                        "aggregation": "mean"} if aggregation
                       else {"fields": ["monthly_charges", "tenure_months"]}),
            "objectives": [{"indicator": "execution_time", "target": 300,
                            "hard": False}],
        })
    return {"name": f"bench-multi-{num_goals}", "policy": "gdpr_baseline",
            "source": {"scenario": "churn", "num_records": 2000},
            "deployment": {"num_partitions": 2, "num_workers": 2, "seed": seed},
            "goals": goals}
