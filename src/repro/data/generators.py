"""Deterministic synthetic data generators for the vertical scenarios.

Each generator embeds a ground-truth pattern so that the analytics services
have something real to find, and so that alternative analytics options (the
Labs "trial and error") genuinely differ in quality:

* **churn** — the churn label follows a logistic model over contract type,
  support calls, tenure and charges;
* **energy** — smart-meter readings follow a daily sinusoidal profile with
  injected spikes/outages labelled as anomalies;
* **web logs** — URL popularity is Zipfian, latency depends on the service,
  and error bursts are injected on one service;
* **retail** — baskets embed association rules (e.g. pasta → tomato sauce);
* **patients** — readmission depends on age, diagnosis and length of stay,
  with heavy quasi-identifier structure for the privacy challenges.

All generators are deterministic given ``seed`` and support generating an
arbitrary index range, which lets a :class:`repro.data.sources.GeneratorSource`
partition the data without materialising it twice.

Every record draws from its own string-seeded ``random.Random``.  The draws
go through the kernels below instead of ``randint``/``choice``/``choices``/
``uniform``: each is the standard library's own expansion of that call, so
it consumes the Mersenne Twister stream identically and the records are the
same to the last bit, without three Python frames per integer draw
(``tests/data/test_generator_draws.py`` holds the original call forms as
its reference).
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from itertools import accumulate
from typing import Any, Dict, Iterable, Iterator, List, Optional

from ..errors import DataError
from .schemas import (CHURN_SCHEMA, ENERGY_SCHEMA, PATIENT_SCHEMA, RETAIL_SCHEMA,
                      WEB_LOG_SCHEMA, Schema)

Record = Dict[str, Any]

_REGIONS = ("north", "south", "east", "west", "centre")


def _cumulative(weights: Iterable[float]) -> tuple:
    """Running totals of the weights, for :func:`_pick`.

    ``random.choices`` builds this same list from ``weights=`` on every call;
    precomputed, the draw is identical without the per-record re-sum.
    """
    return tuple(accumulate(weights))


def _below(getrandbits, n: int) -> int:
    """``Random._randbelow(n)``: a uniform int in ``[0, n)``.

    The draw under ``randrange(a, b)`` (``a + _below(b - a)``), ``randint(a,
    b)`` (``randrange(a, b + 1)``) and ``choice(seq)`` (``seq[_below(len)]``).
    """
    bits = n.bit_length()
    drawn = getrandbits(bits)
    while drawn >= n:
        drawn = getrandbits(bits)
    return drawn


def _pick(random, population, cum_weights: tuple):
    """``Random.choices(population, cum_weights=cum_weights)[0]``."""
    return population[bisect(cum_weights, random() * cum_weights[-1],
                             0, len(cum_weights) - 1)]


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


class DataGenerator:
    """Base class of every synthetic generator."""

    #: The schema the generated records conform to.
    schema: Schema = None  # type: ignore[assignment]
    #: Scenario key used by the Labs catalogue.
    scenario: str = ""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _rng(self, index: int) -> random.Random:
        """A per-record random generator, independent of generation order."""
        return random.Random(f"{type(self).__name__}:{self.seed}:{index}")

    def generate_record(self, index: int) -> Record:
        """Generate the record with global index ``index``."""
        raise NotImplementedError

    def generate_range(self, start: int, end: int) -> Iterator[Record]:
        """Generate the records with indexes in ``[start, end)``."""
        if start < 0 or end < start:
            raise DataError(f"invalid generation range [{start}, {end})")
        for index in range(start, end):
            yield self.generate_record(index)

    def generate(self, count: int) -> List[Record]:
        """Generate the first ``count`` records as a list."""
        return list(self.generate_range(0, count))

    def validate_sample(self, count: int = 50) -> None:
        """Check that a sample of generated records satisfies the schema."""
        self.schema.validate_records(self.generate(count))


class ChurnDataGenerator(DataGenerator):
    """Telecom churn records with a logistic ground-truth churn model."""

    schema = CHURN_SCHEMA
    scenario = "churn"

    CONTRACTS = ("monthly", "one_year", "two_year")
    PAYMENTS = ("card", "bank_transfer", "electronic", "mailed_check")
    _CONTRACT_CUM_WEIGHTS = _cumulative((55, 25, 20))

    def __init__(self, seed: int = 0, churn_base_rate: float = -1.2):
        super().__init__(seed)
        self.churn_base_rate = churn_base_rate

    def generate_record(self, index: int) -> Record:
        rng = self._rng(index)
        random, bits = rng.random, rng.getrandbits
        age = 18 + _below(bits, 73)
        tenure = 1 + _below(bits, 72)
        contract = _pick(random, self.CONTRACTS, self._CONTRACT_CUM_WEIGHTS)
        payment = self.PAYMENTS[_below(bits, len(self.PAYMENTS))]
        monthly = round(15.0 + (120.0 - 15.0) * random(), 2)
        total = round(monthly * tenure * (0.9 + (1.05 - 0.9) * random()), 2)
        support_calls = min(12, int(-math.log(1.0 - random()) / 0.55))
        data_usage = round(0.5 + (60.0 - 0.5) * random(), 2)
        score = (
            self.churn_base_rate
            + 1.6 * (contract == "monthly")
            - 0.035 * tenure
            + 0.30 * support_calls
            + 0.012 * monthly
            - 0.08 * (payment == "bank_transfer")
        )
        churned = int(random() < _sigmoid(score))
        return {
            "customer_id": f"C{index:07d}",
            "age": age,
            "region": _REGIONS[_below(bits, len(_REGIONS))],
            "tenure_months": tenure,
            "contract_type": contract,
            "payment_method": payment,
            "monthly_charges": monthly,
            "total_charges": total,
            "num_support_calls": support_calls,
            "data_usage_gb": data_usage,
            "churned": churned,
        }


class EnergyDataGenerator(DataGenerator):
    """Hourly smart-meter readings with injected, labelled anomalies."""

    schema = ENERGY_SCHEMA
    scenario = "energy"

    def __init__(self, seed: int = 0, num_meters: int = 50,
                 anomaly_rate: float = 0.02):
        super().__init__(seed)
        if num_meters < 1:
            raise DataError("num_meters must be >= 1")
        if not 0.0 <= anomaly_rate < 1.0:
            raise DataError("anomaly_rate must be in [0, 1)")
        self.num_meters = num_meters
        self.anomaly_rate = anomaly_rate
        #: {meter: household size}, filled on first use: a meter's size is one
        #: string-seeded draw, the same for every reading of that meter.  Two
        #: threads missing together store the same value, so no lock.
        self._household_sizes: Dict[int, int] = {}

    def _household_size(self, meter: int) -> int:
        size = self._household_sizes.get(meter)
        if size is None:
            size = random.Random(f"meter:{self.seed}:{meter}").randint(1, 6)
            self._household_sizes[meter] = size
        return size

    def generate_record(self, index: int) -> Record:
        rng = self._rng(index)
        meter = index % self.num_meters
        hour_index = index // self.num_meters
        hour_of_day = hour_index % 24
        household_size = self._household_size(meter)
        base_load = 0.25 + 0.15 * household_size
        daily = 1.0 + 0.8 * math.sin((hour_of_day - 7) / 24.0 * 2 * math.pi) ** 2
        random = rng.random
        kwh = base_load * daily * (0.85 + (1.15 - 0.85) * random())
        voltage = rng.gauss(230.0, 2.5)
        is_anomaly = 0
        if random() < self.anomaly_rate:
            is_anomaly = 1
            if random() < 0.5:
                kwh *= 4.0 + (8.0 - 4.0) * random()      # consumption spike
            else:
                kwh *= 0.0 + (0.05 - 0.0) * random()     # outage
                voltage = 0.0 + (40.0 - 0.0) * random()
        return {
            "meter_id": f"M{meter:05d}",
            "timestamp": float(1_500_000_000 + hour_index * 3600),
            "hour_of_day": hour_of_day,
            "kwh": round(kwh, 4),
            "voltage": round(voltage, 2),
            "household_size": household_size,
            "region": _REGIONS[meter % len(_REGIONS)],
            "is_anomaly": is_anomaly,
        }


class WebLogGenerator(DataGenerator):
    """HTTP access logs with Zipfian URLs and an error-burst pattern."""

    schema = WEB_LOG_SCHEMA
    scenario = "web_logs"

    SERVICES = ("frontend", "catalog", "cart", "payment", "auth")
    METHODS = ("GET", "POST", "PUT", "DELETE")
    _METHOD_CUM_WEIGHTS = _cumulative((78, 15, 5, 2))
    _STATUS_CUM_WEIGHTS = _cumulative((92, 3, 4, 1))

    def __init__(self, seed: int = 0, num_urls: int = 200, num_users: int = 500,
                 error_burst_every: int = 997):
        super().__init__(seed)
        self.num_urls = max(1, num_urls)
        self.num_users = max(1, num_users)
        self.error_burst_every = max(2, error_burst_every)
        # zipf-like weights for URL popularity
        self._url_cum_weights = _cumulative(1.0 / (rank + 1)
                                            for rank in range(self.num_urls))

    def generate_record(self, index: int) -> Record:
        rng = self._rng(index)
        random, bits = rng.random, rng.getrandbits
        url_rank = _pick(random, range(self.num_urls), self._url_cum_weights)
        service = self.SERVICES[url_rank % len(self.SERVICES)]
        method = _pick(random, self.METHODS, self._METHOD_CUM_WEIGHTS)
        base_latency = {"frontend": 35.0, "catalog": 60.0, "cart": 45.0,
                        "payment": 140.0, "auth": 25.0}[service]
        latency = max(1.0, rng.gauss(base_latency, base_latency * 0.3))
        in_error_burst = (index % self.error_burst_every) < 12 and service == "payment"
        if in_error_burst:
            status = (500, 502, 503)[_below(bits, 3)]
            latency *= 3.0 + (8.0 - 3.0) * random()
        else:
            status = _pick(random, (200, 301, 404, 500), self._STATUS_CUM_WEIGHTS)
        has_user = random() < 0.7
        return {
            "timestamp": float(1_600_000_000 + index),
            "ip": f"10.{_below(bits, 256)}.{_below(bits, 256)}.{1 + _below(bits, 254)}",
            "user_id": f"U{_below(bits, self.num_users):06d}" if has_user else None,
            "url": f"/api/v1/resource/{url_rank}",
            "method": method,
            "status": status,
            "latency_ms": round(latency, 2),
            "bytes": 200 + _below(bits, 50_000 - 200 + 1),
            "service": service,
        }


class RetailTransactionGenerator(DataGenerator):
    """Point-of-sale baskets embedding known association rules."""

    schema = RETAIL_SCHEMA
    scenario = "retail"

    PRODUCTS = (
        "pasta", "tomato_sauce", "parmesan", "bread", "butter", "milk", "coffee",
        "sugar", "beer", "chips", "wine", "cheese", "apples", "bananas", "yogurt",
        "cereal", "eggs", "ham", "olive_oil", "chocolate",
    )
    #: (antecedent, consequent, probability of adding the consequent)
    EMBEDDED_RULES = (
        ("pasta", "tomato_sauce", 0.8),
        ("tomato_sauce", "parmesan", 0.6),
        ("bread", "butter", 0.7),
        ("beer", "chips", 0.75),
        ("coffee", "sugar", 0.5),
        ("cereal", "milk", 0.65),
    )
    PRICES = {product: 1.0 + (hash_index % 10) * 0.8
              for hash_index, product in enumerate(PRODUCTS)}
    STORES = ("milan", "rome", "madrid", "paris", "online")

    def __init__(self, seed: int = 0, num_customers: int = 400,
                 mean_basket_size: int = 4):
        super().__init__(seed)
        self.num_customers = max(1, num_customers)
        self.mean_basket_size = max(1, mean_basket_size)

    def generate_record(self, index: int) -> Record:
        rng = self._rng(index)
        size = max(1, min(len(self.PRODUCTS),
                          int(rng.gauss(self.mean_basket_size, 1.5))))
        basket = set(rng.sample(self.PRODUCTS, size))
        random, bits = rng.random, rng.getrandbits
        for antecedent, consequent, probability in self.EMBEDDED_RULES:
            if antecedent in basket and random() < probability:
                basket.add(consequent)
        basket_list = sorted(basket)
        total = round(sum(self.PRICES[product] for product in basket_list), 2)
        return {
            "transaction_id": f"T{index:08d}",
            "customer_id": f"C{_below(bits, self.num_customers):06d}",
            "timestamp": float(1_580_000_000 + index * 37),
            "store": self.STORES[_below(bits, len(self.STORES))],
            "basket": basket_list,
            "total_amount": total,
        }


class PatientRecordGenerator(DataGenerator):
    """Hospital discharge records for the privacy-sensitive challenges."""

    schema = PATIENT_SCHEMA
    scenario = "patients"

    DIAGNOSES = ("cardiac", "oncology", "orthopedic", "respiratory",
                 "neurology", "other")
    GENDERS = ("female", "male", "other")
    _DIAGNOSIS_CUM_WEIGHTS = _cumulative((24, 14, 20, 16, 10, 16))
    _GENDER_CUM_WEIGHTS = _cumulative((49, 49, 2))

    def __init__(self, seed: int = 0, num_zip_codes: int = 40):
        super().__init__(seed)
        self.num_zip_codes = max(1, num_zip_codes)

    def generate_record(self, index: int) -> Record:
        rng = self._rng(index)
        random, bits = rng.random, rng.getrandbits
        age = min(99, max(0, int(rng.gauss(58, 19))))
        diagnosis = _pick(random, self.DIAGNOSES, self._DIAGNOSIS_CUM_WEIGHTS)
        length_of_stay = max(1, int(-math.log(1.0 - random()) / (1 / 5.0)))
        cost = round(800.0 * length_of_stay * (0.8 + (1.6 - 0.8) * random())
                     + 2500.0 * (diagnosis == "oncology"), 2)
        score = (-2.2 + 0.025 * age + 0.09 * length_of_stay
                 + 0.7 * (diagnosis in ("cardiac", "oncology")))
        readmitted = int(random() < _sigmoid(score))
        # zip codes are spread over several districts so that each truncation
        # level of the anonymiser merges only some of them (a gradual lattice)
        district = _below(bits, self.num_zip_codes)
        return {
            "patient_id": f"P{index:07d}",
            "age": age,
            "gender": _pick(random, self.GENDERS, self._GENDER_CUM_WEIGHTS),
            "zip_code": f"{20000 + district * 137 % 9000 + 137:05d}",
            "diagnosis": diagnosis,
            "length_of_stay": length_of_stay,
            "treatment_cost": cost,
            "readmitted": readmitted,
        }


#: Generators by scenario key, used by the Labs challenge catalogue.
_GENERATORS = {
    "churn": ChurnDataGenerator,
    "energy": EnergyDataGenerator,
    "web_logs": WebLogGenerator,
    "retail": RetailTransactionGenerator,
    "patients": PatientRecordGenerator,
}


def generator_for_scenario(scenario: str, seed: int = 0, **kwargs: Any) -> DataGenerator:
    """Instantiate the generator of a built-in vertical scenario."""
    if scenario not in _GENERATORS:
        raise DataError(
            f"unknown scenario {scenario!r}; known: {sorted(_GENERATORS)}")
    return _GENERATORS[scenario](seed=seed, **kwargs)
