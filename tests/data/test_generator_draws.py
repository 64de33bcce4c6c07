"""Differential suite: the generators' draw kernels against the stdlib calls.

Each reference below is a generator whose ``generate_record`` keeps the
``random.Random`` call forms (``randint``, ``choice``, ``choices(...,
cum_weights=)``, ``uniform``, ``expovariate``) the kernels expand.  The
expansions must consume the per-record Mersenne Twister stream exactly as
those calls do, so every record — every float to the last bit — is equal.
Hypothesis varies the seed, the index window and the constructor parameters;
the branch tests pin windows that reach every conditional draw.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generators import (_REGIONS, ChurnDataGenerator,
                                   EnergyDataGenerator, PatientRecordGenerator,
                                   RetailTransactionGenerator, WebLogGenerator,
                                   _sigmoid)


class ReferenceChurn(ChurnDataGenerator):
    def generate_record(self, index):
        rng = self._rng(index)
        age = rng.randint(18, 90)
        tenure = rng.randint(1, 72)
        contract = rng.choices(self.CONTRACTS, cum_weights=self._CONTRACT_CUM_WEIGHTS)[0]
        payment = rng.choice(self.PAYMENTS)
        monthly = round(rng.uniform(15.0, 120.0), 2)
        total = round(monthly * tenure * rng.uniform(0.9, 1.05), 2)
        support_calls = min(12, int(rng.expovariate(0.55)))
        data_usage = round(rng.uniform(0.5, 60.0), 2)
        score = (
            self.churn_base_rate
            + 1.6 * (contract == "monthly")
            - 0.035 * tenure
            + 0.30 * support_calls
            + 0.012 * monthly
            - 0.08 * (payment == "bank_transfer")
        )
        churned = int(rng.random() < _sigmoid(score))
        return {
            "customer_id": f"C{index:07d}",
            "age": age,
            "region": _REGIONS[rng.randrange(len(_REGIONS))],
            "tenure_months": tenure,
            "contract_type": contract,
            "payment_method": payment,
            "monthly_charges": monthly,
            "total_charges": total,
            "num_support_calls": support_calls,
            "data_usage_gb": data_usage,
            "churned": churned,
        }


class ReferenceEnergy(EnergyDataGenerator):
    def generate_record(self, index):
        rng = self._rng(index)
        meter = index % self.num_meters
        hour_index = index // self.num_meters
        hour_of_day = hour_index % 24
        household_size = self._household_size(meter)
        base_load = 0.25 + 0.15 * household_size
        daily = 1.0 + 0.8 * math.sin((hour_of_day - 7) / 24.0 * 2 * math.pi) ** 2
        kwh = base_load * daily * rng.uniform(0.85, 1.15)
        voltage = rng.gauss(230.0, 2.5)
        is_anomaly = 0
        if rng.random() < self.anomaly_rate:
            is_anomaly = 1
            if rng.random() < 0.5:
                kwh *= rng.uniform(4.0, 8.0)      # consumption spike
            else:
                kwh *= rng.uniform(0.0, 0.05)     # outage
                voltage = rng.uniform(0.0, 40.0)
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


class ReferenceWebLog(WebLogGenerator):
    def generate_record(self, index):
        rng = self._rng(index)
        url_rank = rng.choices(range(self.num_urls), cum_weights=self._url_cum_weights)[0]
        service = self.SERVICES[url_rank % len(self.SERVICES)]
        method = rng.choices(self.METHODS, cum_weights=self._METHOD_CUM_WEIGHTS)[0]
        base_latency = {"frontend": 35.0, "catalog": 60.0, "cart": 45.0,
                        "payment": 140.0, "auth": 25.0}[service]
        latency = max(1.0, rng.gauss(base_latency, base_latency * 0.3))
        in_error_burst = (index % self.error_burst_every) < 12 and service == "payment"
        if in_error_burst:
            status = rng.choice((500, 502, 503))
            latency *= rng.uniform(3.0, 8.0)
        else:
            status = rng.choices((200, 301, 404, 500), cum_weights=self._STATUS_CUM_WEIGHTS)[0]
        has_user = rng.random() < 0.7
        return {
            "timestamp": float(1_600_000_000 + index),
            "ip": f"10.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}",
            "user_id": f"U{rng.randrange(self.num_users):06d}" if has_user else None,
            "url": f"/api/v1/resource/{url_rank}",
            "method": method,
            "status": status,
            "latency_ms": round(latency, 2),
            "bytes": rng.randint(200, 50_000),
            "service": service,
        }


class ReferenceRetail(RetailTransactionGenerator):
    def generate_record(self, index):
        rng = self._rng(index)
        size = max(1, min(len(self.PRODUCTS),
                          int(rng.gauss(self.mean_basket_size, 1.5))))
        basket = set(rng.sample(self.PRODUCTS, size))
        for antecedent, consequent, probability in self.EMBEDDED_RULES:
            if antecedent in basket and rng.random() < probability:
                basket.add(consequent)
        basket_list = sorted(basket)
        total = round(sum(self.PRICES[product] for product in basket_list), 2)
        return {
            "transaction_id": f"T{index:08d}",
            "customer_id": f"C{rng.randrange(self.num_customers):06d}",
            "timestamp": float(1_580_000_000 + index * 37),
            "store": self.STORES[rng.randrange(len(self.STORES))],
            "basket": basket_list,
            "total_amount": total,
        }


class ReferencePatients(PatientRecordGenerator):
    def generate_record(self, index):
        rng = self._rng(index)
        age = min(99, max(0, int(rng.gauss(58, 19))))
        diagnosis = rng.choices(self.DIAGNOSES, cum_weights=self._DIAGNOSIS_CUM_WEIGHTS)[0]
        length_of_stay = max(1, int(rng.expovariate(1 / 5.0)))
        cost = round(800.0 * length_of_stay * rng.uniform(0.8, 1.6)
                     + 2500.0 * (diagnosis == "oncology"), 2)
        score = (-2.2 + 0.025 * age + 0.09 * length_of_stay
                 + 0.7 * (diagnosis in ("cardiac", "oncology")))
        readmitted = int(rng.random() < _sigmoid(score))
        district = rng.randrange(self.num_zip_codes)
        return {
            "patient_id": f"P{index:07d}",
            "age": age,
            "gender": rng.choices(self.GENDERS, cum_weights=self._GENDER_CUM_WEIGHTS)[0],
            "zip_code": f"{20000 + district * 137 % 9000 + 137:05d}",
            "diagnosis": diagnosis,
            "length_of_stay": length_of_stay,
            "treatment_cost": cost,
            "readmitted": readmitted,
        }


def assert_identical(generator, reference, start, end):
    """Equal records, compared by ``repr`` so every float bit counts and the
    reference really is a different class (its ``_rng`` seeds on the name)."""
    reference._rng = generator._rng
    produced = list(generator.generate_range(start, end))
    expected = list(reference.generate_range(start, end))
    assert repr(produced) == repr(expected)
    return produced


seeds = st.integers(min_value=-2**40, max_value=2**40)
windows = st.tuples(st.integers(0, 5000), st.integers(1, 40)).map(
    lambda pair: (pair[0], pair[0] + pair[1]))
draws = settings(max_examples=60, deadline=None)


@draws
@given(seeds, windows, st.floats(-4.0, 4.0, allow_nan=False))
def test_churn_draws_are_bit_identical(seed, window, base_rate):
    assert_identical(ChurnDataGenerator(seed, base_rate),
                     ReferenceChurn(seed, base_rate), *window)


@draws
@given(seeds, windows, st.integers(1, 300),
       st.floats(0.0, 0.9, allow_nan=False))
def test_energy_draws_are_bit_identical(seed, window, num_meters, anomaly_rate):
    assert_identical(EnergyDataGenerator(seed, num_meters, anomaly_rate),
                     ReferenceEnergy(seed, num_meters, anomaly_rate), *window)


@draws
@given(seeds, windows, st.integers(1, 400), st.integers(1, 2000),
       st.integers(2, 1200))
def test_web_log_draws_are_bit_identical(seed, window, num_urls, num_users,
                                         burst_every):
    assert_identical(WebLogGenerator(seed, num_urls, num_users, burst_every),
                     ReferenceWebLog(seed, num_urls, num_users, burst_every),
                     *window)


@draws
@given(seeds, windows, st.integers(1, 1000), st.integers(1, 25))
def test_retail_draws_are_bit_identical(seed, window, customers, basket_size):
    assert_identical(RetailTransactionGenerator(seed, customers, basket_size),
                     ReferenceRetail(seed, customers, basket_size), *window)


@draws
@given(seeds, windows, st.integers(1, 200))
def test_patient_draws_are_bit_identical(seed, window, zip_codes):
    assert_identical(PatientRecordGenerator(seed, zip_codes),
                     ReferencePatients(seed, zip_codes), *window)


# -- windows that reach every conditional draw ------------------------------------


@pytest.mark.parametrize("burst_every,start", [(2, 0), (13, 990), (997, 997),
                                               (997, 1994)])
def test_web_log_error_bursts(burst_every, start):
    records = assert_identical(WebLogGenerator(5, error_burst_every=burst_every),
                               ReferenceWebLog(5, error_burst_every=burst_every),
                               start, start + 400)
    burst = [record for index, record in enumerate(records, start)
             if index % burst_every < 12 and record["service"] == "payment"]
    assert burst and all(record["status"] in (500, 502, 503) for record in burst)


def test_web_log_single_url():
    records = assert_identical(WebLogGenerator(3, num_urls=1),
                               ReferenceWebLog(3, num_urls=1), 0, 300)
    assert {record["url"] for record in records} == {"/api/v1/resource/0"}


def test_energy_spikes_and_outages():
    generator = EnergyDataGenerator(11, num_meters=7, anomaly_rate=0.9)
    records = assert_identical(
        generator, ReferenceEnergy(11, num_meters=7, anomaly_rate=0.9), 0, 300)
    anomalies = [record for record in records if record["is_anomaly"]]
    assert any(record["voltage"] <= 40.0 for record in anomalies), "no outage"
    assert any(record["voltage"] > 40.0 for record in anomalies), "no spike"
    assert len(anomalies) < len(records), "no normal reading"
