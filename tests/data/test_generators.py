"""Synthetic generators: determinism, schema conformance, embedded patterns."""

from __future__ import annotations

import hashlib

import pytest

from repro.data.generators import (ChurnDataGenerator, EnergyDataGenerator,
                                   PatientRecordGenerator,
                                   RetailTransactionGenerator, WebLogGenerator,
                                   generator_for_scenario)
from repro.errors import DataError

ALL_GENERATORS = [ChurnDataGenerator, EnergyDataGenerator, WebLogGenerator,
                  RetailTransactionGenerator, PatientRecordGenerator]

#: sha256 of ``repr(generator(seed).generate(500))``, recorded on the commit
#: before the weighted draws switched to precomputed ``cum_weights``.
RECORDED_DIGESTS = {
    (ChurnDataGenerator, 5):
        "b59c16acaff386cdef8ae1af85dd064de66ff8748c4d50d7a597ba3b5bcfd9d9",
    (ChurnDataGenerator, 29):
        "1a2db7603f8b7336683d18d01b0075e617a3738fc38ab3f16df32695b8b49e86",
    (EnergyDataGenerator, 5):
        "63b4628bdf86cb4b0404ef6f9313ded555712329c9c6da087b3c1000ae44c403",
    (EnergyDataGenerator, 29):
        "d25e472ac424a200d6a79ac49eb458379f550b72e5837cc975e20adf45b019aa",
    (WebLogGenerator, 5):
        "7dde8c6fc52fe1b3fc22e44e9d19a9317e99a8ad91c30b9456105f8b206b5dea",
    (WebLogGenerator, 29):
        "f5c1c7f8c398d23127e0860116bb5fae12fa9b38ae667955459248ebecb6cff9",
    (RetailTransactionGenerator, 5):
        "8c468bd7fe59bb2ced18df3c0a221636683af66c74699981a0677d18299d7fe1",
    (RetailTransactionGenerator, 29):
        "95975b5af67f2b7d62dc2417ecbbb03403498960df666bfb5756c2dd4de57037",
    (PatientRecordGenerator, 5):
        "494c7aa66e3bb4689ee0a32d9ed51af189785283471212e99d6a4f57f496b007",
    (PatientRecordGenerator, 29):
        "1dedf04964f6169f11e7db71007abdcce81c226ce6336e43a870d4b235dea0d4",
}


class TestGeneratorContract:
    @pytest.mark.parametrize("generator_class", ALL_GENERATORS)
    def test_records_conform_to_schema(self, generator_class):
        generator_class(seed=1).validate_sample(40)

    @pytest.mark.parametrize("generator_class", ALL_GENERATORS)
    def test_same_seed_same_records(self, generator_class):
        assert generator_class(seed=9).generate(20) == generator_class(seed=9).generate(20)

    @pytest.mark.parametrize("generator_class", ALL_GENERATORS)
    def test_different_seed_different_records(self, generator_class):
        assert generator_class(seed=1).generate(20) != generator_class(seed=2).generate(20)

    @pytest.mark.parametrize("generator_class", ALL_GENERATORS)
    def test_range_generation_is_consistent_with_full_generation(self, generator_class):
        generator = generator_class(seed=4)
        full = generator.generate(30)
        assert list(generator.generate_range(10, 20)) == full[10:20]

    @pytest.mark.parametrize("generator_class,seed", sorted(
        RECORDED_DIGESTS, key=lambda pair: (pair[0].__name__, pair[1])))
    def test_records_match_recorded_digest(self, generator_class, seed):
        records = generator_class(seed=seed).generate(500)
        digest = hashlib.sha256(repr(records).encode("utf-8")).hexdigest()
        assert digest == RECORDED_DIGESTS[generator_class, seed]

    def test_invalid_range_rejected(self):
        with pytest.raises(DataError):
            list(ChurnDataGenerator().generate_range(5, 2))

    def test_generator_for_scenario_factory(self):
        assert isinstance(generator_for_scenario("churn"), ChurnDataGenerator)
        assert isinstance(generator_for_scenario("retail", seed=3),
                          RetailTransactionGenerator)
        with pytest.raises(DataError):
            generator_for_scenario("unknown")


class TestChurnGroundTruth:
    def test_churn_rate_is_mixed(self, churn_records):
        rate = sum(record["churned"] for record in churn_records) / len(churn_records)
        assert 0.15 < rate < 0.75

    def test_monthly_contracts_churn_more(self, churn_records):
        def rate(contract):
            selected = [r for r in churn_records if r["contract_type"] == contract]
            return sum(r["churned"] for r in selected) / len(selected)
        assert rate("monthly") > rate("two_year")

    def test_support_calls_correlate_with_churn(self, churn_records):
        churned = [r["num_support_calls"] for r in churn_records if r["churned"]]
        stayed = [r["num_support_calls"] for r in churn_records if not r["churned"]]
        assert sum(churned) / len(churned) > sum(stayed) / len(stayed)

    def test_ids_are_unique(self, churn_records):
        ids = [r["customer_id"] for r in churn_records]
        assert len(ids) == len(set(ids))


class TestEnergyGroundTruth:
    def test_anomaly_rate_close_to_configured(self):
        records = EnergyDataGenerator(seed=3, anomaly_rate=0.05).generate(4000)
        rate = sum(r["is_anomaly"] for r in records) / len(records)
        assert 0.02 < rate < 0.09

    def test_anomalous_readings_deviate(self, energy_records):
        normal = [r["kwh"] for r in energy_records if not r["is_anomaly"]]
        anomalies = [r for r in energy_records if r["is_anomaly"]]
        mean = sum(normal) / len(normal)
        assert anomalies, "the fixture should contain anomalies"
        deviations = [abs(r["kwh"] - mean) / mean for r in anomalies]
        # spikes deviate far above the mean, outages sit ~100% below it
        assert sum(d > 0.8 for d in deviations) / len(deviations) > 0.6

    def test_daily_profile_peaks_during_day(self):
        records = EnergyDataGenerator(seed=1, num_meters=5, anomaly_rate=0.0).generate(5 * 24 * 4)
        by_hour = {}
        for record in records:
            by_hour.setdefault(record["hour_of_day"], []).append(record["kwh"])
        night = sum(by_hour[3]) / len(by_hour[3])
        day = sum(by_hour[13]) / len(by_hour[13])
        assert day > night

    def test_meter_count_respected(self):
        records = EnergyDataGenerator(seed=2, num_meters=7).generate(100)
        assert len({r["meter_id"] for r in records}) == 7

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DataError):
            EnergyDataGenerator(num_meters=0)
        with pytest.raises(DataError):
            EnergyDataGenerator(anomaly_rate=1.5)


class TestRetailGroundTruth:
    def test_embedded_rule_pasta_tomato_sauce(self, retail_records):
        pasta = [r for r in retail_records if "pasta" in r["basket"]]
        with_sauce = [r for r in pasta if "tomato_sauce" in r["basket"]]
        baseline = [r for r in retail_records if "tomato_sauce" in r["basket"]]
        confidence = len(with_sauce) / len(pasta)
        support = len(baseline) / len(retail_records)
        assert confidence > support  # lift > 1 by construction

    def test_totals_match_prices(self, retail_records):
        from repro.data.generators import RetailTransactionGenerator as G
        for record in retail_records[:50]:
            expected = round(sum(G.PRICES[p] for p in record["basket"]), 2)
            assert record["total_amount"] == pytest.approx(expected)

    def test_baskets_are_sorted_and_unique(self, retail_records):
        for record in retail_records[:100]:
            assert record["basket"] == sorted(set(record["basket"]))


class TestWebLogGroundTruth:
    def test_url_popularity_is_skewed(self, weblog_records):
        counts = {}
        for record in weblog_records:
            counts[record["url"]] = counts.get(record["url"], 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        assert ranked[0] > 3 * ranked[len(ranked) // 2]

    def test_payment_service_is_slowest_on_average(self, weblog_records):
        def mean_latency(service):
            selected = [r["latency_ms"] for r in weblog_records if r["service"] == service]
            return sum(selected) / len(selected)
        assert mean_latency("payment") > mean_latency("auth")

    def test_some_user_ids_missing(self, weblog_records):
        assert any(record["user_id"] is None for record in weblog_records)
        assert any(record["user_id"] is not None for record in weblog_records)

    def test_error_statuses_present(self, weblog_records):
        assert any(record["status"] >= 500 for record in weblog_records)


class TestPatientGroundTruth:
    def test_readmission_rate_is_mixed(self, patient_records):
        rate = sum(r["readmitted"] for r in patient_records) / len(patient_records)
        assert 0.1 < rate < 0.9

    def test_cost_grows_with_length_of_stay(self, patient_records):
        short = [r["treatment_cost"] for r in patient_records if r["length_of_stay"] <= 2]
        long = [r["treatment_cost"] for r in patient_records if r["length_of_stay"] >= 8]
        assert sum(long) / len(long) > sum(short) / len(short)

    def test_ages_within_bounds(self, patient_records):
        assert all(0 <= r["age"] <= 99 for r in patient_records)
