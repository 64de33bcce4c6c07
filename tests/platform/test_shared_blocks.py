"""The platform's shared, content-addressed block store.

The contract under test: a platform lends one bounded ``BlockStore`` to every
engine context it creates; a trial is served partitions an earlier trial
materialised exactly when the lineage — source content, every closure value,
every option that reaches one — is the same, and the results of a session
are indistinguishable from running each trial on a platform of its own.
Misses are asserted on store *keys* and generator *call counts*, never on
timings.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import itertools
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.data.generators import ChurnDataGenerator, DataGenerator
from repro.data.sources import PIECE_RECORDS, GeneratorSource
from repro.engine.context import EngineContext
from repro.engine.dataset import (Dataset, ShuffleDependency, SourceDataset,
                                  TaskContext)
from repro.engine.storage import BlockStore, resident_bytes
from repro.labs.catalog import build_default_challenges
from repro.labs.challenge import DesignOption
from repro.labs.session import LabSession
from repro.platform.api import SHARED_BLOCKS_BUDGET_BYTES, BDAaaSPlatform

#: Challenge volumes are divided by this: the sharing logic does not depend
#: on size, and a whole sweep then runs in about a second.
VOLUME_DIVISOR = 10


def scaled(challenge, divisor=VOLUME_DIVISOR):
    """The challenge with every declared volume divided and two workers."""
    def pin(spec, base):
        spec = copy.deepcopy(spec)
        source = spec.get("source", {})
        if "num_records" in source:
            source["num_records"] = max(200, source["num_records"] // divisor)
        deployment = spec.get("deployment", {})
        if base or "num_workers" in deployment:
            deployment["num_workers"] = 2
            spec["deployment"] = deployment
        return spec

    dimensions = tuple(
        dataclasses.replace(dimension, options=tuple(
            DesignOption.from_patch(option.key, option.title,
                                    pin(option.patch, False),
                                    option.description, option.hint)
            for option in dimension.options))
        for dimension in challenge.dimensions)
    return dataclasses.replace(
        challenge, base_spec=tuple(pin(challenge.spec, True).items()),
        dimensions=dimensions)


CHALLENGES = [scaled(challenge)
              for challenge in build_default_challenges().challenges]
TRIALS = {challenge.key: [{dimension.key: option.key}
                          for dimension in challenge.dimensions
                          for option in dimension.options]
          for challenge in CHALLENGES}


def new_session(challenge):
    platform = BDAaaSPlatform()
    user = platform.register_user("scout", role="analyst")
    return LabSession(platform, user, challenge)


def clock_free(run):
    """Everything a run reports that does not depend on the clock or host."""
    indicators = {
        key: value for key, value in run.indicator_values.items()
        if not key.endswith(("_s", "_usd", "_per_s"))
        and key.rsplit(".", 1)[-1] not in ("shuffle_bytes", "num_tasks")}
    artifacts = {step: {name: value for name, value in produced.items()
                        if name not in ("report", "dashboard")}
                 for step, produced in run.artifacts.items()}
    return indicators, artifacts, run.compliance, run.objective_summary


# -- differential: one platform for a session == one platform per trial --------


@settings(max_examples=4, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.tuples(*(st.permutations(TRIALS[challenge.key])
                   for challenge in CHALLENGES)))
def test_session_on_a_shared_platform_equals_cold_trials(orders):
    reused = 0
    for challenge, order in zip(CHALLENGES, orders):
        session = new_session(challenge)
        for selections in order:
            warm = session.run_option(selections)
            cold = new_session(challenge).run_option(selections)
            assert warm.succeeded and cold.succeeded, (warm.error, cold.error)
            assert cold.run.reused_blocks == 0
            assert set(warm.run.indicator_values) == \
                set(cold.run.indicator_values), "a warm run adds no indicator"
            assert clock_free(warm.run) == clock_free(cold.run), \
                f"{challenge.key} {selections} differs after {order}"
            reused += warm.run.reused_blocks
    assert reused > 0, "the sweep never shared anything: the test is vacuous"


# -- what misses, asserted on store keys ---------------------------------------


def protected_churn_spec(**source):
    return {
        "name": "keys-churn", "purpose": "analytics",
        "policy": "gdpr_baseline", "region": "eu",
        "source": {"scenario": "churn", "num_records": 400, **source},
        "privacy": {"k_anonymity": 3, "mask_identifiers": True},
        "deployment": {"num_partitions": 2, "num_workers": 2},
        "goals": [{"id": "churn", "task": "classification",
                   "model": "naive_bayes",
                   "params": {"label": "churned",
                              "features": ["tenure_months", "monthly_charges"],
                              "categorical_features": ["contract_type"]},
                   "objectives": [{"indicator": "accuracy", "target": 0.1}]}],
    }


def run_until_admitted(platform, spec, patch=None):
    """Run ``spec`` twice (first touch is declined, second admitted).

    ``patch`` edits the compiled campaign — the way to reach service
    parameters the specification language does not expose.  Returns the
    last run and what its context was served from the shared store.
    """
    for _ in range(2):
        campaign = platform.compile_campaign(copy.deepcopy(spec))
        if patch is not None:
            patch(campaign)
        engine = EngineContext(campaign.deployment.engine_config,
                               shared_blocks=platform.shared_blocks)
        try:
            run = platform.runner.run(campaign, engine=engine)
            served = {fingerprint for fingerprint, _ in engine.shared_reuse}
        finally:
            engine.stop()
    return run, served


def step_params(step_id, **params):
    def patch(campaign):
        step = next(step for step in campaign.procedural.steps
                    if step.step_id == step_id)
        step.params.update(params)
    return patch


def spec_change(**changes):
    def change(spec):
        for section, values in changes.items():
            if isinstance(values, dict):
                spec.setdefault(section, {}).update(values)
            else:
                spec[section] = values
        return spec
    return change


def unprotected(spec):
    """The same campaign under a policy that demands no protection."""
    spec["policy"] = "open_data"
    spec["privacy"] = {}
    return spec


#: (what changes, how) — each must leave the source blocks shareable and
#: force a new analytics-input key.
PREFIX_MISSES = {
    "anonymisation k": (spec_change(privacy={"k_anonymity": 25}), None),
    "max_level": (None, step_params("protect", max_level=2)),
    "mask_fields": (spec_change(privacy={"mask_fields": ["customer_id",
                                                          "region"]}), None),
    "salt": (None, step_params("protect", salt="another-salt")),
    "policy": (unprotected, None),
    "split seed": (None, step_params("split", seed=14)),
    "test_fraction": (spec_change(preparation={"test_fraction": 0.4}), None),
}

#: Changes to the input itself: nothing of the base trial may be served.
SOURCE_MISSES = {
    "generator seed": (None, step_params("ingest", seed=8)),
}


@pytest.fixture()
def base_platform():
    platform = BDAaaSPlatform()
    run, _ = run_until_admitted(platform, protected_churn_spec())
    keys = platform.shared_blocks.dataset_ids()
    assert len(keys) == 2, "source blocks and analytics input"
    return platform, keys, run


def test_an_unchanged_trial_is_served_both_levels(base_platform):
    platform, keys, _ = base_platform
    run, served = run_until_admitted(platform, protected_churn_spec())
    assert served == keys
    assert platform.shared_blocks.dataset_ids() == keys
    assert run.reused_blocks == 4  # two partitions on each level


@pytest.mark.parametrize("what", sorted(PREFIX_MISSES))
def test_a_changed_prefix_option_misses_the_prefix_and_hits_the_source(
        base_platform, what):
    platform, keys, base_run = base_platform
    change, patch = PREFIX_MISSES[what]
    spec = protected_churn_spec()
    run, served = run_until_admitted(
        platform, change(spec) if change else spec, patch)
    new = platform.shared_blocks.dataset_ids() - keys
    assert len(new) == 1, f"changing {what} must key a new analytics input"
    assert len(served) == 1 and served < keys, \
        "of the base trial, only the source blocks may be served"
    # what was served is what this trial declared, not what the base did
    cold, _ = run_until_admitted(BDAaaSPlatform(),
                                 change(protected_churn_spec()) if change
                                 else protected_churn_spec(), patch)
    assert clock_free(run) == clock_free(cold)
    if what == "anonymisation k":
        assert run.indicator("achieved_k") >= 25 > base_run.indicator("target_k")


def test_a_protected_trial_is_never_served_an_unprotected_prefix():
    """The dangerous direction: the unprotected trial publishes first."""
    platform = BDAaaSPlatform()
    open_run, _ = run_until_admitted(platform,
                                     unprotected(protected_churn_spec()))
    assert "protect" not in open_run.step_metrics
    published = platform.shared_blocks.dataset_ids()
    assert len(published) == 2
    run, served = run_until_admitted(platform, protected_churn_spec())
    assert len(served) == 1 and served < published, "the raw source, only"
    assert len(platform.shared_blocks.dataset_ids() - published) == 1
    assert run.indicator("achieved_k") >= 3
    assert run.indicator("masked_fields") >= 1
    cold, _ = run_until_admitted(BDAaaSPlatform(), protected_churn_spec())
    assert clock_free(run) == clock_free(cold)


@pytest.mark.parametrize("what", sorted(SOURCE_MISSES))
def test_a_changed_input_misses_everything(base_platform, what):
    platform, keys, _ = base_platform
    change, patch = SOURCE_MISSES[what]
    spec = protected_churn_spec()
    _, served = run_until_admitted(
        platform, change(spec) if change else spec, patch)
    assert not served & keys
    assert len(platform.shared_blocks.dataset_ids() - keys) == 2


def counting_churn_records(monkeypatch):
    """The indexes of every churn record generated from now on."""
    calls = []
    generate_record = ChurnDataGenerator.generate_record

    def counting(self, index):
        calls.append(index)
        return generate_record(self, index)

    monkeypatch.setattr(ChurnDataGenerator, "generate_record", counting)
    return calls


def volume_spec(pieces, num_partitions):
    spec = protected_churn_spec(num_records=pieces * PIECE_RECORDS)
    spec["deployment"]["num_partitions"] = num_partitions
    return spec


#: (what changes, base (pieces, partitions), trial (pieces, partitions)):
#: the generator is the same, so the trial is served every piece of the
#: range it shares with the base and generates only what lies beyond it.
VOLUME_CHANGES = {
    "fewer records": ((4, 2), (2, 2)),
    "more records": ((4, 2), (6, 2)),
    "partition count 4 -> 8": ((8, 4), (8, 8)),
}


@pytest.mark.parametrize("what", sorted(VOLUME_CHANGES))
def test_a_changed_volume_generates_only_the_records_it_does_not_share(
        monkeypatch, what):
    base, trial = VOLUME_CHANGES[what]
    platform = BDAaaSPlatform()
    run_until_admitted(platform, volume_spec(*base))
    keys = platform.shared_blocks.dataset_ids()
    assert len(keys) == 2, "source pieces and analytics input"
    calls = counting_churn_records(monkeypatch)
    run, served = run_until_admitted(platform, volume_spec(*trial))
    held = base[0] * PIECE_RECORDS
    beyond = range(held, max(held, trial[0] * PIECE_RECORDS))
    # a record beyond the base is generated on the first run (its piece is
    # declined and streamed) and on the second (admitted and stored), and
    # not one record of the shared range is generated at all
    assert sorted(calls) == sorted([*beyond, *beyond])
    assert len(served) == 1 and served < keys, \
        "of the base trial, only the source pieces may be served"
    assert run.reused_blocks == trial[1], \
        "one served block per partition, whatever its piece count"
    assert len(platform.shared_blocks.dataset_ids() - keys) == 1, \
        "the trial keys one new analytics input"
    cold, _ = run_until_admitted(BDAaaSPlatform(), volume_spec(*trial))
    assert clock_free(run) == clock_free(cold)
    assert run.indicator("records_processed") == trial[0] * PIECE_RECORDS


def test_changing_only_the_model_stops_generating_records(monkeypatch):
    """Counted, not timed.  Admission is on the second request, so the
    first two trials generate; from the third on nothing is generated."""
    calls = []
    generate_record = ChurnDataGenerator.generate_record

    def counting(self, index):
        calls.append(index)
        return generate_record(self, index)

    monkeypatch.setattr(ChurnDataGenerator, "generate_record", counting)
    challenge = next(c for c in CHALLENGES if c.key == "churn-retention")
    volume = challenge.spec["source"]["num_records"]
    session = new_session(challenge)
    per_trial = []
    for model in ("tree", "bayes", "logistic", "baseline"):
        before = len(calls)
        assert session.run_option({"model": model}).succeeded
        per_trial.append(len(calls) - before)
    assert per_trial == [volume, volume, 0, 0]
    assert [trial.run.reused_blocks > 0 for trial in session.trials] == \
        [False, False, True, True]


# -- sharing live objects safely -----------------------------------------------


def content_digest(records):
    return hashlib.sha256(repr(records).encode("utf-8")).hexdigest()


def test_no_service_mutates_a_shared_block(monkeypatch):
    """After a full sweep every block still stored equals (a) what was
    published and (b) a fresh recomputation of its lineage outside any
    store — so no service, streaming and the eager anonymise -> parallelize
    path included, changed a shared record in place."""
    published = {}
    lineages = {}
    put = BlockStore.put
    share = Dataset.share

    def recording_put(self, dataset_id, partition, records, origin=""):
        if isinstance(dataset_id, str):
            published[(dataset_id, partition)] = content_digest(records)
        return put(self, dataset_id, partition, records, origin=origin)

    def recording_share(self, origin=""):
        marked = share(self, origin)
        if marked._share_key is not None:
            lineages[marked._share_key] = marked
            if isinstance(marked, SourceDataset) and \
                    marked._source.range_identity() is not None:
                lineages[marked._source.range_identity()] = marked
        return marked

    monkeypatch.setattr(BlockStore, "put", recording_put)
    monkeypatch.setattr(Dataset, "share", recording_share)

    deduplicated = protected_churn_spec()
    deduplicated["preparation"] = {"deduplicate": True,
                                   "impute": ["monthly_charges"],
                                   "normalize": ["monthly_charges"]}
    stores = []
    for challenge in CHALLENGES:
        session = new_session(challenge)
        stores.append(session.platform.shared_blocks)
        for selections in TRIALS[challenge.key] * 2:
            assert session.run_option(selections).succeeded
    platform = BDAaaSPlatform()
    stores.append(platform.shared_blocks)
    for _ in range(3):
        run_until_admitted(platform, deduplicated)

    def narrow(dataset):
        return not any(isinstance(dependency, ShuffleDependency)
                       or not narrow(dependency.parent)
                       for dependency in dataset.dependencies)

    checked = recomputed = 0
    for store in stores:
        for fingerprint in store.dataset_ids():
            dataset = lineages[fingerprint]
            # a partition number, or a source piece's (lo, hi)
            for key in [key for stored, key in published
                        if stored == fingerprint]:
                block = store.get(fingerprint, key)
                if block is None:
                    continue
                checked += 1
                assert content_digest(block) == published[(fingerprint, key)]
                if isinstance(key, tuple):
                    # a piece of a generated source: its range, afresh
                    fresh = list(dataset._source.generator.generate_range(*key))
                elif narrow(dataset):
                    # the context is stopped and has let go of the store:
                    # compute_batches() walks the closures down to the
                    # generator
                    fresh = list(itertools.chain.from_iterable(
                        dataset.compute_batches(key, TaskContext(), 1024)))
                else:
                    continue
                assert content_digest(fresh) == content_digest(block)
                recomputed += 1
    assert checked >= 30 and recomputed >= 30


class Box:
    """Default ``object.__repr__``: identity is an address, not a value."""

    def __init__(self, value):
        self.value = value


def test_an_address_based_closure_value_is_never_matched():
    store = BlockStore(SHARED_BLOCKS_BUDGET_BYTES)  # admits on first touch
    config = EngineConfig(num_workers=2, default_parallelism=2, seed=1)

    def run(box):
        with EngineContext(config, shared_blocks=store) as ctx:
            dataset = ctx.range(0, 50).map(lambda x: x + box.value)
            assert dataset.fingerprint() is None
            assert dataset.share() is dataset
            return dataset.sum()

    addresses = set()
    expected = sum(range(50))
    for value in range(200):  # free and reallocate until an address repeats
        box = Box(value)
        repeated = id(box) in addresses
        addresses.add(id(box))
        assert run(box) == expected + 50 * value
        del box
        gc.collect()
        if repeated and value > 3:
            break
    else:
        pytest.skip("the allocator never reused an address")
    assert store.stats()["blocks"] == 0 and store.stats()["hits"] == 0

    # the control: the same closure over a plain value *is* shareable
    with EngineContext(config, shared_blocks=store) as ctx:
        plain = 7
        assert ctx.range(0, 50).map(lambda x: x + plain).fingerprint() \
            is not None


def test_racing_publishers_leave_one_block_per_key():
    """4 threads x 8 partitions publish the same lineage at once."""
    store = BlockStore(SHARED_BLOCKS_BUDGET_BYTES)  # first touch: all publish
    source = GeneratorSource(ChurnDataGenerator(seed=3), 800)
    config = EngineConfig(num_workers=4, default_parallelism=8, seed=1)
    expected = list(source.read_all())
    results, errors = [], []
    barrier = threading.Barrier(4)

    def publish():
        try:
            with EngineContext(config, shared_blocks=store) as ctx:
                dataset = ctx.from_source(source, 8).share(origin="race")
                barrier.wait(timeout=30)
                results.append(dataset.collect())
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=publish) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert results == [expected] * 4
    stats = store.stats()
    # the partition bounds, cut again at every multiple of PIECE_RECORDS
    cuts = sorted({800 * partition // 8 for partition in range(9)}
                  | set(range(0, 800, PIECE_RECORDS)))
    pieces = list(zip(cuts, cuts[1:]))
    assert stats["blocks"] == len(pieces) and len(store.dataset_ids()) == 1
    identity, = store.dataset_ids()
    assert identity == source.range_identity()
    blocks = [store.get(identity, piece) for piece in pieces]
    assert [record for block in blocks for record in block] == expected
    assert stats["bytes_stored"] == sum(map(resident_bytes, blocks))
    with EngineContext(config, shared_blocks=store) as ctx:
        assert ctx.from_source(source, 8).share().collect() == expected
        assert ctx.metrics.summary()["cache_hits"] == 8


# -- the cap, in resident bytes, under a one-off scan ---------------------------


def deep_sizeof(obj, seen):
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(deep_sizeof(key, seen) + deep_sizeof(value, seen)
                    for key, value in obj.items())
    elif isinstance(obj, (list, tuple)):
        size += sum(deep_sizeof(item, seen) for item in obj)
    return size


@pytest.mark.parametrize("scenario", ["churn", "web_logs", "retail"])
def test_resident_bytes_is_close_to_a_full_walk(scenario):
    from repro.data.generators import generator_for_scenario
    records = generator_for_scenario(scenario, seed=7).generate(3000)
    exact = deep_sizeof(records, set())
    assert 0.8 * exact < resident_bytes(records) < 1.3 * exact
    assert exact / len(records) > 300, "pickled size (~85 B) it is not"


def test_a_one_off_volume_trial_is_neither_kept_nor_evicts(monkeypatch):
    """The 40,000-line web_logs trial at full size, after two base trials."""
    challenge = next(c for c in build_default_challenges().challenges
                     if c.key == "web-operations")
    session = new_session(scaled(challenge, divisor=1))
    store = session.platform.shared_blocks
    for _ in range(2):
        assert session.run_option({"analysis": "latency"}).succeeded
    working_set = store.dataset_ids()
    before = store.stats()
    assert working_set and before["bytes_stored"] <= SHARED_BLOCKS_BUDGET_BYTES

    high_water = [0]
    put = BlockStore.put

    def watching_put(self, *args, **kwargs):
        put(self, *args, **kwargs)
        high_water[0] = max(high_water[0], self.bytes_stored)

    monkeypatch.setattr(BlockStore, "put", watching_put)
    week = session.run_option({"volume": "week"})
    assert week.succeeded and week.run.indicator("records_processed") == 40000
    after = store.stats()
    assert store.dataset_ids() == working_set
    assert after["evictions"] == before["evictions"]
    assert after["bytes_stored"] == before["bytes_stored"]
    assert high_water[0] == 0, "nothing of the scan was even materialised"
    assert session.run_option({"analysis": "top-urls"}).run.reused_blocks > 0


def test_second_touch_admission_and_lru_cap():
    block = [{"n": index, "text": "x" * 50} for index in range(100)]
    size = resident_bytes(block)
    store = BlockStore(int(2.5 * size), admit_on_second_touch=True)
    assert not store.admits("a", 0) and store.admits("a", 0)
    assert store.admits("a", 0), "a seen key stays admissible after eviction"
    for key in ("a", "b", "c"):
        store.admits(key, 0)
        store.put(key, 0, block, origin=f"run-{key}")
    assert store.dataset_ids() == {"b", "c"}
    assert store.origin_of("c", 0) == "run-c" and store.origin_of("a", 0) == ""
    assert store.stats()["bytes_stored"] == 2 * size
    store.clear()
    assert not store.admits("a", 0), "clear() forgets what was asked for"
    assert BlockStore().admits("anything", 0), "a context's own store admits"


# -- saying what a run stood on -------------------------------------------------


def test_reuse_is_audited_profiled_and_marked_in_comparisons():
    challenge = next(c for c in CHALLENGES if c.key == "churn-retention")
    session = new_session(challenge)
    for model in ("tree", "bayes", "logistic"):
        assert session.run_option({"model": model}).succeeded
    first, second, third = (trial.run for trial in session.trials)
    assert first.reused_blocks == second.reused_blocks == 0
    assert first.execution_profile["reused_from"] == []
    assert third.reused_blocks == third.execution_profile["reused_blocks"] > 0
    assert third.execution_profile["reused_from"] == [second.run_id]
    assert set(third.indicator_values) == set(first.indicator_values)

    audit = session.platform.audit
    edges = audit.derivations(third.run_id)
    assert edges and audit.derivations(first.run_id) == []
    assert {edge["derived_from"] for edge in edges} == {second.run_id}
    assert sum(edge["blocks"] for edge in edges) == third.reused_blocks
    assert all(len(edge["fingerprint"]) == 64 for edge in edges)
    assert audit.verify_sequence()

    report = session.compare()
    assert report.reused_blocks == {"model=logistic": third.reused_blocks}
    assert report.as_dict()["reused_blocks"] == report.reused_blocks
    table = report.format_table()
    time_row = next(line for line in table.splitlines()
                    if line.startswith("execution_time_s"))
    assert time_row.count("~") == 1
    assert "accuracy" in table and "~" not in next(
        line for line in table.splitlines() if line.startswith("accuracy"))
    assert "reused from an earlier trial" in table
    assert "model=logistic" in table.splitlines()[-1]


def test_a_context_without_a_store_is_unchanged_and_stop_spares_a_lent_one():
    config = EngineConfig(num_workers=2, default_parallelism=2, seed=1)
    with EngineContext(config) as ctx:
        dataset = ctx.range(0, 10).map(lambda x: x * 2)
        assert dataset.share() is dataset and dataset._share_key is None
        assert dataset.fingerprint() is not None
    store = BlockStore(SHARED_BLOCKS_BUDGET_BYTES)
    with EngineContext(config, shared_blocks=store) as ctx:
        ctx.range(0, 10).map(lambda x: x * 2).share().collect()
        assert ctx.shared_blocks is store
    assert ctx.shared_blocks is None, "a stopped context lets go of the store"
    assert store.stats()["blocks"] == 2, "and never clears it"
    process = EngineConfig(num_workers=2, default_parallelism=2, seed=1,
                           executor_backend="process")
    with EngineContext(process, shared_blocks=store) as ctx:
        dataset = ctx.range(0, 10).map(abs)
        assert dataset.share()._share_key is None, "workers see no driver memory"


def test_fingerprints_ignore_ids_and_names_but_not_content():
    config = EngineConfig(num_workers=1, default_parallelism=2, seed=1)

    def build(ctx, seed=1, extra=0, factor=2):
        for _ in range(extra):  # shift every dataset id that follows
            ctx.range(0, 3)
        source = GeneratorSource(ChurnDataGenerator(seed=seed), 300,
                                 name=f"renamed-{extra}")
        return (ctx.from_source(source, 2)
                .map(lambda record: record["monthly_charges"] * factor)
                .set_name(f"named-{extra}"))

    with EngineContext(config) as one, EngineContext(config) as two:
        base = build(one).fingerprint()
        assert base is not None and len(base) == 64
        assert build(two, extra=5).fingerprint() == base
        assert build(two, seed=2).fingerprint() != base
        assert build(two, factor=3).fingerprint() != base
        assert build(two).repartition(2).fingerprint() != \
            build(two).repartition(3).fingerprint()

    class Opaque(DataGenerator):
        def __init__(self):
            super().__init__(seed=0)
            self.handle = object()

    assert GeneratorSource(Opaque(), 10).fingerprint() is None
