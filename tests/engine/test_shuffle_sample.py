"""Map-side key samples and what the driver decodes to read them.

Each map task draws a bounded key sample of its own output where that
output is stored — a list of references on the resident path, one more span
in the map-output file where buckets are framed — and
``ShuffleManager.sample_records`` stratifies over those samples instead of
decoding the shuffle.  Pinned here: the sample is a function of the map's
output alone (identical on every backend, transport and memory budget, cold
or resumed, first attempt or recompute); its lifecycle follows its map's
output without ever entering byte, record or memory accounting; every map
contributes its proportional share; and, counted rather than timed, the
driver decodes at most ``KEY_SAMPLE_SIZE`` records per map to sample a
shuffle while journal revalidation decodes no payload at all.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.engine import serializer
from repro.engine import memory as memory_module
from repro.engine import scheduler as scheduler_module
from repro.engine.context import EngineContext
from repro.engine.memory import MemoryManager, SpillFile, load_span
from repro.engine.shuffle import (KEY_SAMPLE_SIZE, ShuffleManager,
                                  catalog_of, estimate_bytes,
                                  sample_map_output, write_buckets)

needs_closures = pytest.mark.skipif(
    not serializer.supports_closures(),
    reason="shipping task closures to worker processes needs cloudpickle")

#: 4 partitions x 1200 pairs, one key holding a fifth of them: the
#: group-by shuffle writes 1200 records per map, above the sample size.
PAIRS = [(0 if i % 5 == 0 else i % 97, i) for i in range(4800)]


def make_engine(backend="thread", transport="local", bounded=False,
                **overrides):
    options = {"num_workers": 2, "default_parallelism": 4, "seed": 3,
               "executor_backend": backend, "shuffle_transport": transport}
    if bounded:
        options["shuffle_memory_bytes"] = 16 * 1024
    options.update(overrides)
    return EngineContext(EngineConfig(**options))


def program(ctx):
    """A group-by (large maps), then a combined reduce (small maps)."""
    sizes = ctx.parallelize(PAIRS, 4).group_by_key(4).map(
        lambda kv: (kv[0] % 7, len(kv[1])))
    return sorted(sizes.reduce_by_key(operator.add, 4).collect())


def shuffle_samples(ctx):
    """Every complete shuffle's ``sample_records`` at the planning size."""
    manager = ctx.shuffle_manager
    return {shuffle_id: manager.sample_records([shuffle_id], KEY_SAMPLE_SIZE)
            for shuffle_id in range(16) if manager.is_complete(shuffle_id)}


@pytest.fixture(scope="module")
def reference():
    with make_engine() as ctx:
        result = program(ctx)
        samples = shuffle_samples(ctx)
    assert len(samples) == 2
    # the group-by's maps outgrow the sample: that draw is a true subset
    assert any(len(sample) == KEY_SAMPLE_SIZE for sample in samples.values())
    return result, samples


# -- one sample whatever the setting ------------------------------------------


@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("transport", ["local", "tcp"])
@pytest.mark.parametrize("backend", [
    "thread", pytest.param("process", marks=needs_closures)])
def test_samples_identical_across_settings_cold_and_resumed(
        tmp_path, reference, backend, transport, bounded):
    expected_result, expected_samples = reference
    root = str(tmp_path / "ckpt")
    options = {"backend": backend, "transport": transport,
               "bounded": bounded, "checkpoint_dir": root}
    with make_engine(**options) as ctx:
        assert program(ctx) == expected_result
        assert shuffle_samples(ctx) == expected_samples
    with make_engine(recover_from=root, **options) as ctx:
        assert program(ctx) == expected_result
        summary = ctx.metrics.summary()
        # the resumed run serves every sample from the journal
        assert shuffle_samples(ctx) == expected_samples
    assert summary["stages_recovered"] > 0


def test_recomputed_maps_reproduce_their_samples(reference):
    """Corrupted transport frames force lineage recomputation of maps."""
    expected_result, expected_samples = reference
    with make_engine(transport="tcp", faults={"corrupt": 0.05}) as ctx:
        assert program(ctx) == expected_result
        summary = ctx.metrics.summary()
        assert shuffle_samples(ctx) == expected_samples
    assert summary["lost_map_outputs"] >= 1


def test_rewritten_map_draws_the_same_sample(tmp_path):
    buckets = {1: [("b", i) for i in range(700)],
               0: [("a", i) for i in range(300)]}
    first = sample_map_output(4, 2, buckets)
    assert len(first) == KEY_SAMPLE_SIZE == len(set(first))
    assert sample_map_output(4, 2, dict(reversed(buckets.items()))) == first
    assert sample_map_output(4, 3, buckets) != first  # seeded per map

    spans = []
    for attempt in range(2):
        writer = SpillFile(str(tmp_path / f"map-2-a{attempt}.data"))
        spans.append(write_buckets(writer, 4, 2, buckets, lambda p: p)[1])
    assert load_span(spans[0]) == load_span(spans[1]) == first

    manager = ShuffleManager(codec="none")
    manager.register_shuffle(4, 3)
    for map_partition in range(3):
        manager.write_map_output(4, map_partition, buckets)
    drawn = manager.sample_records([4], KEY_SAMPLE_SIZE)
    assert manager.invalidate_map_output(4, 2)
    manager.write_map_output(4, 2, buckets)
    assert manager.sample_records([4], KEY_SAMPLE_SIZE) == drawn


def test_small_map_sample_is_every_record_in_draw_order():
    buckets = {0: list(range(40)), 3: list(range(100, 110))}
    sample = sample_map_output(0, 0, buckets)
    assert sorted(sample) == sorted(buckets[0] + buckets[3])
    # shuffled, so a prefix is no reduce partition's head
    assert sample != buckets[0] + buckets[3]
    assert sample_map_output(0, 0, {0: [], 1: []}) == []


# -- lifecycle and accounting --------------------------------------------------


def _buckets(tag, sizes):
    return {reduce: [(tag, reduce, i) for i in range(size)]
            for reduce, size in enumerate(sizes)}


def test_sample_lifecycle_and_accounting(tmp_path):
    memory = MemoryManager(0)
    manager = ShuffleManager(memory_manager=memory, codec="none")
    manager.register_shuffle(1, 2)
    outputs = {0: _buckets("m0", [400, 300]), 1: _buckets("m1", [50])}
    for map_partition, buckets in outputs.items():
        manager.write_map_output(1, map_partition, buckets)
    assert set(manager._samples) == {(1, 0), (1, 1)}

    # never in byte, record or memory accounting
    sizes = sum(estimate_bytes(records, manager.codec)
                for buckets in outputs.values() for records in buckets.values())
    assert manager.map_output_stats(1) == (750, sizes)
    assert manager.bytes_written(1) == sizes
    assert manager.resident_bytes() == memory.used_bytes == sizes

    # replaced on rewrite
    manager.write_map_output(1, 0, _buckets("again", [5]))
    assert {record[0] for record in manager.sample_records([1], 10_000)} == \
        {"again", "m1"}
    # a rewrite with no records leaves no sample behind
    manager.write_map_output(1, 0, {})
    assert (1, 0) not in manager._samples

    # an externally framed map output registers its sample span, unaccounted
    writer = SpillFile(str(tmp_path / "map-0.data"))
    spans, sample = write_buckets(writer, 1, 0, outputs[0], lambda p: p)
    manager.adopt_catalog(1, catalog_of({0: spans}, {0: sample}))
    assert manager._samples[(1, 0)] == (700, sample)
    assert manager.map_output_stats(1) == (750, sizes)
    assert memory.used_bytes == sizes

    # dropped on invalidate, remove and clear
    assert manager.invalidate_map_output(1, 0)
    assert (1, 0) not in manager._samples
    manager.register_shuffle(2, 1)
    manager.write_map_output(2, 0, _buckets("other", [9]))
    manager.remove_shuffle(1)
    assert set(manager._samples) == {(2, 0)}
    manager.clear()
    assert manager._samples == {}
    assert memory.used_bytes == 0


def test_bounded_manager_never_spills_or_reserves_samples(tmp_path):
    memory = MemoryManager(2048)
    manager = ShuffleManager(memory_manager=memory, codec="none",
                             spill_dir=lambda: str(tmp_path))
    manager.register_shuffle(1, 3)
    for map_partition in range(3):
        manager.write_map_output(1, map_partition,
                                 _buckets(map_partition, [600, 200]))
    spilled, _ = manager.spill_stats()
    assert spilled > 0
    # only buckets spill: six buckets, and the reservation is theirs alone
    assert spilled <= 6
    assert memory.used_bytes == manager.resident_bytes()
    assert all(isinstance(sample, list)
               for _, sample in manager._samples.values())


# -- stratification ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(0, 700), max_size=4),
                       min_size=1, max_size=6),
       size=st.integers(1, KEY_SAMPLE_SIZE))
def test_each_map_contributes_its_proportional_share(shapes, size):
    manager = ShuffleManager(codec="none")
    manager.register_shuffle(5, len(shapes))
    for map_partition, sizes in enumerate(shapes):
        manager.write_map_output(5, map_partition,
                                 _buckets(map_partition, sizes))
    sample = manager.sample_records([5], size)
    counts = [sum(sizes) for sizes in shapes]
    total = sum(counts)
    assert len(set(sample)) == len(sample)
    if total <= size:
        # exact: every record of every map
        assert sorted(sample) == sorted(
            record for map_partition, sizes in enumerate(shapes)
            for records in _buckets(map_partition, sizes).values()
            for record in records)
        return
    assert len(sample) == size
    for map_partition, count in enumerate(counts):
        drawn = sum(1 for record in sample if record[0] == map_partition)
        assert abs(drawn - size * count / total) < 1


def test_stratification_spans_every_listed_shuffle():
    manager = ShuffleManager(codec="none")
    manager.register_shuffle(1, 1)
    manager.register_shuffle(2, 1)
    manager.write_map_output(1, 0, _buckets("big", [9_000]))
    manager.write_map_output(2, 0, _buckets("small", [1_000]))
    sample = manager.sample_records([1, 2], 100)
    assert [record[0] for record in sample] == ["big"] * 90 + ["small"] * 10


# -- what the driver decodes ---------------------------------------------------


def chain(ctx):
    """Three combined shuffles whose maps each write 5000 records."""
    dataset = ctx.parallelize([(i, 1) for i in range(20_000)], 4)
    for _ in range(3):
        dataset = dataset.reduce_by_key(operator.add, 4).map(
            lambda kv: (kv[0] + 1, kv[1]))
    return sorted(dataset.collect())


@needs_closures
def test_driver_decodes_samples_and_validation_decodes_nothing(
        tmp_path, monkeypatch):
    decoded_records = [0]
    decoded_payloads = [0]
    real_stream = memory_module._iter_frame_stream
    real_decode = memory_module.decode_payload

    def counting_stream(*args):
        for batch in real_stream(*args):
            decoded_records[0] += len(batch)
            yield batch

    def counting_decode(*args):
        decoded_payloads[0] += 1
        return real_decode(*args)

    monkeypatch.setattr(memory_module, "_iter_frame_stream", counting_stream)
    monkeypatch.setattr(memory_module, "decode_payload", counting_decode)

    sampled = []  # (records decoded, maps sampled) per sample_records call
    real_sample = ShuffleManager.sample_records

    def counting_sample(self, shuffle_ids, size):
        before = decoded_records[0]
        result = real_sample(self, shuffle_ids, size)
        maps = sum(len(self._completed_maps[sid]) for sid in shuffle_ids)
        sampled.append((decoded_records[0] - before, maps))
        return result

    monkeypatch.setattr(ShuffleManager, "sample_records", counting_sample)

    validations = []  # payloads decoded per journal validation

    def counting(validate):
        def validated(entry):
            before = decoded_payloads[0]
            result = validate(entry)
            validations.append(decoded_payloads[0] - before)
            return result
        return validated

    monkeypatch.setattr(scheduler_module, "validate_shuffle_entry",
                        counting(scheduler_module.validate_shuffle_entry))

    root = str(tmp_path / "ckpt")
    with make_engine("process", checkpoint_dir=root) as ctx:
        expected = chain(ctx)
        ctx.range(0, 64, num_partitions=4).map(lambda x: x * 3).checkpoint()
    assert sampled, "planning never sampled a shuffle"
    assert all(records <= KEY_SAMPLE_SIZE * maps for records, maps in sampled)
    assert max(records for records, _ in sampled) > 0

    with make_engine("process", checkpoint_dir=root,
                     recover_from=root) as ctx:
        assert chain(ctx) == expected
        ctx.range(0, 64, num_partitions=4).map(lambda x: x * 3).checkpoint()
        summary = ctx.metrics.summary()
    assert summary["stages_recovered"] >= 2
    assert validations and validations == [0] * len(validations)
