"""Shuffle manager and block store (cache) behaviour."""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine.memory import CODEC_NONE
from repro.engine.shuffle import ShuffleManager, estimate_bytes
from repro.engine.storage import BlockStore, resident_bytes
from repro.errors import ShuffleError


class TestEstimateBytes:
    def test_empty_is_zero(self):
        assert estimate_bytes([]) == 0

    def test_positive_for_any_records(self):
        assert estimate_bytes([1, 2, 3]) > 0

    def test_scales_roughly_with_count(self):
        small = estimate_bytes([{"a": 1}] * 10, CODEC_NONE)
        large = estimate_bytes([{"a": 1}] * 1000, CODEC_NONE)
        assert large > small * 50

    def test_compression_reduces_estimate(self):
        records = [{"field": i} for i in range(500)]
        assert estimate_bytes(records) < estimate_bytes(records, CODEC_NONE)

    def test_unpicklable_fallback_skips_compression(self):
        """Regression: the repr-length fallback used to divide by the 2.5x
        compression ratio too, systematically undercounting unpicklable
        buckets — a repr is not a compressible serialised payload."""
        records = [lambda: None] * 200  # lambdas refuse to pickle
        assert estimate_bytes(records) == estimate_bytes(records, CODEC_NONE)

    def test_unpicklable_fallback_counts_repr_lengths(self):
        records = [lambda: None] * 200
        per_record = len(repr(records[0]))
        estimated = estimate_bytes(records)
        assert estimated >= 200 * (per_record // 2)


class TestShuffleManager:
    def test_write_then_read_roundtrip(self):
        manager = ShuffleManager()
        manager.register_shuffle(1, num_map_partitions=2)
        manager.write_map_output(1, 0, {0: ["a"], 1: ["b"]})
        manager.write_map_output(1, 1, {0: ["c"]})
        records, size = manager.read_reduce_input(1, 0)
        assert sorted(records) == ["a", "c"]
        assert size > 0

    def test_read_before_all_maps_complete_raises(self):
        manager = ShuffleManager()
        manager.register_shuffle(2, num_map_partitions=2)
        manager.write_map_output(2, 0, {0: ["x"]})
        with pytest.raises(ShuffleError):
            manager.read_reduce_input(2, 0)

    def test_unregistered_shuffle_raises(self):
        manager = ShuffleManager()
        with pytest.raises(ShuffleError):
            manager.write_map_output(9, 0, {0: []})
        with pytest.raises(ShuffleError):
            manager.read_reduce_input(9, 0)

    def test_is_complete_tracks_map_outputs(self):
        manager = ShuffleManager()
        manager.register_shuffle(3, num_map_partitions=2)
        assert not manager.is_complete(3)
        manager.write_map_output(3, 0, {})
        assert not manager.is_complete(3)
        manager.write_map_output(3, 1, {})
        assert manager.is_complete(3)

    def test_is_complete_for_unknown_shuffle(self):
        assert not ShuffleManager().is_complete(42)

    def test_bytes_written_accumulates(self):
        manager = ShuffleManager()
        manager.register_shuffle(4, num_map_partitions=1)
        assert manager.bytes_written(4) == 0
        manager.write_map_output(4, 0, {0: list(range(100))})
        assert manager.bytes_written(4) > 0

    def test_remove_shuffle_clears_data(self):
        manager = ShuffleManager()
        manager.register_shuffle(5, num_map_partitions=1)
        manager.write_map_output(5, 0, {0: ["x"]})
        manager.remove_shuffle(5)
        assert not manager.is_complete(5)

    def test_clear_resets_everything(self):
        manager = ShuffleManager()
        manager.register_shuffle(6, num_map_partitions=1)
        manager.write_map_output(6, 0, {0: ["x"]})
        manager.clear()
        assert not manager.is_complete(6)

    def test_missing_bucket_reads_as_empty(self):
        manager = ShuffleManager()
        manager.register_shuffle(7, num_map_partitions=1)
        manager.write_map_output(7, 0, {0: ["only-partition-zero"]})
        records, _ = manager.read_reduce_input(7, 3)
        assert records == []

    def test_read_returns_a_snapshot(self):
        """Mutating the returned list must not corrupt manager state."""
        manager = ShuffleManager()
        manager.register_shuffle(8, num_map_partitions=1)
        manager.write_map_output(8, 0, {0: ["a", "b"]})
        records, _ = manager.read_reduce_input(8, 0)
        records.append("mutated")
        assert manager.read_reduce_input(8, 0)[0] == ["a", "b"]


class TestRangedReduceReads:
    """`read_reduce_input(map_range=...)`: disjoint map-output slices."""

    def build(self):
        manager = ShuffleManager()
        manager.register_shuffle(1, num_map_partitions=4)
        for m in range(4):
            manager.write_map_output(1, m, {0: [f"m{m}a", f"m{m}b"], 1: [f"m{m}"]})
        return manager

    def test_slices_partition_the_full_read(self):
        manager = self.build()
        full, full_bytes = manager.read_reduce_input(1, 0)
        sliced = []
        sliced_bytes = 0
        for lo, hi in [(0, 1), (1, 3), (3, 4)]:
            records, size = manager.read_reduce_input(1, 0, map_range=(lo, hi))
            sliced.extend(records)
            sliced_bytes += size
        assert sliced == full
        assert sliced_bytes == full_bytes

    def test_empty_range_reads_nothing(self):
        manager = self.build()
        records, size = manager.read_reduce_input(1, 0, map_range=(2, 2))
        assert records == [] and size == 0

    def test_reduce_partition_bytes_aggregates_buckets(self):
        manager = self.build()
        totals = manager.reduce_partition_bytes(1)
        assert set(totals) == {0, 1}
        assert totals[0] == manager.read_reduce_input(1, 0)[1]
        assert totals[1] == manager.read_reduce_input(1, 1)[1]

    def test_reduce_partition_map_bytes_covers_every_map(self):
        manager = self.build()
        per_map = manager.reduce_partition_map_bytes(1, 0)
        assert [m for m, _ in per_map] == [0, 1, 2, 3]
        assert sum(size for _, size in per_map) == \
            manager.read_reduce_input(1, 0)[1]

    def test_map_without_bucket_reports_zero(self):
        manager = ShuffleManager()
        manager.register_shuffle(2, num_map_partitions=2)
        manager.write_map_output(2, 0, {0: ["x"]})
        manager.write_map_output(2, 1, {})
        per_map = manager.reduce_partition_map_bytes(2, 0)
        assert per_map[1] == (1, 0)

    def test_sample_records_strides_across_buckets(self):
        manager = self.build()
        sample = manager.sample_records([1], 4)
        assert len(sample) == 4
        everything = manager.sample_records([1], 1000)
        assert len(everything) == 12  # full coverage when sample >= total
        assert set(sample) <= set(everything)


class TestLockLightReads:
    """The read path snapshots bucket refs under the lock and concatenates
    outside it (the discipline the write side already follows)."""

    def test_lock_not_held_during_concatenation(self):
        """With a multi-megabyte bucket, concatenation dominates the call;
        the manager lock must only be held for the (tiny) snapshot."""
        manager = ShuffleManager()
        manager.register_shuffle(1, num_map_partitions=1)
        manager.write_map_output(1, 0, {0: list(range(2_000_000))})

        held = []
        real_lock = manager._lock

        class ProbeLock:
            def __enter__(self):
                real_lock.acquire()
                self.entered = time.perf_counter()
                return self

            def __exit__(self, *exc):
                held.append(time.perf_counter() - self.entered)
                real_lock.release()

        manager._lock = ProbeLock()
        started = time.perf_counter()
        records, _ = manager.read_reduce_input(1, 0)
        elapsed = time.perf_counter() - started
        manager._lock = real_lock
        assert len(records) == 2_000_000
        # the snapshot under the lock must be a small fraction of the call
        assert sum(held) < elapsed / 2

    def test_concurrent_readers_and_writers_stay_consistent(self):
        """Hammer: parallel sub-partition reads while other shuffles are
        written and removed; every read sees complete, correct data."""
        manager = ShuffleManager()
        manager.register_shuffle(1, num_map_partitions=4)
        for m in range(4):
            manager.write_map_output(1, m, {0: [(m, i) for i in range(500)]})
        expected_full = manager.read_reduce_input(1, 0)[0]
        errors = []

        def reader():
            try:
                for _ in range(30):
                    parts = []
                    for lo, hi in [(0, 2), (2, 4)]:
                        parts.extend(manager.read_reduce_input(
                            1, 0, map_range=(lo, hi))[0])
                    assert parts == expected_full
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def writer(base):
            # each writer owns a disjoint shuffle-id range, matching the
            # context's globally unique _next_shuffle_id allocation — two
            # producers never register/remove the same shuffle id
            try:
                for round_index in range(30):
                    shuffle_id = base + round_index
                    manager.register_shuffle(shuffle_id, num_map_partitions=1)
                    manager.write_map_output(shuffle_id, 0,
                                             {0: list(range(200))})
                    manager.remove_shuffle(shuffle_id)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)] + \
                  [threading.Thread(target=writer, args=(base,))
                   for base in (100, 200)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestBlockStore:
    def test_put_get_roundtrip(self):
        store = BlockStore()
        store.put(1, 0, ["a", "b"])
        assert store.get(1, 0) == ["a", "b"]

    def test_miss_returns_none_and_counts(self):
        store = BlockStore()
        assert store.get(1, 0) is None
        assert store.stats()["misses"] == 1

    def test_hit_counts(self):
        store = BlockStore()
        store.put(1, 0, [1])
        store.get(1, 0)
        assert store.stats()["hits"] == 1

    def test_contains(self):
        store = BlockStore()
        store.put(2, 1, [1, 2])
        assert store.contains(2, 1)
        assert not store.contains(2, 0)

    def test_overwrite_same_block(self):
        store = BlockStore()
        store.put(1, 0, [1])
        store.put(1, 0, [2, 3])
        assert store.get(1, 0) == [2, 3]
        assert store.stats()["blocks"] == 1

    # budgets are in resident bytes: sized off the block, room for two

    def test_lru_eviction_under_budget(self):
        budget = int(2.5 * resident_bytes(list(range(100))))
        store = BlockStore(memory_budget_bytes=budget)
        store.put(1, 0, list(range(100)))
        store.put(1, 1, list(range(100)))
        store.put(1, 2, list(range(100)))
        stats = store.stats()
        assert stats["evictions"] == 1
        assert stats["blocks"] == 2
        assert stats["bytes_stored"] <= budget

    def test_lru_keeps_recently_used_block(self):
        store = BlockStore(
            memory_budget_bytes=int(2.5 * resident_bytes(list(range(100)))))
        store.put(1, 0, list(range(100)))
        store.put(1, 1, list(range(100)))
        store.get(1, 0)  # touch block 0 so block 1 is the LRU victim
        store.put(1, 2, list(range(100)))
        assert store.contains(1, 0)

    def test_clear(self):
        store = BlockStore()
        store.put(1, 0, [1])
        store.clear()
        assert store.stats()["blocks"] == 0
        assert store.stats()["bytes_stored"] == 0
