"""The shuffle store against a plain-dict model of what it must serve.

A Hypothesis state machine (derandomized, so every run replays the same
sequences) registers shuffles; writes map outputs resident or framed into
a file and adopted through a span catalog, with producers; rewrites maps
with other reduce sets; and invalidates, removes and clears — all under a
memory budget small enough that buckets spill.  After every step each
read, full and ranged, streamed and whole, and each statistic must equal
what the model computes from the map outputs that are live, and the
memory reservation must equal the resident bytes.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.engine.memory import MemoryManager, SpillFile
from repro.engine.shuffle import (ShuffleManager, catalog_of, estimate_bytes,
                                  write_buckets)
from repro.errors import ShuffleError

SHUFFLES = [0, 1, 2]
REDUCES = 3
PRODUCERS = [101, 102]
#: Small enough that a few buckets exceed it and the coldest spill.
BUDGET = 48

sizes = st.dictionaries(st.integers(0, REDUCES - 1), st.integers(0, 12),
                        max_size=REDUCES)


class ShuffleStoreModel(RuleBasedStateMachine):

    @initialize()
    def start(self):
        self.directory = tempfile.mkdtemp(prefix="shuffle-model-")
        self.memory = MemoryManager(BUDGET)
        self.manager = ShuffleManager(self.memory, codec="none",
                                      spill_dir=lambda: self.directory)
        #: shuffle id -> (expected maps, {map: ({reduce: records}, producer)})
        self.model = {}
        self.writes = itertools.count()

    def teardown(self):
        shutil.rmtree(getattr(self, "directory", ""), ignore_errors=True)

    def _records(self, sizes):
        write = next(self.writes)
        return {reduce: [(write, reduce, index) for index in range(size)]
                for reduce, size in sizes.items()}

    def _install(self, shuffle_id, map_partition, buckets, producer=None):
        self.model[shuffle_id][1][map_partition] = (
            {reduce: records for reduce, records in buckets.items()
             if records}, producer)

    # -- operations ------------------------------------------------------------

    @rule(shuffle_id=st.sampled_from(SHUFFLES), maps=st.integers(1, 3))
    def register(self, shuffle_id, maps):
        self.manager.register_shuffle(shuffle_id, maps)
        self.model.setdefault(shuffle_id, (maps, {}))

    @rule(shuffle_id=st.sampled_from(SHUFFLES), data=st.data(), sizes=sizes)
    def write(self, shuffle_id, data, sizes):
        if shuffle_id not in self.model:
            with pytest.raises(ShuffleError):
                self.manager.write_map_output(shuffle_id, 0, {0: [1]})
            return
        map_partition = data.draw(
            st.integers(0, self.model[shuffle_id][0] - 1))
        buckets = self._records(sizes)
        written = self.manager.write_map_output(shuffle_id, map_partition,
                                                buckets)
        assert written == sum(estimate_bytes(records, self.manager.codec)
                              for records in buckets.values())
        self._install(shuffle_id, map_partition, buckets)

    @rule(shuffle_id=st.sampled_from(SHUFFLES), data=st.data(), sizes=sizes,
          producer=st.sampled_from(PRODUCERS))
    def adopt_framed(self, shuffle_id, data, sizes, producer):
        """A worker's map output: framed into a file, adopted by catalog
        (which registers an unknown shuffle with one map)."""
        expected = self.model.get(shuffle_id, (1,))[0]
        map_partition = data.draw(st.integers(0, expected - 1))
        buckets = self._records(sizes)
        writer = SpillFile(f"{self.directory}/frames-{next(self.writes)}",
                           self.manager.codec)
        spans, sample = write_buckets(writer, shuffle_id, map_partition,
                                      buckets, lambda payload: payload)
        self.manager.adopt_catalog(
            shuffle_id, catalog_of({map_partition: spans},
                                   {map_partition: sample} if sample else {}),
            producer)
        self.model.setdefault(shuffle_id, (1, {}))
        self._install(shuffle_id, map_partition, buckets, producer)

    def _written(self):
        return sorted((shuffle_id, map_partition)
                      for shuffle_id, (_, maps) in self.model.items()
                      for map_partition in maps)

    @precondition(_written)
    @rule(data=st.data(), sizes=sizes)
    def rewrite(self, data, sizes):
        """Another attempt of a map that has output, over another reduce
        set: nothing of the earlier attempt may survive."""
        shuffle_id, map_partition = data.draw(
            st.sampled_from(self._written()))
        earlier = sorted(self.model[shuffle_id][1][map_partition][0])
        dropped = data.draw(st.sampled_from(earlier)) if earlier else None
        sizes = {reduce: size for reduce, size in sizes.items()
                 if reduce != dropped}
        buckets = self._records(sizes)
        self.manager.write_map_output(shuffle_id, map_partition, buckets)
        self._install(shuffle_id, map_partition, buckets)

    @precondition(_written)
    @rule(data=st.data())
    def invalidate(self, data):
        shuffle_id, map_partition = data.draw(
            st.sampled_from(self._written()))
        assert self.manager.invalidate_map_output(shuffle_id, map_partition)
        del self.model[shuffle_id][1][map_partition]
        assert not self.manager.invalidate_map_output(shuffle_id,
                                                      map_partition)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        shuffle_id = data.draw(st.sampled_from(list(self.model)))
        self.manager.remove_shuffle(shuffle_id)
        del self.model[shuffle_id]

    @precondition(_written)
    @rule()
    def clear(self):
        self.manager.clear()
        self.model.clear()
        assert self.memory.used_bytes == 0
        assert self.manager.resident_bytes() == 0

    # -- what the store must serve ---------------------------------------------

    def _size(self, records):
        return estimate_bytes(records, self.manager.codec)

    def _expected_read(self, maps, reduce, lo, hi):
        buckets = [maps[m][0][reduce] for m in sorted(maps)
                   if lo <= m < hi and reduce in maps[m][0]]
        return [(records, self._size(records)) for records in buckets]

    @invariant()
    def reads_match_the_model(self):
        manager = self.manager
        for shuffle_id, (expected, maps) in self.model.items():
            complete = len(maps) >= expected
            assert manager.is_complete(shuffle_id) == complete
            ranges = [None] + [(lo, hi) for lo in range(expected + 1)
                               for hi in range(lo, expected + 1)]
            for reduce in range(REDUCES):
                for map_range in ranges:
                    lo, hi = map_range or (0, expected)
                    if not all(m in maps for m in range(lo, hi)):
                        with pytest.raises(ShuffleError):
                            manager.read_reduce_input(shuffle_id, reduce,
                                                      map_range)
                        continue
                    want = self._expected_read(maps, reduce, lo, hi)
                    assert list(manager.iter_reduce_input(
                        shuffle_id, reduce, map_range)) == want
                    assert manager.read_reduce_input(
                        shuffle_id, reduce, map_range) == (
                        [record for records, _ in want for record in records],
                        sum(size for _, size in want))

    @invariant()
    def statistics_match_the_model(self):
        manager = self.manager
        assert manager.shuffle_ids() == list(self.model)
        for shuffle_id in SHUFFLES:
            expected, maps = self.model.get(shuffle_id, (0, {}))
            buckets = [(m, reduce, records)
                       for m, (output, _) in maps.items()
                       for reduce, records in output.items()]
            total = (sum(len(records) for _, _, records in buckets),
                     sum(self._size(records) for _, _, records in buckets))
            assert manager.bytes_written(shuffle_id) == total[1]
            assert manager.map_output_stats(shuffle_id) == (
                total if shuffle_id in self.model and len(maps) >= expected
                else None)
            assert manager.missing_map_partitions(shuffle_id) == [
                m for m in range(expected) if m not in maps]
            per_reduce = {}
            for _, reduce, records in buckets:
                per_reduce[reduce] = per_reduce.get(reduce, 0) + \
                    self._size(records)
            assert manager.reduce_partition_bytes(shuffle_id) == per_reduce
            for reduce in range(REDUCES):
                assert manager.reduce_partition_map_bytes(shuffle_id, reduce) \
                    == [(m, self._size(maps[m][0][reduce])
                         if m in maps and reduce in maps[m][0] else 0)
                        for m in range(expected)]
            # every map wrote fewer records than a key sample holds, so a
            # large enough sample is all of them
            assert sorted(manager.sample_records([shuffle_id], 10_000)) == \
                sorted(record for _, _, records in buckets
                       for record in records)
        for producer in PRODUCERS:
            assert sorted(manager.outputs_of(producer)) == sorted(
                (shuffle_id, m) for shuffle_id, (_, maps) in self.model.items()
                for m, (_, who) in maps.items() if who == producer)

    @invariant()
    def reservation_is_the_resident_bytes(self):
        assert self.memory.used_bytes == self.manager.resident_bytes()


ShuffleStoreModel.TestCase.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=40,
    stateful_step_count=25, suppress_health_check=list(HealthCheck))
test_shuffle_store_matches_its_model = ShuffleStoreModel.TestCase
