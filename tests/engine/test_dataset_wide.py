"""Wide (shuffle) transformations: grouping, joining, sorting, repartitioning."""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.engine.context import EngineContext
from repro.errors import PlanError


class TestGroupingAndReduction:
    def test_reduce_by_key_sums(self, engine):
        pairs = engine.parallelize([(i % 3, i) for i in range(30)], 4)
        result = dict(pairs.reduce_by_key(lambda a, b: a + b).collect())
        expected = {}
        for i in range(30):
            expected[i % 3] = expected.get(i % 3, 0) + i
        assert result == expected

    def test_group_by_key_collects_all_values(self, engine):
        pairs = engine.parallelize([("a", 1), ("b", 2), ("a", 3)], 3)
        grouped = {k: sorted(v) for k, v in pairs.group_by_key().collect()}
        assert grouped == {"a": [1, 3], "b": [2]}

    def test_group_by_function(self, engine):
        grouped = dict(engine.range(10, num_partitions=3)
                       .group_by(lambda x: x % 2).collect())
        assert sorted(grouped[0]) == [0, 2, 4, 6, 8]
        assert sorted(grouped[1]) == [1, 3, 5, 7, 9]

    def test_combine_by_key_average(self, engine):
        pairs = engine.parallelize([("x", 1.0), ("x", 3.0), ("y", 10.0)], 2)
        combined = pairs.combine_by_key(
            lambda v: (v, 1),
            lambda acc, v: (acc[0] + v, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]))
        averages = {k: total / count for k, (total, count) in combined.collect()}
        assert averages == {"x": 2.0, "y": 10.0}

    def test_aggregate_by_key(self, engine):
        pairs = engine.parallelize([("a", 2), ("a", 5), ("b", 7)], 3)
        result = dict(pairs.aggregate_by_key(0, lambda acc, v: acc + v,
                                             lambda a, b: a + b).collect())
        assert result == {"a": 7, "b": 7}

    def test_reduce_by_key_custom_partition_count(self, engine):
        pairs = engine.parallelize([(i, 1) for i in range(20)], 4)
        reduced = pairs.reduce_by_key(lambda a, b: a + b, num_partitions=7)
        assert reduced.num_partitions == 7
        assert len(reduced.collect()) == 20

    def test_count_by_key(self, engine):
        pairs = engine.parallelize([("a", 1), ("a", 2), ("b", 3)], 2)
        assert pairs.count_by_key() == {"a": 2, "b": 1}


class TestDistinctAndRepartition:
    def test_distinct_removes_duplicates(self, engine):
        ds = engine.parallelize([1, 2, 2, 3, 3, 3, 4], 3)
        assert sorted(ds.distinct().collect()) == [1, 2, 3, 4]

    def test_distinct_on_strings(self, engine):
        ds = engine.parallelize(list("abracadabra"), 4)
        assert sorted(ds.distinct().collect()) == ["a", "b", "c", "d", "r"]

    def test_repartition_preserves_data(self, engine):
        ds = engine.range(100, num_partitions=2).repartition(8)
        assert ds.num_partitions == 8
        assert sorted(ds.collect()) == list(range(100))

    def test_repartition_spreads_records(self, engine):
        sizes = engine.range(80, num_partitions=1).repartition(8).glom() \
            .map(len).collect()
        assert len(sizes) == 8
        assert max(sizes) - min(sizes) <= 1


class TestSorting:
    def test_sort_by_ascending(self, engine):
        data = [5, 3, 8, 1, 9, 2, 7]
        assert engine.parallelize(data, 3).sort_by(lambda x: x).collect() == sorted(data)

    def test_sort_by_descending(self, engine):
        data = list(range(50))
        result = engine.parallelize(data, 4).sort_by(lambda x: x, ascending=False).collect()
        assert result == sorted(data, reverse=True)

    def test_sort_by_key(self, engine):
        pairs = [(3, "c"), (1, "a"), (2, "b")]
        assert engine.parallelize(pairs, 2).sort_by_key().collect() == \
            [(1, "a"), (2, "b"), (3, "c")]

    def test_sort_large_dataset_is_globally_ordered(self, engine):
        import random
        rng = random.Random(3)
        data = [rng.randrange(10_000) for _ in range(5000)]
        result = engine.parallelize(data, 8).sort_by(lambda x: x).collect()
        assert result == sorted(data)

    def test_sort_by_custom_key(self, engine):
        words = ["bb", "a", "dddd", "ccc"]
        assert engine.parallelize(words, 2).sort_by(len).collect() == \
            ["a", "bb", "ccc", "dddd"]


class TestJoins:
    def test_inner_join(self, engine):
        left = engine.parallelize([(1, "a"), (2, "b"), (3, "c")], 2)
        right = engine.parallelize([(1, "x"), (3, "y"), (4, "z")], 2)
        assert sorted(left.join(right).collect()) == [(1, ("a", "x")), (3, ("c", "y"))]

    def test_join_with_duplicate_keys_is_cartesian_per_key(self, engine):
        left = engine.parallelize([(1, "a"), (1, "b")], 2)
        right = engine.parallelize([(1, "x"), (1, "y")], 2)
        assert len(left.join(right).collect()) == 4

    def test_left_outer_join(self, engine):
        left = engine.parallelize([(1, "a"), (2, "b")], 2)
        right = engine.parallelize([(2, "x")], 1)
        assert sorted(left.left_outer_join(right).collect()) == \
            [(1, ("a", None)), (2, ("b", "x"))]

    def test_right_outer_join(self, engine):
        left = engine.parallelize([(2, "b")], 1)
        right = engine.parallelize([(1, "x"), (2, "y")], 2)
        assert sorted(left.right_outer_join(right).collect()) == \
            [(1, (None, "x")), (2, ("b", "y"))]

    def test_full_outer_join(self, engine):
        left = engine.parallelize([(1, "a")], 1)
        right = engine.parallelize([(2, "x")], 1)
        assert sorted(left.full_outer_join(right).collect()) == \
            [(1, ("a", None)), (2, (None, "x"))]

    def test_cogroup_groups_both_sides(self, engine):
        left = engine.parallelize([(1, "a"), (1, "b")], 2)
        right = engine.parallelize([(1, "x"), (2, "y")], 2)
        result = {k: (sorted(l), sorted(r)) for k, (l, r) in
                  left.cogroup(right).collect()}
        assert result == {1: (["a", "b"], ["x"]), 2: ([], ["y"])}

    def test_subtract_by_key(self, engine):
        left = engine.parallelize([(1, "a"), (2, "b"), (3, "c")], 2)
        right = engine.parallelize([(2, "whatever")], 1)
        assert sorted(left.subtract_by_key(right).collect()) == [(1, "a"), (3, "c")]

    def test_join_of_empty_dataset(self, engine):
        left = engine.parallelize([(1, "a")], 1)
        right = engine.empty().map(lambda x: x)
        assert left.join(right).collect() == []


class TestChainedWideOperations:
    def test_wordcount(self, engine):
        lines = ["the quick brown fox", "the lazy dog", "the fox"]
        counts = dict(engine.parallelize(lines, 2)
                      .flat_map(str.split)
                      .map(lambda w: (w, 1))
                      .reduce_by_key(lambda a, b: a + b)
                      .collect())
        assert counts["the"] == 3
        assert counts["fox"] == 2
        assert counts["dog"] == 1

    def test_shuffle_then_narrow_then_shuffle(self, engine):
        result = (engine.range(100, num_partitions=4)
                  .map(lambda x: (x % 10, x))
                  .reduce_by_key(lambda a, b: a + b)
                  .map(lambda kv: (kv[1] % 3, 1))
                  .reduce_by_key(lambda a, b: a + b)
                  .collect())
        assert sum(count for _, count in result) == 10

    def test_join_after_group_by(self, engine):
        grouped = (engine.range(20, num_partitions=4)
                   .map(lambda x: (x % 4, x))
                   .group_by_key()
                   .map_values(len))
        sizes = engine.parallelize([(k, "label") for k in range(4)], 2)
        joined = dict(grouped.join(sizes).collect())
        assert all(value == (5, "label") for value in joined.values())


class TestContextBoundary:
    """Datasets of two engine contexts never combine: each context's
    scheduler runs only its own lineage and knows only its own shuffles."""

    @staticmethod
    def _add(a, b):
        return a + b

    @pytest.fixture()
    def other_engine(self):
        ctx = EngineContext(EngineConfig(num_workers=1, default_parallelism=2,
                                         seed=1))
        yield ctx
        ctx.stop()

    @pytest.mark.parametrize("combine", [
        lambda x, y: x.join(y),
        lambda x, y: x.left_outer_join(y),
        lambda x, y: x.full_outer_join(y),
        lambda x, y: x.subtract_by_key(y),
        lambda x, y: x.cogroup(y),
        lambda x, y: x.union(y),
    ], ids=["join", "left_outer_join", "full_outer_join", "subtract_by_key",
            "cogroup", "union"])
    @pytest.mark.parametrize("shuffled", [False, True],
                             ids=["source", "after_shuffle"])
    def test_combining_across_contexts_is_a_plan_error(
            self, engine, other_engine, combine, shuffled):
        x = engine.parallelize([(1, "a"), (2, "b")], 2)
        y = other_engine.parallelize([(1, "X")], 1)
        if shuffled:
            y = y.reduce_by_key(self._add)
        with pytest.raises(PlanError) as raised:
            combine(x, y)
        message = str(raised.value)
        assert repr(x) in message and repr(y) in message
        assert "different engine contexts" in message
        # the other context's datasets still run there
        assert dict(y.collect()) == {1: "X"}

    def test_combining_within_one_context_still_works(self, engine):
        x = engine.parallelize([(1, "a"), (2, "b")], 2)
        y = engine.parallelize([(1, "X")], 1).reduce_by_key(self._add)
        assert x.join(y).collect() == [(1, ("a", "X"))]
        assert sorted(x.union(y).collect()) == [(1, "X"), (1, "a"), (2, "b")]
