"""Data sources: partitioned reads, CSV round-trips, stream sources."""

from __future__ import annotations

import pytest

from repro.data.generators import ChurnDataGenerator
from repro.data.schemas import CHURN_SCHEMA, RETAIL_SCHEMA
from repro.data.sources import (PIECE_RECORDS, CSVFileSource, GeneratorSource,
                                GeneratorStreamSource, InMemorySource,
                                ReplayStreamSource, write_csv)
from repro.errors import SourceError


class TestInMemorySource:
    def test_partitions_cover_all_records(self):
        records = [{"v": i} for i in range(10)]
        source = InMemorySource("mem", records)
        gathered = []
        for partition in range(3):
            gathered.extend(source.read_partition(partition, 3))
        assert gathered == records

    def test_estimated_size(self):
        assert InMemorySource("mem", [{"v": 1}] * 7).estimated_size() == 7

    def test_read_all(self):
        source = InMemorySource("mem", [{"v": 1}, {"v": 2}])
        assert list(source.read_all()) == [{"v": 1}, {"v": 2}]

    def test_repr_mentions_name(self):
        assert "mem" in repr(InMemorySource("mem", []))


class TestGeneratorSource:
    def test_partition_contents_independent_of_partition_count(self):
        generator = ChurnDataGenerator(seed=3)
        source = GeneratorSource(generator, 100)
        two_parts = [record for p in range(2) for record in source.read_partition(p, 2)]
        five_parts = [record for p in range(5) for record in source.read_partition(p, 5)]
        assert two_parts == five_parts

    def test_matches_direct_generation(self):
        generator = ChurnDataGenerator(seed=3)
        source = GeneratorSource(generator, 50)
        assert list(source.read_partition(0, 1)) == ChurnDataGenerator(seed=3).generate(50)

    def test_negative_count_rejected(self):
        with pytest.raises(SourceError):
            GeneratorSource(ChurnDataGenerator(), -1)

    def test_schema_is_exposed(self):
        assert GeneratorSource(ChurnDataGenerator(), 10).schema is CHURN_SCHEMA

    def test_source_works_with_engine(self, engine):
        source = GeneratorSource(ChurnDataGenerator(seed=1), 200)
        ds = engine.from_source(source, 4)
        assert ds.count() == 200


class TestPartitionBounds:
    """A partition that does not exist is a SourceError naming the source,
    from every source, before any record is read."""

    def sources(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a\n" + "\n".join(map(str, range(100))), encoding="utf-8")
        return [GeneratorSource(ChurnDataGenerator(seed=3), 100, name="gen"),
                InMemorySource("mem", [{"v": i} for i in range(100)], CHURN_SCHEMA),
                CSVFileSource(str(path), name="csv")]

    @pytest.mark.parametrize("partition,num_partitions", [
        (5, 4),    # beyond the last: used to yield C0000125... past num_records
        (4, 4),
        (0, 0),    # used to raise a bare ZeroDivisionError
        (-1, 4),   # used to surface the generator's DataError
    ])
    def test_a_missing_partition_is_a_named_source_error(
            self, tmp_path, partition, num_partitions):
        for source in self.sources(tmp_path):
            with pytest.raises(SourceError, match=repr(source.name)):
                source.read_partition(partition, num_partitions)

    def test_in_memory_columns_check_the_partition_too(self):
        source = InMemorySource("mem", [{"v": i} for i in range(10)], CHURN_SCHEMA)
        with pytest.raises(SourceError, match="'mem'"):
            source.read_partition_columns(3, 3, ["age"])

    def test_bounds_tile_the_records(self):
        source = InMemorySource("mem", [])
        bounds = [source.partition_bounds(p, 3, 10) for p in range(3)]
        assert bounds == [(0, 3), (3, 6), (6, 10)]

    def test_pieces_cut_each_partition_at_multiples_of_the_piece_size(self):
        size = PIECE_RECORDS
        source = GeneratorSource(ChurnDataGenerator(), 3 * size)
        assert source.pieces(0, 2) == [(0, size), (size, 3 * size // 2)]
        assert source.pieces(1, 2) == [(3 * size // 2, 2 * size),
                                       (2 * size, 3 * size)]
        assert source.pieces(0, 3 * size + 1) == []  # an empty partition

    def test_range_identity_ignores_only_the_record_count(self):
        small = GeneratorSource(ChurnDataGenerator(seed=3), 100)
        large = GeneratorSource(ChurnDataGenerator(seed=3), 900)
        assert small.range_identity() == large.range_identity()
        assert len(small.range_identity()) == 64
        assert small.fingerprint() != large.fingerprint()
        assert small.range_identity() not in (small.fingerprint(),
                                              large.fingerprint())
        assert GeneratorSource(ChurnDataGenerator(seed=4), 100).range_identity() \
            != small.range_identity()
        assert InMemorySource("mem", [{"v": 1}]).range_identity() is None
        assert list(large.read_range(40, 60)) == list(small.read_range(40, 60))
        with pytest.raises(SourceError, match="no records"):
            small.read_range(90, 110)


class TestCSVSource:
    def test_roundtrip_with_schema_types(self, tmp_path):
        records = ChurnDataGenerator(seed=2).generate(30)
        path = str(tmp_path / "churn.csv")
        assert write_csv(path, records, CHURN_SCHEMA) == 30
        source = CSVFileSource(path, CHURN_SCHEMA)
        loaded = list(source.read_all())
        assert len(loaded) == 30
        assert loaded[0]["age"] == records[0]["age"]
        assert isinstance(loaded[0]["monthly_charges"], float)
        assert isinstance(loaded[0]["tenure_months"], int)

    def test_list_field_roundtrip(self, tmp_path):
        from repro.data.generators import RetailTransactionGenerator
        records = RetailTransactionGenerator(seed=2).generate(10)
        path = str(tmp_path / "retail.csv")
        write_csv(path, records, RETAIL_SCHEMA)
        loaded = list(CSVFileSource(path, RETAIL_SCHEMA).read_all())
        assert loaded[0]["basket"] == records[0]["basket"]

    def test_missing_file_raises(self):
        with pytest.raises(SourceError):
            CSVFileSource("/does/not/exist.csv")

    def test_without_schema_values_stay_strings(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n1,x\n2,y\n", encoding="utf-8")
        loaded = list(CSVFileSource(str(path)).read_all())
        assert loaded == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]

    def test_partitioned_read(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a\n" + "\n".join(str(i) for i in range(10)), encoding="utf-8")
        source = CSVFileSource(str(path))
        assert source.estimated_size() == 10
        first = list(source.read_partition(0, 2))
        second = list(source.read_partition(1, 2))
        assert len(first) + len(second) == 10


class TestStreamSources:
    def test_generator_stream_produces_disjoint_batches(self):
        stream = GeneratorStreamSource(ChurnDataGenerator(seed=1), batch_size=10)
        first = stream.next_batch(0)
        second = stream.next_batch(1)
        assert len(first) == len(second) == 10
        assert first[0]["customer_id"] != second[0]["customer_id"]

    def test_generator_stream_respects_max_batches(self):
        stream = GeneratorStreamSource(ChurnDataGenerator(seed=1), batch_size=5,
                                       max_batches=2)
        assert stream.next_batch(0) is not None
        assert stream.next_batch(1) is not None
        assert stream.next_batch(2) is None

    def test_generator_stream_invalid_batch_size(self):
        with pytest.raises(SourceError):
            GeneratorStreamSource(ChurnDataGenerator(), batch_size=0)

    def test_replay_stream_ends_when_exhausted(self):
        stream = ReplayStreamSource([{"v": i} for i in range(7)], batch_size=3)
        assert len(stream.next_batch(0)) == 3
        assert len(stream.next_batch(1)) == 3
        assert len(stream.next_batch(2)) == 1
        assert stream.next_batch(3) is None

    def test_replay_stream_invalid_batch_size(self):
        with pytest.raises(SourceError):
            ReplayStreamSource([], batch_size=0)
