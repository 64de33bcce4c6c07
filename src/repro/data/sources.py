"""Data sources: how campaign pipelines read their input.

A :class:`DataSource` is what the ingestion services of the catalogue bind to:
it exposes a partitioned read interface consumed by
:class:`repro.engine.dataset.SourceDataset`, plus an estimated size used for
quota checks and planning.  Stream sources feed the micro-batch streaming
context.
"""

from __future__ import annotations

import csv
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import SourceError
from ..engine.columnar import ColumnBatch
from ..engine.fingerprint import (Unfingerprintable, object_fingerprint,
                                  records_digest)
from ..engine.streaming import StreamSource
from .generators import DataGenerator
from .schemas import Schema

Record = Dict[str, Any]

#: Records per piece of a range-addressable source in a shared block store.
#: A partition ``[s, e)`` is cut at ``s``, ``e`` and every multiple of this
#: inside, so partitionings whose bounds fall on multiples of it (every Labs
#: volume and partition count: 4000-40000 records over 4 or 8 partitions)
#: share all the pieces of the range they have in common.  Each piece costs
#: one ``resident_bytes`` walk of 32 sampled records when stored.
PIECE_RECORDS = 500


class DataSource:
    """Interface of a partitioned, re-readable batch data source.

    Besides the read interface a source states its *content identity*
    (:meth:`fingerprint`): what the job journal matches a resumed run's
    input against, and what keys the blocks a platform shares between the
    contexts it creates.  The name is a label, never part of the identity.
    """

    def __init__(self, name: str):
        self.name = name

    def estimated_size(self) -> int:
        """Number of records the source is expected to produce."""
        raise NotImplementedError

    def fingerprint(self) -> Optional[str]:
        """Digest that changes whenever the records the source yields change.

        Two sources with equal fingerprints yield equal records for every
        ``(partition, num_partitions)``.  ``None`` — the default, for a
        source that cannot vouch for its content — makes every lineage
        reading it unshareable and unjournaled: recomputed, never matched.
        """
        return None

    def range_identity(self) -> Optional[str]:
        """Digest under which this source's index ranges are interchangeable.

        A source returning one yields, for equal identities, the same record
        at every index whatever its size or partitioning, and implements
        :meth:`read_range`: a shared store may then key its blocks by index
        range (:meth:`pieces`) instead of by partition.  ``None`` — the
        default — keeps it one block per ``(fingerprint, partition)``.
        """
        return None

    def partition_bounds(self, partition: int, num_partitions: int,
                         total: int) -> Tuple[int, int]:
        """``[start, end)`` of ``partition`` of ``num_partitions`` over
        ``total`` records; a partition that does not exist is a
        :class:`SourceError` naming the source."""
        if num_partitions < 1 or not 0 <= partition < num_partitions:
            raise SourceError(
                f"source {self.name!r} has no partition {partition} of "
                f"{num_partitions}")
        return ((partition * total) // num_partitions,
                ((partition + 1) * total) // num_partitions)

    def pieces(self, partition: int, num_partitions: int) -> List[Tuple[int, int]]:
        """The index ranges a partition is assembled from in a shared store:
        its bounds cut at every multiple of :data:`PIECE_RECORDS` inside."""
        start, end = self.partition_bounds(partition, num_partitions,
                                           self.estimated_size())
        cuts = [start, *range(start - start % PIECE_RECORDS + PIECE_RECORDS,
                              end, PIECE_RECORDS), end]
        return list(zip(cuts, cuts[1:])) if start < end else []

    def read_partition(self, partition: int, num_partitions: int) -> Iterator[Record]:
        """Yield the records belonging to ``partition`` of ``num_partitions``."""
        raise NotImplementedError

    def read_partition_columns(self, partition: int, num_partitions: int,
                               fields: List[str]) -> Optional[ColumnBatch]:
        """``fields`` of one partition as a :class:`ColumnBatch` (a pruned,
        projection-aware scan), or ``None`` without a schema.

        The base implementation pivots :meth:`read_partition`'s row dicts,
        reading each field with ``record.get``; sources that hold data
        column-wise override it to skip rows entirely.
        """
        if getattr(self, "schema", None) is None:
            return None
        records = list(self.read_partition(partition, num_partitions))
        return ColumnBatch.from_records(records, fields)

    def read_all(self) -> Iterator[Record]:
        """Yield every record (single-partition convenience read)."""
        return self.read_partition(0, 1)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} ~{self.estimated_size()} records>"


class InMemorySource(DataSource):
    """A source backed by an in-memory list of records."""

    def __init__(self, name: str, records: List[Record], schema: Optional[Schema] = None):
        super().__init__(name)
        self._records = list(records)
        self.schema = schema
        #: Lazily pivoted column store ({field: full-length value vector}).
        #: A field is pivoted by the first pruned read that asks for it, once
        #: (under the lock: worker threads start on the same field together),
        #: and shared by every partition — records are immutable.
        self._column_store: Dict[str, List[Any]] = {}
        self._store_lock = threading.Lock()

    def __getstate__(self):
        """Ship the records, not the derived store or its (unpicklable) lock."""
        state = self.__dict__.copy()
        state["_column_store"] = {}
        del state["_store_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._store_lock = threading.Lock()

    def estimated_size(self) -> int:
        return len(self._records)

    def fingerprint(self) -> Optional[str]:
        """Content digest of the held records (computed once, on demand)."""
        return _held_records_fingerprint(self)

    def read_partition(self, partition: int, num_partitions: int) -> Iterator[Record]:
        start, end = self.partition_bounds(partition, num_partitions,
                                           len(self._records))
        return iter(self._records[start:end])

    def _column(self, name: str) -> List[Any]:
        with self._store_lock:
            column = self._column_store.get(name)
            if column is None:
                column = [record.get(name) for record in self._records]
                self._column_store[name] = column
        return column

    def read_partition_columns(self, partition: int, num_partitions: int,
                               fields: List[str]) -> Optional[ColumnBatch]:
        if self.schema is None:
            return None
        start, end = self.partition_bounds(partition, num_partitions,
                                           len(self._records))
        return ColumnBatch(
            tuple(fields),
            {name: self._column(name)[start:end] for name in fields},
            end - start)


class GeneratorSource(DataSource):
    """A source producing records on demand from a :class:`DataGenerator`.

    Records are generated per partition from disjoint index ranges, so the
    full dataset never needs to exist in memory at once and the content does
    not depend on the partition count.  A record depends on its index alone,
    not on ``num_records``, so the source is range-addressable
    (:meth:`range_identity`).
    """

    def __init__(self, generator: DataGenerator, num_records: int,
                 name: Optional[str] = None):
        if num_records < 0:
            raise SourceError("num_records must be >= 0")
        super().__init__(name or f"{generator.scenario}_source")
        self.generator = generator
        self.num_records = num_records
        self.schema = generator.schema

    def estimated_size(self) -> int:
        return self.num_records

    def fingerprint(self) -> Optional[str]:
        """Generator class, its public parameters (seed included) and the
        record count — everything ``generate_range`` output depends on."""
        return self._generator_fingerprint(self.num_records)

    def range_identity(self) -> Optional[str]:
        """:meth:`fingerprint` without the record count: what one record
        depends on besides its index."""
        return self._generator_fingerprint()

    def _generator_fingerprint(self, *extra: Any) -> Optional[str]:
        private = [name for name in vars(self.generator)
                   if name.startswith("_")]
        return object_fingerprint(self.generator, private, *extra)

    def read_range(self, start: int, end: int) -> Iterator[Record]:
        """The records with indexes in ``[start, end)``, a sub-range of the
        source."""
        if not 0 <= start <= end <= self.num_records:
            raise SourceError(f"source {self.name!r} has no records "
                              f"[{start}, {end}) of {self.num_records}")
        return self.generator.generate_range(start, end)

    def read_partition(self, partition: int, num_partitions: int) -> Iterator[Record]:
        return self.read_range(*self.partition_bounds(
            partition, num_partitions, self.num_records))


class CSVFileSource(DataSource):
    """A source reading a CSV file, optionally converting types via a schema."""

    def __init__(self, path: str, schema: Optional[Schema] = None,
                 name: Optional[str] = None):
        super().__init__(name or f"csv({path})")
        self.path = path
        self.schema = schema
        try:
            with open(path, "r", encoding="utf-8", newline="") as handle:
                reader = csv.DictReader(handle)
                self._records = [self._convert(row) for row in reader]
        except OSError as error:
            raise SourceError(f"cannot read CSV file {path!r}: {error}") from error

    def _convert(self, row: Dict[str, str]) -> Record:
        if self.schema is None:
            return dict(row)
        converted: Record = {}
        for field in self.schema.fields:
            if field.name not in row:
                continue
            raw = row[field.name]
            if raw == "" and field.nullable:
                converted[field.name] = None
            elif field.dtype == "int":
                converted[field.name] = int(float(raw))
            elif field.dtype in ("float", "timestamp"):
                converted[field.name] = float(raw)
            elif field.dtype == "bool":
                converted[field.name] = raw.lower() in ("1", "true", "yes")
            elif field.dtype == "list":
                converted[field.name] = [item for item in raw.split(";") if item]
            else:
                converted[field.name] = raw
        return converted

    def estimated_size(self) -> int:
        return len(self._records)

    def fingerprint(self) -> Optional[str]:
        """Content digest of the rows as loaded and converted: an edited
        file of the same path and row count is a different source."""
        return _held_records_fingerprint(self)

    def read_partition(self, partition: int, num_partitions: int) -> Iterator[Record]:
        start, end = self.partition_bounds(partition, num_partitions,
                                           len(self._records))
        return iter(self._records[start:end])


def _held_records_fingerprint(source) -> Optional[str]:
    """Digest of a source's in-memory ``_records``, memoised on the source
    (both holders copy the list at construction and never mutate it)."""
    if "_content_digest" not in vars(source):
        try:
            source._content_digest = records_digest(source._records)
        except Unfingerprintable:
            source._content_digest = None
    return source._content_digest


def write_csv(path: str, records: List[Record], schema: Schema) -> int:
    """Write records to a CSV file following the schema's field order."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=schema.field_names)
        writer.writeheader()
        for record in records:
            row = {}
            for field in schema.fields:
                value = record.get(field.name)
                if field.dtype == "list" and value is not None:
                    value = ";".join(str(item) for item in value)
                row[field.name] = value
            writer.writerow(row)
    return len(records)


class GeneratorStreamSource(StreamSource):
    """Micro-batch stream that draws successive batches from a generator."""

    def __init__(self, generator: DataGenerator, batch_size: int,
                 max_batches: Optional[int] = None, name: Optional[str] = None):
        if batch_size < 1:
            raise SourceError("batch_size must be >= 1")
        self.generator = generator
        self.batch_size = batch_size
        self.max_batches = max_batches
        self.name = name or f"{generator.scenario}_stream"

    def next_batch(self, batch_index: int) -> Optional[List[Record]]:
        if self.max_batches is not None and batch_index >= self.max_batches:
            return None
        start = batch_index * self.batch_size
        return list(self.generator.generate_range(start, start + self.batch_size))


class ReplayStreamSource(StreamSource):
    """Micro-batch stream that replays a fixed list of records."""

    def __init__(self, records: List[Record], batch_size: int, name: str = "replay"):
        if batch_size < 1:
            raise SourceError("batch_size must be >= 1")
        self._records = list(records)
        self.batch_size = batch_size
        self.name = name

    def next_batch(self, batch_index: int) -> Optional[List[Record]]:
        start = batch_index * self.batch_size
        if start >= len(self._records):
            return None
        return self._records[start:start + self.batch_size]
