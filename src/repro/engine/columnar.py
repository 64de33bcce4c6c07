"""Columnar batch representation for pruned, schema-bearing scans.

A :class:`ColumnBatch` stores a batch of records as per-field value vectors
(plain Python lists, ``None`` marking nulls) plus lazily computed null
masks, instead of a list of per-record dicts.  A scan produces them only
when the optimized plan pruned it to a field subset (``SourceDataset`` with
``columns``; see ``DataSource.read_partition_columns``), which makes the two
operations that dominate such pipelines nearly free:

* **projection** — :meth:`ColumnBatch.project` selects column references;
  no per-record dict is ever built;
* **counting** — ``len(batch)`` is a stored length, not a record walk.

A ``ColumnBatch`` also iterates as per-record dicts (in field order), so a
row-oriented consumer above a pruned scan — filter predicates, UDF maps,
shuffle bucketers — sees exactly the records the row path would produce.
That view is correct but not free (one fresh dict per record), which is why
a full-width scan, whose consumers want whole records, never pivots at all.

The representation is deliberately dependency-free (no numpy): the engine's
records are heterogeneous Python dicts and the win comes from skipping
per-record materialisation, not from SIMD.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple


class ColumnBatch:
    """One batch of records stored column-wise.

    ``fields`` fixes the column order (and the key order of the dicts
    iteration yields); ``columns`` maps each field name to its value list.
    Every column has the same length, stored explicitly so a projection to
    zero fields still knows how many records it holds.
    """

    def __init__(self, fields: Sequence[str], columns: Dict[str, List[Any]],
                 length: int):
        self.fields: Tuple[str, ...] = tuple(fields)
        self.columns = columns
        self._length = int(length)
        self._masks: Dict[str, List[bool]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[Dict[str, Any]],
                     fields: Sequence[str]) -> "ColumnBatch":
        """Pivot row dicts into columns; missing fields read as ``None``."""
        columns = {name: [record.get(name) for record in records]
                   for name in fields}
        return cls(tuple(fields), columns, len(records))

    # -- row views -----------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        """Yield per-record dicts in field order (the row-path view)."""
        fields = self.fields
        if not fields:
            empty: Dict[str, Any] = {}
            return iter([dict(empty) for _ in range(self._length)])
        vectors = [self.columns[name] for name in fields]
        return (dict(zip(fields, values)) for values in zip(*vectors))

    def to_records(self) -> List[Dict[str, Any]]:
        """Materialise the batch as a list of row dicts."""
        return list(self)

    # -- columnar kernels ----------------------------------------------------

    def column(self, name: str) -> List[Any]:
        """The value vector of one field."""
        return self.columns[name]

    def null_mask(self, name: str) -> List[bool]:
        """Per-record null flags of one field, computed once per batch."""
        mask = self._masks.get(name)
        if mask is None:
            mask = [value is None for value in self.columns[name]]
            self._masks[name] = mask
        return mask

    def has_fields(self, fields: Iterable[str]) -> bool:
        """True when every listed field has a column in this batch."""
        return all(name in self.columns for name in fields)

    def project(self, fields: Sequence[str]) -> "ColumnBatch":
        """Keep only the listed fields — a column-reference selection.

        The returned batch shares the surviving value vectors with this one
        (columns are never mutated), so projecting costs a few dict entries
        regardless of batch size.
        """
        return ColumnBatch(tuple(fields),
                           {name: self.columns[name] for name in fields},
                           self._length)

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """Records ``[start, stop)`` as a new batch (used for chunking)."""
        stop = min(stop, self._length)
        start = min(start, stop)
        return ColumnBatch(
            self.fields,
            {name: vector[start:stop] for name, vector in self.columns.items()},
            stop - start)

    def __repr__(self) -> str:
        return (f"<ColumnBatch fields={list(self.fields)} "
                f"records={self._length}>")
