"""Growable column stores behind the metrics collector's event records.

Million-event sweeps should not allocate one frozen dataclass per relay: the
:class:`~repro.metrics.collector.StatsCollector` appends
each event's fields to a :class:`ColumnTable` — numeric fields land in
preallocated, geometrically grown NumPy arrays; string fields (message ids)
in plain Python lists.  The record dataclasses are materialized on demand
only when somebody actually reads a ``*_records`` list, and analysis code
can skip materialization entirely via :meth:`ColumnTable.column`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np


class _Growable:
    """An append-only 1-D array with amortized O(1) appends."""

    __slots__ = ("_data", "_n")

    _INITIAL = 64

    def __init__(self, dtype) -> None:
        self._data = np.empty(self._INITIAL, dtype=dtype)
        self._n = 0

    def append(self, value) -> None:
        data = self._data
        n = self._n
        if n == len(data):
            grown = np.empty(2 * len(data), dtype=data.dtype)
            grown[:n] = data
            self._data = grown
            data = grown
        data[n] = value
        self._n = n + 1

    def extend(self, values) -> None:
        """Append a whole batch in one vectorized copy."""
        values = np.asarray(values, dtype=self._data.dtype)
        n = self._n
        needed = n + len(values)
        if needed > len(self._data):
            capacity = len(self._data)
            while capacity < needed:
                capacity *= 2
            grown = np.empty(capacity, dtype=self._data.dtype)
            grown[:n] = self._data[:n]
            self._data = grown
        self._data[n:needed] = values
        self._n = needed

    def __len__(self) -> int:
        return self._n

    def array(self) -> np.ndarray:
        """Read-only view of the appended values (no copy)."""
        return self._data[:self._n]


class ColumnTable:
    """One event type's columns plus on-demand record materialization.

    Parameters
    ----------
    fields:
        ``(name, dtype)`` pairs in record-field order.  ``dtype`` is a NumPy
        dtype string (``"f8"``, ``"i8"``, ``"?"``) or ``"object"`` for string
        columns (kept as Python lists — ids are shared, not copied).
    record_type:
        The dataclass to materialize rows into.
    """

    __slots__ = ("fields", "record_type", "_columns", "_materialized")

    def __init__(self, fields: Sequence[Tuple[str, str]],
                 record_type: Callable) -> None:
        self.fields = tuple(fields)
        self.record_type = record_type
        self._columns: List = [
            [] if dtype == "object" else _Growable(dtype)
            for _, dtype in self.fields]
        #: memoized (row_count, records) of the last materialization
        self._materialized: Tuple[int, List] = (-1, [])

    def append(self, *values) -> None:
        """Append one row; *values* in field order."""
        for column, value in zip(self._columns, values):
            column.append(value)

    def extend(self, *column_batches) -> None:
        """Append many rows at once; *column_batches* in field order.

        Each element is one column's worth of new values (array or sequence,
        all the same length).  Numeric columns take one vectorized copy each
        instead of a Python-level append per row — this is the bulk path the
        world's batched link bookkeeping feeds a whole tick's contact events
        through.
        """
        for column, batch in zip(self._columns, column_batches):
            # both list (object columns) and _Growable expose extend()
            column.extend(batch)

    def __len__(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    def column(self, name: str) -> np.ndarray:
        """One column as an array (numeric: zero-copy view; object: copy)."""
        for (field, dtype), column in zip(self.fields, self._columns):
            if field == name:
                if dtype == "object":
                    return np.asarray(column, dtype=object)
                return column.array()
        raise KeyError(f"unknown column {name!r}")

    def columns(self) -> Dict[str, np.ndarray]:
        """All columns by name."""
        return {name: self.column(name) for name, _ in self.fields}

    def materialize(self) -> List:
        """Build the record list (one dataclass per row) on demand.

        Memoized on the row count (columns are append-only), so repeated
        ``*_records`` reads — including per-element indexing in a loop — pay
        the dataclass construction once per batch of appends.
        """
        count = len(self)
        cached_count, cached = self._materialized
        if cached_count == count:
            return cached
        raw = [column if isinstance(column, list) else column.array().tolist()
               for column in self._columns]
        records = [self.record_type(*row) for row in zip(*raw)]
        self._materialized = (count, records)
        return records
