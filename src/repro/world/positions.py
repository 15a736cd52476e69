"""Preallocated position storage for the world's hot path.

The seed implementation rebuilt an ``(n, 2)`` position matrix with
``np.vstack`` on every world tick — one allocation plus ``n`` small array
copies per update.  :class:`PositionStore` replaces that with a single
preallocated float64 array owned by the world: every node's
:class:`~repro.mobility.base.PathFollower` writes into its own row *view*,
so :meth:`PositionStore.view` is the current position matrix with zero
per-tick work.

Rows are handed out in registration order and never move.  The backing
array grows at most once per :meth:`PositionStore.allocate` call (to at
least double its capacity); growing reallocates, which invalidates previously
handed-out row views — the world (the only writer that adds rows) re-binds
every follower after a growth event, see
:meth:`~repro.world.world.World.add_nodes`.
"""

from __future__ import annotations

import numpy as np


class PositionStore:
    """A growable ``(capacity, 2)`` float64 array of node positions."""

    __slots__ = ("_data", "_count")

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._data = np.zeros((int(capacity), 2), dtype=float)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        """Number of rows the backing array can hold before growing."""
        return self._data.shape[0]

    @property
    def data(self) -> np.ndarray:
        """The full backing array (identity changes when the store grows)."""
        return self._data

    def add(self, position) -> int:
        """Append *position* and return its row index (see :meth:`allocate`)."""
        index = self.allocate(1)
        self._data[index] = np.asarray(position, dtype=float)
        return index

    def allocate(self, count: int) -> int:
        """Append *count* rows for the caller to fill; returns the first index.

        Grows the backing array at most once, to at least twice its
        capacity, so repeated one-row appends stay amortised O(1).  Growth
        reallocates; compare :attr:`data` identity before/after to detect it
        and re-bind outstanding row views.
        """
        start = self._count
        end = start + count
        capacity = self._data.shape[0]
        if end > capacity:
            grown = np.zeros((max(end, 2 * capacity), 2), dtype=float)
            grown[:start] = self._data[:start]
            self._data = grown
        self._count = end
        return start

    def row(self, index: int) -> np.ndarray:
        """Writable ``(2,)`` view of one node's position."""
        if not 0 <= index < self._count:
            raise IndexError(f"row {index} out of range (count={self._count})")
        return self._data[index]

    def view(self) -> np.ndarray:
        """``(n, 2)`` view of all current positions (no copy)."""
        return self._data[:self._count]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PositionStore({self._count}/{self.capacity} rows)"
