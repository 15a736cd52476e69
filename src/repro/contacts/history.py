"""Per-node contact histories.

Each node keeps, for every peer it has ever met, a bounded sliding window of
*meeting intervals* (the time between the starts of consecutive contacts) and
the time of the last contact.  This is exactly the state the paper's
Theorems 1, 2 and 4 consume: the recorded set
:math:`R_{ij} = \\{\\Delta t^{ij}_1, ..., \\Delta t^{ij}_{r_{ij}}\\}` and
:math:`t^{ij}_0`.

:class:`ContactHistory` is the production store.  All windows live in a
single preallocated ``(peers, window)`` NumPy matrix (grown geometrically as
new peers appear) alongside last-contact / contact-count vectors, so the
EER/CR estimators (Theorems 1, 2 and 4) can reduce over *every* peer in a
handful of vectorized operations instead of one Python loop iteration per
peer.  Rows are kept in chronological order (append shifts left once the
window is full), which lets the batch kernels in
:mod:`repro.core.expectation` reproduce the reference loops' left-to-right
summation order bit for bit.  Its naive specification, the original
dict-of-deques store, is
:class:`repro.testing.reference.ContactHistoryReference`.

A monotonically increasing :attr:`~ContactHistory.version` changes whenever
recorded state changes; the MEMD delay-vector cache
(:class:`repro.contacts.memd.MemdCache`) keys on it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np


class ContactHistory:
    """Sliding-window record of meeting intervals with every peer.

    Parameters
    ----------
    owner_id:
        The node this history belongs to (used only for error messages and
        sanity checks).
    window_size:
        Maximum number of meeting intervals kept per peer; older intervals
        fall out of the window (the paper's "set of sliding windows").
    """

    __slots__ = ("owner_id", "window_size", "version", "_slots", "_peer_ids",
                 "_intervals", "_counts", "_last", "_contact_counts", "_size")

    #: initial number of preallocated peer rows; grown by doubling
    _INITIAL_CAPACITY = 8

    def __init__(self, owner_id: int, window_size: int = 20) -> None:
        if window_size < 1:
            raise ValueError("window_size must be at least 1")
        self.owner_id = int(owner_id)
        self.window_size = int(window_size)
        #: bumped on every recorded contact (cache key for MEMD vectors)
        self.version = 0
        self._slots: Dict[int, int] = {}
        capacity = self._INITIAL_CAPACITY
        self._peer_ids = np.full(capacity, -1, dtype=np.int64)
        self._intervals = np.zeros((capacity, self.window_size), dtype=float)
        self._counts = np.zeros(capacity, dtype=np.int64)
        self._last = np.full(capacity, np.nan, dtype=float)
        self._contact_counts = np.zeros(capacity, dtype=np.int64)
        self._size = 0

    # ----------------------------------------------------------------- sizing
    def _grow(self) -> None:
        capacity = 2 * len(self._peer_ids)
        peer_ids = np.full(capacity, -1, dtype=np.int64)
        peer_ids[:self._size] = self._peer_ids[:self._size]
        intervals = np.zeros((capacity, self.window_size), dtype=float)
        intervals[:self._size] = self._intervals[:self._size]
        counts = np.zeros(capacity, dtype=np.int64)
        counts[:self._size] = self._counts[:self._size]
        last = np.full(capacity, np.nan, dtype=float)
        last[:self._size] = self._last[:self._size]
        contact_counts = np.zeros(capacity, dtype=np.int64)
        contact_counts[:self._size] = self._contact_counts[:self._size]
        self._peer_ids = peer_ids
        self._intervals = intervals
        self._counts = counts
        self._last = last
        self._contact_counts = contact_counts

    # ---------------------------------------------------------------- record
    def record_contact(self, peer_id: int, now: float) -> Optional[float]:
        """Record a contact with *peer_id* starting at time *now*.

        Returns the meeting interval added to the window (``None`` for the
        very first contact with this peer, which only sets
        :math:`t^{ij}_0`).
        """
        peer_id = int(peer_id)
        if peer_id == self.owner_id:
            raise ValueError("a node cannot record a contact with itself")
        if now < 0:
            raise ValueError("contact time must be non-negative")
        slot = self._slots.get(peer_id)
        self.version += 1
        if slot is None:
            if self._size == len(self._peer_ids):
                self._grow()
            slot = self._size
            self._size += 1
            self._slots[peer_id] = slot
            self._peer_ids[slot] = peer_id
            self._last[slot] = float(now)
            self._contact_counts[slot] = 1
            return None
        last = self._last[slot]
        if now < last:
            raise ValueError(
                f"contact at t={now} precedes the last recorded contact at t={last}")
        interval = float(now) - float(last)
        count = self._counts[slot]
        row = self._intervals[slot]
        if count == self.window_size:
            # window full: shift left one step to keep chronological order
            row[:-1] = row[1:]
            row[-1] = interval
        else:
            row[count] = interval
            self._counts[slot] = count + 1
        self._last[slot] = float(now)
        self._contact_counts[slot] += 1
        return interval

    # ----------------------------------------------------------------- query
    def peers(self) -> List[int]:
        """Peers this node has met at least once (first-met order)."""
        return list(self._slots)

    def has_met(self, peer_id: int) -> bool:
        """Whether the node has ever met *peer_id*."""
        return int(peer_id) in self._slots

    def contact_count(self, peer_id: int) -> int:
        """Number of contacts recorded with *peer_id*."""
        slot = self._slots.get(int(peer_id))
        return 0 if slot is None else int(self._contact_counts[slot])

    def intervals(self, peer_id: int) -> List[float]:
        """The recorded meeting intervals with *peer_id* (chronological)."""
        slot = self._slots.get(int(peer_id))
        if slot is None:
            return []
        count = int(self._counts[slot])
        return self._intervals[slot, :count].tolist()

    def last_contact(self, peer_id: int) -> Optional[float]:
        """Start time of the most recent contact with *peer_id*, or ``None``."""
        slot = self._slots.get(int(peer_id))
        return None if slot is None else float(self._last[slot])

    def elapsed_since(self, peer_id: int, now: float) -> Optional[float]:
        """Elapsed time since the last contact with *peer_id*, or ``None``."""
        slot = self._slots.get(int(peer_id))
        if slot is None:
            return None
        return max(0.0, now - float(self._last[slot]))

    def mean_interval(self, peer_id: int) -> Optional[float]:
        """Average recorded meeting interval with *peer_id*.

        This is the value :math:`I_{ij}` that populates the node's own row of
        the MI matrix.  ``None`` if fewer than one interval is recorded.
        The sum runs left to right over the chronological window, matching
        the reference implementation's sequential ``sum()`` exactly.
        """
        slot = self._slots.get(int(peer_id))
        if slot is None:
            return None
        count = int(self._counts[slot])
        if count == 0:
            return None
        return sum(self._intervals[slot, :count].tolist()) / count

    def total_intervals(self) -> int:
        """Total number of recorded intervals across all peers."""
        return int(self._counts[:self._size].sum())

    def snapshot(self) -> Dict[int, List[float]]:
        """A copy of all non-empty windows (peer -> interval list)."""
        return {peer: window for peer in self._slots
                if (window := self.intervals(peer))}

    # ----------------------------------------------------------- batch access
    def slot_of(self, peer_id: int) -> Optional[int]:
        """Row index of *peer_id* in the interval matrix, or ``None``."""
        return self._slots.get(int(peer_id))

    def interval_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy views of the recorded state for the batch estimators.

        Returns
        -------
        (peer_ids, intervals, counts, last_contact)
            ``peer_ids``: ``(p,)`` int64 ids in first-met order;
            ``intervals``: ``(p, window)`` chronological interval matrix
            (entries at column >= ``counts[row]`` are unspecified);
            ``counts``: ``(p,)`` valid-interval counts per row;
            ``last_contact``: ``(p,)`` last contact start times.

        The views alias live storage: treat them as read-only and re-fetch
        after any :meth:`record_contact`.
        """
        size = self._size
        return (self._peer_ids[:size], self._intervals[:size],
                self._counts[:size], self._last[:size])

    def contact_count_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(peer_ids, contact_counts)`` views for graph builders.

        ``contact_counts[row]`` is the total number of recorded contacts with
        ``peer_ids[row]`` (not the window-bounded interval count).  Same
        aliasing contract as :meth:`interval_arrays`: read-only, re-fetch
        after any :meth:`record_contact`.
        """
        size = self._size
        return self._peer_ids[:size], self._contact_counts[:size]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ContactHistory(owner={self.owner_id}, peers={self._size}, "
                f"intervals={self.total_intervals()})")
