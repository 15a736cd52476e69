"""Range-based connectivity detection.

Given the node positions at one instant, a detector returns the node pairs
that can communicate (distance at most the minimum of the two radio ranges).
Every world detects links with :class:`KDTreeConnectivity`, whatever its
size; its naive specification, an O(n²) all-pairs check, lives outside the
production code (:class:`repro.testing.reference.BruteForceConnectivity`).

Detectors are *stateful*: the world calls :meth:`ConnectivityDetector.update`
once per tick with the current positions, and an implementation may carry
acceleration structures from one tick to the next — :class:`KDTreeConnectivity`
keeps a candidate pair set while nodes have drifted less than a slack
margin since it was built.  State never affects the *result*, only the
work done to compute it: every ``update`` is equivalent to a from-scratch
detection, and detectors resynchronise automatically when the node count
or the ranges change between calls.

``update`` returns an ``(m, 2)`` int64 array of index pairs with ``i < j``
per row, sorted lexicographically, which is what the world's sorted-array
link diffing consumes.  The legacy :meth:`ConnectivityDetector.find_pairs`
set-of-tuples API is kept as a thin wrapper for tests and exploratory code.
"""

from __future__ import annotations

import abc
from typing import Set, Tuple

import numpy as np
from scipy.spatial import cKDTree


Pair = Tuple[int, int]

#: how far, as a fraction of the largest radio range, any node may drift
#: from the snapshot before the candidate set is rebuilt.  Larger values
#: rebuild less often but cache a quadratically larger candidate set; half
#: the range balances the two for per-tick displacements of a few percent
#: of the range.
SLACK_FRACTION = 0.5
#: the candidate radius is padded by this relative margin, so float
#: rounding in the displacement and distance arithmetic can never drop a
#: pair that the superset argument keeps (extra candidates cost only
#: filter work: the per-tick range check is exact)
_RADIUS_PAD = 1.0 + 1e-9


def _empty_pairs() -> np.ndarray:
    return np.empty((0, 2), dtype=np.int64)


class ConnectivityDetector(abc.ABC):
    """Finds node index pairs within mutual radio range."""

    @abc.abstractmethod
    def update(self, positions: np.ndarray, ranges: np.ndarray) -> np.ndarray:
        """Detect connectable pairs for the current tick.

        Parameters
        ----------
        positions:
            ``(n, 2)`` array of node positions.  Implementations must not
            keep a live reference to it across calls (the world hands in a
            view of storage that mutates as nodes move) — snapshot with
            ``positions.copy()`` if state is carried over.
        ranges:
            ``(n,)`` array of per-node radio ranges.

        Returns
        -------
        ``(m, 2)`` int64 array of index pairs, ``i < j`` per row, sorted
        lexicographically.
        """

    def reset(self) -> None:
        """Drop any carried-over acceleration state (stateless by default)."""

    def find_pairs(self, positions: np.ndarray, ranges: np.ndarray) -> Set[Pair]:
        """Legacy API: :meth:`update` as a ``{(i, j)}`` set with ``i < j``."""
        pairs = self.update(np.asarray(positions, dtype=float),
                            np.asarray(ranges, dtype=float))
        return {(int(i), int(j)) for i, j in pairs}


class KDTreeConnectivity(ConnectivityDetector):
    """Range filter over a cached candidate superset, rebuilt by a k-d tree.

    **Rebuild.**  The detector snapshots the positions and ranges and runs
    one :meth:`scipy.spatial.cKDTree.query_pairs` at the candidate radius
    ``max_range + 2 * slack`` (``slack = SLACK_FRACTION * max_range``).  It
    stores the candidates as sorted ``(lo << 32) | hi`` codes, unpacked into
    two index columns, with each candidate's ``min(r_i, r_j)²``.

    **Tick.**  While no node has moved more than ``slack`` from the
    snapshot, the candidates are a superset of the linked pairs: a pair
    within ``min(r_i, r_j) <= max_range`` now was within
    ``max_range + 2 * slack`` at the snapshot (triangle inequality).  So a
    tick is one exact filter, ``dx*dx + dy*dy <= limit²``, of the candidates
    against the *current* positions.  A masked subset of sorted candidates
    stays sorted, so the tick needs no tree query and no sort.

    **When to rebuild:** on the first update, when the node count or the
    ranges change, and when some node has moved more than ``slack`` since
    the snapshot.
    """

    def __init__(self) -> None:
        self.rebuilds = 0  # observability: how often the candidates were rebuilt
        self.reset()

    def reset(self) -> None:
        self._snapshot: np.ndarray = None  # positions the candidates were built on
        self._ranges: np.ndarray = None
        self._slack_sq = 0.0
        self._cand_i = np.empty(0, dtype=np.int64)
        self._cand_j = np.empty(0, dtype=np.int64)
        self._limit_sq = np.empty(0, dtype=float)

    def _rebuild(self, positions: np.ndarray, ranges: np.ndarray,
                 max_range: float) -> None:
        self._snapshot = np.array(positions, dtype=float)
        self._ranges = np.array(ranges, dtype=float)
        slack = SLACK_FRACTION * max_range
        self._slack_sq = slack * slack
        radius = (max_range + 2.0 * slack) * _RADIUS_PAD
        # an unbalanced, non-compacted tree builds in half the time at 10k
        # nodes, and a pair query finds the same pairs in any tree
        tree = cKDTree(self._snapshot, balanced_tree=False,
                       compact_nodes=False)
        pairs = tree.query_pairs(radius, output_type="ndarray")
        pairs = pairs.astype(np.int64, copy=False)
        # query_pairs yields i < j per row
        codes = (pairs[:, 0] << 32) | pairs[:, 1]
        codes.sort()
        self._cand_i = codes >> 32
        self._cand_j = codes & 0xFFFFFFFF
        limit = np.minimum(self._ranges[self._cand_i],
                           self._ranges[self._cand_j])
        self._limit_sq = limit * limit
        self.rebuilds += 1

    def update(self, positions: np.ndarray, ranges: np.ndarray) -> np.ndarray:
        n = len(positions)
        if n < 2:
            self.reset()
            return _empty_pairs()
        snapshot = self._snapshot
        rebuild = (snapshot is None or len(snapshot) != n
                   or not np.array_equal(self._ranges, ranges))
        if not rebuild:
            # largest squared displacement; adding the two columns is several
            # times faster than a row-wise sum(axis=1)
            delta = positions - snapshot
            delta *= delta
            rebuild = float((delta[:, 0] + delta[:, 1]).max()) > self._slack_sq
        if rebuild:
            max_range = float(ranges.max())
            if max_range <= 0:
                self.reset()
                return _empty_pairs()
            self._rebuild(positions, ranges, max_range)
        ci = self._cand_i
        if not len(ci):
            return _empty_pairs()
        cj = self._cand_j
        # dx*dx + dy*dy <= limit², computed in place on contiguous columns
        px = np.ascontiguousarray(positions[:, 0])
        py = np.ascontiguousarray(positions[:, 1])
        dx = px.take(ci)
        dx -= px.take(cj)
        dy = py.take(ci)
        dy -= py.take(cj)
        dx *= dx
        dy *= dy
        dx += dy
        mask = dx <= self._limit_sq
        return np.column_stack((ci[mask], cj[mask]))
