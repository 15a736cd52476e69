"""Range-based connectivity detection.

Given the node positions at one instant, a detector returns the node pairs
that can communicate (distance at most the minimum of the two radio ranges).
Two interchangeable implementations are provided, and the scenario builder
picks one by world size (:func:`repro.experiments.builder.build_detector`):

* :class:`KDTreeConnectivity` — :class:`scipy.spatial.cKDTree` pair query
  (the cheaper one for the node counts of the paper's scenarios),
* :class:`~repro.world.sharded.ShardedConnectivity` (own module) — strip
  sharding with a cached cross-tick candidate superset, for 10k-node worlds.

Their naive specification, an O(n²) all-pairs check, lives outside the
production code (:class:`repro.testing.reference.BruteForceConnectivity`).

Detectors are *stateful*: the world calls :meth:`ConnectivityDetector.update`
once per tick with the current positions, and an implementation may carry
acceleration structures from one tick to the next — the k-d tree skips
rebuilds while nodes have drifted less than a slack margin since the last
build.  State never affects the *result*, only the work done to compute it:
every ``update`` is equivalent to a from-scratch detection, and detectors
resynchronise automatically when the node count changes between calls.

``update`` returns an ``(m, 2)`` int64 array of index pairs with ``i < j``
per row, sorted lexicographically, which is what the world's sorted-array
link diffing consumes.  The legacy :meth:`ConnectivityDetector.find_pairs`
set-of-tuples API is kept as a thin wrapper for tests and exploratory code.
"""

from __future__ import annotations

import abc
import math
from typing import Set, Tuple

import numpy as np
from scipy.spatial import cKDTree


Pair = Tuple[int, int]


def _empty_pairs() -> np.ndarray:
    return np.empty((0, 2), dtype=np.int64)


def _canonicalise(pairs: np.ndarray) -> np.ndarray:
    """Return *pairs* with ``i < j`` per row, lexicographically sorted."""
    if len(pairs) == 0:
        return _empty_pairs()
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    order = np.lexsort((hi, lo))
    return np.column_stack((lo[order], hi[order]))


def _filter_by_range(pairs: np.ndarray, positions: np.ndarray,
                     ranges: np.ndarray) -> np.ndarray:
    """Keep only candidate pairs whose distance is within both nodes' ranges.

    Fully vectorised: one gather per endpoint and one boolean mask, instead
    of the seed's per-pair Python loop.
    """
    if len(pairs) == 0:
        return _empty_pairs()
    i = pairs[:, 0]
    j = pairs[:, 1]
    delta = positions[i] - positions[j]
    limit = np.minimum(ranges[i], ranges[j])
    mask = (delta * delta).sum(axis=1) <= limit * limit
    return pairs[mask]


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
    """k-d tree pair query with lazy rebuilds.

    The tree is built on a *snapshot* of the positions and reused while the
    maximum displacement of any node since the snapshot stays below a slack
    margin (a fraction of the maximum radio range).  While reusing, the pair
    query radius is inflated by twice the current displacement, which makes
    the candidate set a superset of the true pair set; the exact vectorised
    range filter against the *current* positions then restores correctness.

    Parameters
    ----------
    rebuild_margin:
        Slack as a fraction of the maximum radio range.  ``0`` rebuilds
        every tick (the seed behaviour).
    """

    def __init__(self, rebuild_margin: float = 0.25) -> None:
        if rebuild_margin < 0:
            raise ValueError("rebuild_margin must be non-negative")
        self.rebuild_margin = float(rebuild_margin)
        self._tree = None
        self._snapshot: np.ndarray = None  # positions the tree was built on
        self.rebuilds = 0  # observability: how often the tree was rebuilt

    def reset(self) -> None:
        self._tree = None
        self._snapshot = None

    def update(self, positions: np.ndarray, ranges: np.ndarray) -> np.ndarray:
        n = len(positions)
        if n < 2:
            self.reset()
            return _empty_pairs()
        max_range = float(ranges.max())
        if max_range <= 0:
            self.reset()
            return _empty_pairs()
        margin = self.rebuild_margin * max_range
        displacement = 0.0
        rebuild = self._tree is None or len(self._snapshot) != n
        if not rebuild:
            delta = positions - self._snapshot
            moved_sq = float((delta * delta).sum(axis=1).max())
            if moved_sq > margin * margin:
                rebuild = True
            else:
                displacement = math.sqrt(moved_sq)
        if rebuild:
            self._snapshot = np.array(positions, dtype=float)
            self._tree = cKDTree(self._snapshot)
            self.rebuilds += 1
        candidates = self._tree.query_pairs(max_range + 2.0 * displacement,
                                            output_type="ndarray")
        if len(candidates) == 0:
            return _empty_pairs()
        valid = _filter_by_range(candidates.astype(np.int64), positions, ranges)
        return _canonicalise(valid)
