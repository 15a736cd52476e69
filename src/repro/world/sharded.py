"""Strip-sharded connectivity detection for 10k-node worlds.

:class:`ShardedConnectivity` is the scale-out variant of
:class:`~repro.world.connectivity.KDTreeConnectivity`.  It exploits the same
observation — nodes move a small fraction of the radio range per tick — but
restructures the work so the expensive part both *amortises* across ticks
and *shards* across workers:

1. **Rebuild (rare, sharded).**  A position snapshot is cut into vertical
   strips of width ``>= candidate_radius`` where ``candidate_radius =
   max_range + 2 * slack`` and ``slack = rebuild_margin * max_range``.  Each
   strip worker builds a k-d tree over its strip *plus the halo* (the slab of
   the next strip within ``candidate_radius`` of the shared boundary) and
   collects every pair within ``candidate_radius`` that has at least one
   endpoint inside the strip proper.  Strip tasks fan out over a thread pool
   (``cKDTree`` construction and pair queries release the GIL).  The merged,
   deduplicated candidate set is packed into sorted ``(lo << 32) | hi``
   codes **once**, so it is stored pre-canonicalised.

2. **Tick (hot, vectorized, allocation-light).**  While no node has drifted
   more than ``slack`` from the snapshot, the candidate set is guaranteed to
   be a superset of the true pair set (triangle inequality: a pair within
   ``min(r_i, r_j) <= max_range`` *now* was within ``max_range + 2*slack``
   at the snapshot).  The per-tick work is therefore one exact vectorized
   range filter of the cached candidates against the *current* positions —
   no tree query, and no sort either, because a masked subset of a
   lexicographically sorted pair list is still sorted.

Shard/merge invariant
---------------------
Strips partition the snapshot by x; ``strip_width >= candidate_radius``
guarantees any candidate pair spans at most two *adjacent* strips, and the
halo rule (next strip's nodes with ``x <= boundary + candidate_radius``,
boundary-inclusive on both sides so nodes exactly on a strip edge are
covered) makes the owner strip see every such pair exactly once: pairs
wholly inside strip *s* belong to worker *s*, pairs crossing the *s*/*s+1*
boundary belong to worker *s* (the smaller strip index), and worker *s*
drops halo-halo pairs because worker *s+1* owns them.  The merge is a plain
concatenation in strip order followed by one sort — no dedup pass is needed,
and the result is independent of worker scheduling.

The output is **bit-identical** to every other detector's: the same
candidate-superset + exact-filter construction
(:func:`~repro.world.connectivity._filter_by_range` arithmetic) over the
same positions yields the same pair *set*, and canonical ordering makes it
the same ``(m, 2)`` int64 array.  Parity is pinned by hypothesis tests
(including nodes exactly on strip boundaries and halo edges) and by a
full-scenario report-equality test.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import numpy as np
from scipy.spatial import cKDTree

from repro.world.connectivity import ConnectivityDetector, _empty_pairs


def default_worker_count() -> int:
    """Worker-thread default: the CPUs this process may run on, capped at 8."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, 8))


def _strip_pair_codes(snapshot: np.ndarray, members: np.ndarray,
                      halo: np.ndarray, radius: float) -> np.ndarray:
    """Candidate pair codes owned by one strip (runs on a worker)."""
    group = np.concatenate((members, halo))
    if len(group) < 2:
        return np.empty(0, dtype=np.int64)
    tree = cKDTree(snapshot[group])
    local = tree.query_pairs(radius, output_type="ndarray")
    if not len(local):
        return np.empty(0, dtype=np.int64)
    # local indices < len(members) are strip members; drop halo-halo
    # pairs — the next strip owns them
    owned = local[(local < len(members)).any(axis=1)]
    if not len(owned):
        return np.empty(0, dtype=np.int64)
    pairs = group[owned]
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return (lo << 32) | hi


class ShardedConnectivity(ConnectivityDetector):
    """Sharded strip detection with a cached cross-tick candidate superset.

    Parameters
    ----------
    rebuild_margin:
        Slack as a fraction of the maximum radio range (as in
        :class:`~repro.world.connectivity.KDTreeConnectivity`).  Larger
        values rebuild less often but cache a quadratically larger candidate
        set; ``0.5`` balances the two for per-tick displacements around a few
        percent of the radio range.  Must be positive: with zero slack the
        cache would be invalidated by any movement and the detector would
        degenerate into a slower k-d tree rebuild per tick.
    workers:
        Worker threads for the rebuild fan-out (default:
        :func:`default_worker_count`).  ``1`` runs strips inline.
    shards_per_worker:
        Target strip tasks per worker at rebuild (>= 1).  More shards mean
        better load balance but more per-strip fixed cost; the strip count
        is always capped so strips stay at least ``candidate_radius`` wide.
    """

    def __init__(self, rebuild_margin: float = 0.5,
                 workers: Optional[int] = None,
                 shards_per_worker: int = 2) -> None:
        if rebuild_margin <= 0:
            raise ValueError("rebuild_margin must be positive")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1 (or None for the default)")
        if shards_per_worker < 1:
            raise ValueError("shards_per_worker must be >= 1")
        self.rebuild_margin = float(rebuild_margin)
        self.workers = int(workers) if workers is not None else default_worker_count()
        self.shards_per_worker = int(shards_per_worker)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._snapshot: Optional[np.ndarray] = None
        self._ranges: Optional[np.ndarray] = None
        self._max_range = 0.0
        self._cand_i = np.empty(0, dtype=np.int64)
        self._cand_j = np.empty(0, dtype=np.int64)
        self._limit_sq = np.empty(0, dtype=float)
        # observability
        self.rebuilds = 0
        self.last_shards = 0

    # ------------------------------------------------------------- lifecycle
    def reset(self) -> None:
        """Drop the snapshot and cached candidates (keeps the thread pool)."""
        self._snapshot = None
        self._ranges = None
        self._max_range = 0.0
        self._cand_i = np.empty(0, dtype=np.int64)
        self._cand_j = np.empty(0, dtype=np.int64)
        self._limit_sq = np.empty(0, dtype=float)

    def close(self) -> None:
        """Release the worker pool (the world calls this on teardown)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __getstate__(self) -> dict:
        # checkpoint support: the worker pool is a process-local resource
        # created lazily, so dropping it is enough — the restored detector
        # rebuilds it on first use.  The snapshot and candidate arrays
        # travel as-is, keeping the restored detector's rebuild schedule
        # (and therefore its output) bit-identical to the uninterrupted one.
        state = self.__dict__.copy()
        state["_pool"] = None
        return state

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="sharded-connectivity")
        return self._pool

    # --------------------------------------------------------------- rebuild
    def _rebuild(self, positions: np.ndarray, ranges: np.ndarray) -> None:
        self._snapshot = np.array(positions, dtype=float)
        self._ranges = np.array(ranges, dtype=float)
        self._max_range = float(ranges.max())
        slack = self.rebuild_margin * self._max_range
        radius = self._max_range + 2.0 * slack

        x = self._snapshot[:, 0]
        x_min = float(x.min())
        span = max(float(x.max()) - x_min, 0.0)
        target = self.workers * self.shards_per_worker
        num_strips = max(1, min(target, int(span // radius) if radius > 0 else 1))
        self.last_shards = num_strips
        if num_strips == 1:
            order = np.arange(len(x), dtype=np.int64)
            bounds = np.array([0, len(x)], dtype=np.int64)
            width = span if span > 0 else 1.0
        else:
            width = span / num_strips
            strip = np.minimum((x - x_min) // width,
                               num_strips - 1).astype(np.int64)
            order = np.argsort(strip, kind="stable")
            bounds = np.searchsorted(strip[order],
                                     np.arange(num_strips + 1))

        def strip_task(index: int) -> np.ndarray:
            members = order[bounds[index]:bounds[index + 1]]
            if len(members) and index + 1 < num_strips:
                following = order[bounds[index + 1]:]
                # the halo cutoff is anchored on the members themselves, not
                # on the strip-boundary arithmetic: a later-strip node can
                # pair with a member only if its x is within the candidate
                # radius of some member's x, and float addition is monotonic,
                # so max(member x) + radius bounds every such node exactly
                # (no ULP mismatch against boundary expressions)
                cutoff = float(x[members].max()) + radius
                halo = following[x[following] <= cutoff]
            else:
                halo = np.empty(0, dtype=np.int64)
            return _strip_pair_codes(self._snapshot, members, halo, radius)

        if num_strips == 1 or self.workers == 1:
            shards: List[np.ndarray] = [strip_task(i) for i in range(num_strips)]
        else:
            shards = list(self._executor().map(strip_task, range(num_strips)))

        codes = np.concatenate(shards) if shards else np.empty(0, np.int64)
        codes.sort()
        self._cand_i = codes >> 32
        self._cand_j = codes & 0xFFFFFFFF
        limit = np.minimum(self._ranges[self._cand_i],
                           self._ranges[self._cand_j])
        self._limit_sq = limit * limit
        self.rebuilds += 1

    # ----------------------------------------------------------------- update
    def update(self, positions: np.ndarray, ranges: np.ndarray) -> np.ndarray:
        n = len(positions)
        if n < 2:
            self.reset()
            return _empty_pairs()
        max_range = float(ranges.max())
        if max_range <= 0:
            self.reset()
            return _empty_pairs()
        slack = self.rebuild_margin * max_range
        rebuild = (self._snapshot is None or len(self._snapshot) != n
                   or self._max_range != max_range
                   or not np.array_equal(self._ranges, ranges))
        if not rebuild:
            delta = positions - self._snapshot
            moved_sq = float((delta * delta).sum(axis=1).max())
            rebuild = moved_sq > slack * slack
        if rebuild:
            self._rebuild(positions, ranges)
        # exact filter against the *current* positions; same arithmetic as
        # connectivity._filter_by_range, on flat component arrays
        px = np.ascontiguousarray(positions[:, 0])
        py = np.ascontiguousarray(positions[:, 1])
        ci = self._cand_i
        cj = self._cand_j
        dx = px[ci] - px[cj]
        dy = py[ci] - py[cj]
        mask = dx * dx + dy * dy <= self._limit_sq
        # candidates are stored (lo, hi) lex-sorted; a masked subset stays
        # sorted, so no per-tick canonicalisation is needed
        return np.column_stack((ci[mask], cj[mask]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedConnectivity(margin={self.rebuild_margin}, "
                f"workers={self.workers}, "
                f"rebuilds={self.rebuilds}, shards={self.last_shards})")
