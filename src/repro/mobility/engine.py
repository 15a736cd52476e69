"""Batched movement: one vectorized advance instead of n ``move`` calls.

The seed world moved nodes with a per-node Python loop —
``for node: node.follower.move(dt, now)`` — which at 10 000 nodes costs more
than the connectivity detection it feeds.  :class:`MovementEngine` replaces
the loop for every model: nodes whose current tick stays *inside* their
current path segment (or inside the end-of-path pause) are advanced with
a handful of NumPy operations straight into the world's
:class:`~repro.world.positions.PositionStore` matrix; only the nodes
that cross a segment boundary, finish a pause, or need a fresh path from
their model this tick fall back to the exact per-follower loop.

Bit-identity contract
---------------------
The batch kernel is **bit-identical** to ``PathFollower.move``, not merely
close: it mirrors the scalar arithmetic of
:meth:`~repro.mobility.path.Path._consume` and
:meth:`~repro.mobility.path.Path._position_xy` operation for operation —

* travel:   ``offset += speed * dt`` then ``frac = offset / seg_len`` and
  ``x = ax + frac * (bx - ax)`` (same IEEE-754 float64 ops, same order);
* wait:     ``waited += dt`` with the same strict ``dt < wait_time - waited``
  fast-path predicate ``_consume`` uses, so the *boundary* tick (the one
  that finishes a segment or pause) always falls back to the scalar code.

Because the fast path only ever executes ticks whose scalar counterpart
would not leave the current segment/pause, every position the simulation
observes is the same 64-bit pattern the loop would have produced.  The
engine mirrors path progress in flat arrays while a node is on the fast
path and flushes it back (:meth:`~repro.mobility.path.Path.set_progress`)
the moment the node needs the scalar loop; out-of-band state changes
(``PathFollower.teleport``) invalidate the mirror through
:meth:`invalidate`.

Any follower whose state the engine cannot mirror (no path yet,
zero-length segment, non-positive speed) runs the unchanged per-follower
loop, so the kernel never changes behaviour, only cost; a follower whose
model returns no further path (stationary nodes, after their first move)
halts and is skipped from then on.  Random waypoint, community and HCMM
paths are single segments; bus legs and shortest-path trips are
multi-segment road paths ending in a pause (a stop listed twice in a row
gives a leg with no segment, only the pause); every segment, pause or leg
boundary is one scalar-fallback tick, and the kernel carries the ticks in
between.

The plain per-follower loop the kernel must reproduce is not a mode of
this class: it is the reference world's movement
(:class:`repro.testing.reference.ReferenceMovement`), the oracle of the
parity tests.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from repro.mobility.base import PathFollower

#: follower fast-path states
TRAVEL = 0  #: inside a positive-length segment of the current path
WAIT = 1  #: inside the end-of-path pause
FALLBACK = 2  #: per-follower loop (no mirrorable path, or at a boundary)
HALTED = 3  #: model returned no further paths; skipped entirely


class MovementEngine:
    """Advances every registered follower once per world tick.

    Parameters
    ----------
    positions:
        The world's :class:`~repro.world.positions.PositionStore` (held by
        duck type to keep the mobility package import-independent of the
        world package); row *i* belongs to the *i*-th registered follower —
        the world registers followers in position-row order.
    """

    def __init__(self, positions) -> None:
        self._positions = positions
        self._followers: List[PathFollower] = []
        self._dirty: Set[int] = set()
        self._size = 0  # follower count the arrays are allocated for
        self._mode = np.empty(0, dtype=np.int64)
        self._ax = np.empty(0, dtype=float)
        self._ay = np.empty(0, dtype=float)
        self._bx = np.empty(0, dtype=float)
        self._by = np.empty(0, dtype=float)
        self._seg_len = np.empty(0, dtype=float)
        self._offset = np.empty(0, dtype=float)
        self._speed = np.empty(0, dtype=float)
        self._waited = np.empty(0, dtype=float)
        self._wait_time = np.empty(0, dtype=float)
        # observability: how many node-ticks took which path
        self.fast_moves = 0
        self.loop_moves = 0

    # ------------------------------------------------------------ registration
    def register(self, follower: PathFollower) -> int:
        """Add *follower* (its position row is the returned slot index)."""
        return self.register_many([follower])

    def register_many(self, followers: List[PathFollower]) -> int:
        """Add *followers* in order (slot = position row); returns the first.

        The state arrays are sized to the new follower count once, at the
        next :meth:`advance`.
        """
        start = len(self._followers)
        self._followers.extend(followers)
        for slot, follower in enumerate(followers, start):
            follower.attach_engine(self, slot)
        return start

    @property
    def num_followers(self) -> int:
        """Number of registered followers."""
        return len(self._followers)

    def invalidate(self, slot: int) -> None:
        """Mark one slot's mirrored path state stale (teleport hook)."""
        if 0 <= slot < len(self._followers):
            self._dirty.add(int(slot))

    # ----------------------------------------------------------------- arrays
    def _grow(self) -> None:
        """Resize the state arrays to the follower count.

        New slots start with the FALLBACK values, which is exactly what
        :meth:`_refresh` writes for a follower with no path yet; only a new
        follower that already has a path (or has halted) goes dirty.  So a
        fresh node's first move refreshes its mirror once, after the move.
        """
        old = self._size
        n = len(self._followers)
        grown = max(n, 1)

        def resize(array: np.ndarray, fill: float) -> np.ndarray:
            fresh = np.full(grown, fill, dtype=array.dtype)
            fresh[:old] = array[:old]
            return fresh

        self._mode = resize(self._mode, FALLBACK)
        self._ax = resize(self._ax, 0.0)
        self._ay = resize(self._ay, 0.0)
        self._bx = resize(self._bx, 0.0)
        self._by = resize(self._by, 0.0)
        # neutral values: an infinite speed fails the travel predicate and a
        # wait time of -inf the wait predicate, so a slot only passes the
        # predicate of its own mode (see _refresh) and advance never has to
        # compare modes
        self._seg_len = resize(self._seg_len, 1.0)
        self._offset = resize(self._offset, 0.0)
        self._speed = resize(self._speed, np.inf)
        self._waited = resize(self._waited, 0.0)
        self._wait_time = resize(self._wait_time, -np.inf)
        self._size = n
        followers = self._followers
        self._dirty.update(slot for slot in range(old, n)
                           if followers[slot].path is not None
                           or followers[slot].halted)

    def _refresh(self, slot: int) -> None:
        """Re-mirror one follower's path state into the flat arrays."""
        follower = self._followers[slot]
        mode = self._mode
        self._speed[slot] = np.inf
        self._wait_time[slot] = -np.inf
        if follower.halted:
            mode[slot] = HALTED
            return
        path = follower.path
        if path is None or path.done:
            mode[slot] = FALLBACK
            return
        state = path.batch_state()
        if state is None:
            # past the last waypoint: inside the end-of-path pause
            mode[slot] = WAIT
            self._offset[slot] = 0.0
            self._waited[slot] = path.waited
            self._wait_time[slot] = path.wait_time
            return
        ax, ay, bx, by, seg_len, offset = state
        if seg_len <= 0.0 or path.speed <= 0.0:
            mode[slot] = FALLBACK
            return
        mode[slot] = TRAVEL
        self._ax[slot] = ax
        self._ay[slot] = ay
        self._bx[slot] = bx
        self._by[slot] = by
        self._seg_len[slot] = seg_len
        self._offset[slot] = offset
        self._speed[slot] = path.speed
        self._waited[slot] = path.waited

    # ---------------------------------------------------------------- advance
    def advance(self, dt: float, now: float) -> Tuple[int, int]:
        """Move every non-halted follower by *dt* (> 0) seconds.

        Returns this tick's ``(kernel moves, loop moves)`` split.
        """
        if self._size != len(self._followers):
            self._grow()
        if self._dirty:
            for slot in sorted(self._dirty):
                self._refresh(slot)
            self._dirty.clear()

        mode = self._mode
        # the same strict predicates _consume uses: a tick that would exactly
        # finish a segment or pause is NOT fast — it falls back to the scalar
        # code, which also handles starting the next segment/path
        step = self._speed * dt
        fast_travel = step < self._seg_len - self._offset
        fast_wait = dt < self._wait_time - self._waited

        travelling = fast_travel.nonzero()[0]
        if len(travelling):
            offset = self._offset
            offset[travelling] += step[travelling]
            frac = offset[travelling] / self._seg_len[travelling]
            data = self._positions.view()
            ax = self._ax[travelling]
            ay = self._ay[travelling]
            data[travelling, 0] = ax + frac * (self._bx[travelling] - ax)
            data[travelling, 1] = ay + frac * (self._by[travelling] - ay)
        waiting = fast_wait.nonzero()[0]
        if len(waiting):
            # position already holds the exact path endpoint (written by the
            # boundary tick's scalar fallback); only the pause clock advances
            self._waited[waiting] += dt
        fast = len(travelling) + len(waiting)
        self.fast_moves += fast

        loop = 0
        slow = (~(fast_travel | fast_wait) & (mode != HALTED)).nonzero()[0]
        for index in slow:
            slot = int(index)
            follower = self._followers[slot]
            state = int(mode[slot])
            if state in (TRAVEL, WAIT) and follower.path is not None:
                # hand the mirrored progress back before the scalar move
                follower.path.set_progress(float(self._offset[slot]),
                                           float(self._waited[slot]))
            if not follower.halted:
                follower.move(dt, now)
                loop += 1
            self._refresh(slot)
        self.loop_moves += loop
        return fast, loop

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MovementEngine({len(self._followers)} followers, "
                f"fast={self.fast_moves}, loop={self.loop_moves})")
