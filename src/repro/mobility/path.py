"""Piecewise-linear movement paths.

A :class:`Path` is a sequence of waypoints traversed at a constant speed,
optionally followed by a pause.  :meth:`Path.advance` moves along the path by
a time budget and reports the new position, which is all the world update loop
needs.  Because ``advance`` runs for every node on every world tick, the hot
path works on pre-computed *scalar* coordinates (no small-ndarray arithmetic)
and :meth:`Path.advance_into` writes the position straight into a
caller-provided array — the node's row view of the world's
:class:`~repro.world.positions.PositionStore`.

Waypoints are kept once, as ``(x, y)`` float pairs: callers routinely pass
the node's live position view as the first waypoint, and converting each
coordinate to a Python float takes the *snapshot* rather than aliasing
storage that mutates as the node moves.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np


class Path:
    """A traversable sequence of waypoints.

    Parameters
    ----------
    waypoints:
        Sequence of 2-D points (the first one is the starting position).
    speed:
        Constant speed in m/s along the whole path; must be positive unless
        the path is a single point.
    wait_time:
        Pause (seconds) after the last waypoint before the path is "done".
    """

    __slots__ = ("speed", "wait_time", "_xy", "_lengths",
                 "_segment", "_offset", "_waited")

    def __init__(self, waypoints: Sequence[Sequence[float]], speed: float,
                 wait_time: float = 0.0) -> None:
        # float() snapshots a live position view passed as a waypoint; the
        # scalar pairs are all advance() and position_into() ever touch
        xy: List[Tuple[float, float]] = [(float(p[0]), float(p[1]))
                                         for p in waypoints]
        if not xy:
            raise ValueError("path needs at least one waypoint")
        if len(xy) > 1 and speed <= 0:
            raise ValueError(f"speed must be positive for a moving path, got {speed}")
        if wait_time < 0:
            raise ValueError("wait_time must be non-negative")
        self.speed = float(speed)
        self.wait_time = float(wait_time)
        self._xy = xy
        self._lengths: List[float] = [
            math.dist(a, b) for a, b in zip(xy[:-1], xy[1:])
        ]
        self._segment = 0          # index of the segment currently being traversed
        self._offset = 0.0         # metres travelled into the current segment
        self._waited = 0.0         # seconds already waited at the end

    @property
    def waypoints(self) -> List[Tuple[float, float]]:
        """The waypoints as ``(x, y)`` float pairs (the first is the start).

        This is the list the path advances over: treat it as read-only.
        """
        return self._xy

    # ------------------------------------------------------------------ state
    def _position_xy(self) -> tuple:
        """Current position along the path as a scalar ``(x, y)`` pair."""
        segment = self._segment
        if segment >= len(self._lengths):
            return self._xy[-1]
        seg_len = self._lengths[segment]
        ax, ay = self._xy[segment]
        if seg_len == 0.0:
            return ax, ay
        bx, by = self._xy[segment + 1]
        frac = self._offset / seg_len
        return ax + frac * (bx - ax), ay + frac * (by - ay)

    @property
    def position(self) -> np.ndarray:
        """Current position along the path (freshly allocated array)."""
        return np.array(self._position_xy(), dtype=float)

    def position_into(self, out: np.ndarray) -> None:
        """Write the current position into ``out`` (shape ``(2,)``)."""
        out[0], out[1] = self._position_xy()

    @property
    def done(self) -> bool:
        """Whether all waypoints have been reached and the pause has elapsed."""
        at_end = self._segment >= len(self._lengths)
        return at_end and self._waited >= self.wait_time

    @property
    def waited(self) -> float:
        """Seconds already paused at the end of the path."""
        return self._waited

    # ----------------------------------------------------------- batch access
    def batch_state(self):
        """Current-segment snapshot for the batch movement kernel.

        Returns ``(ax, ay, bx, by, seg_len, offset)`` — the endpoints,
        length and traversed offset of the segment currently being walked —
        or ``None`` when the path is past its last waypoint (waiting).  The
        scalars are exactly the ones :meth:`_consume`/:meth:`_position_xy`
        operate on, which is what makes the vectorized advance bit-identical
        to the scalar one (see :mod:`repro.mobility.engine`).
        """
        segment = self._segment
        if segment >= len(self._lengths):
            return None
        ax, ay = self._xy[segment]
        bx, by = self._xy[segment + 1]
        return ax, ay, bx, by, self._lengths[segment], self._offset

    def set_progress(self, offset: float, waited: float) -> None:
        """Write back batch-advanced progress (the engine's flush).

        Only meaningful with values produced by advancing the *current*
        batch state with the same arithmetic as :meth:`_consume`; the
        movement engine calls this right before handing a node back to the
        exact per-follower loop.
        """
        self._offset = float(offset)
        self._waited = float(waited)

    @property
    def total_length(self) -> float:
        """Total geometric length of the path in metres."""
        return float(sum(self._lengths))

    def duration(self) -> float:
        """Time to traverse the whole path, including the final pause."""
        if not self._lengths:
            return self.wait_time
        return self.total_length / self.speed + self.wait_time

    # ---------------------------------------------------------------- advance
    def _consume(self, dt: float) -> float:
        """Advance the internal state by *dt* seconds; returns unused time."""
        if dt < 0:
            raise ValueError("dt must be non-negative")
        remaining = float(dt)
        lengths = self._lengths
        num_segments = len(lengths)
        speed = self.speed
        # traverse segments
        while remaining > 0 and self._segment < num_segments:
            seg_len = lengths[self._segment]
            left_in_segment = seg_len - self._offset
            step = speed * remaining
            if step < left_in_segment:
                self._offset += step
                remaining = 0.0
            else:
                # finish this segment and carry the unused time over
                if speed > 0:
                    remaining -= left_in_segment / speed
                self._segment += 1
                self._offset = 0.0
        # wait at the end
        if remaining > 0 and self._segment >= num_segments:
            wait_left = self.wait_time - self._waited
            if remaining < wait_left:
                self._waited += remaining
                remaining = 0.0
            else:
                self._waited = self.wait_time
                remaining -= max(0.0, wait_left)
        return remaining

    def advance(self, dt: float) -> tuple:
        """Move along the path for *dt* seconds.

        Returns
        -------
        (position, leftover)
            ``position`` is the new position; ``leftover`` is the unused part
            of *dt* (non-zero only once the path is done, so the caller can
            immediately start the next path within the same step).
        """
        leftover = self._consume(dt)
        return self.position, leftover

    def advance_into(self, dt: float, out: np.ndarray) -> float:
        """Like :meth:`advance`, but writes the position into ``out``.

        Returns only the leftover time; the new position lands in ``out``
        without allocating.  This is the world tick's hot call.
        """
        leftover = self._consume(dt)
        out[0], out[1] = self._position_xy()
        return leftover

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Path({len(self._xy)} waypoints, speed={self.speed}, "
                f"wait={self.wait_time})")
