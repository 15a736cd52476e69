"""Home-cell community mobility (caveman / HCMM-style).

The classic way to *generate* the community structure CR exploits, rather
than assume it: the world is tiled into cells (one per community, reusing
:class:`~repro.mobility.community.CommunityLayout`), every node has a *home
cell* it gravitates to, and each waypoint decision either stays home (with
probability ``1 - roaming_probability``) or roams to another cell.  This is
the caveman-graph analogue of Musolesi & Mascolo's HCMM: intra-cell contact
rates are much higher than inter-cell ones, with the roaming trips providing
the inter-community bridges CR's Algorithm 3 relies on.

Unlike :class:`~repro.mobility.community.CommunityMovement` (which biases
waypoints but never changes membership), this model optionally *re-homes*:
with ``rehome_interval`` set, a node periodically migrates to a random new
home cell.  The node's predefined ``community`` label — what CR's ``oracle``
mode sees — stays the *initial* home, so under drift the oracle assignment
goes stale while online detection (``cr-kclique`` / ``cr-newman``) tracks
the migrations.  The ``community-drift`` catalog scenario is built on
exactly this asymmetry.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.mobility.base import MovementModel
from repro.mobility.community import CommunityLayout
from repro.mobility.path import Path


class HomeCellMovement(MovementModel):
    """Random waypoints gravitating to a home cell, with optional re-homing.

    Parameters
    ----------
    layout:
        Cell layout (one cell per community).
    home_cell:
        The node's initial home cell.
    roaming_probability:
        Probability that a waypoint decision leaves the home cell.
    min_speed, max_speed, wait:
        As in random waypoint.
    rehome_interval:
        Mean seconds between home-cell migrations (exponentially
        distributed); ``None`` disables drift entirely.
    """

    def __init__(self, layout: CommunityLayout, home_cell: int,
                 roaming_probability: float = 0.15, min_speed: float = 0.8,
                 max_speed: float = 2.0,
                 wait: Tuple[float, float] = (0.0, 60.0),
                 rehome_interval: Optional[float] = None) -> None:
        if not 0 <= roaming_probability <= 1:
            raise ValueError("roaming_probability must be in [0, 1]")
        if min_speed <= 0 or max_speed < min_speed:
            raise ValueError(f"invalid speed range [{min_speed}, {max_speed}]")
        if wait[0] < 0 or wait[1] < wait[0]:
            raise ValueError(f"invalid wait range {wait!r}")
        if rehome_interval is not None and rehome_interval <= 0:
            raise ValueError("rehome_interval must be positive (or None)")
        layout.district_bounds(int(home_cell))  # validates the cell id
        self.layout = layout
        self.initial_home = int(home_cell)
        self.home_cell = int(home_cell)
        self.roaming_probability = float(roaming_probability)
        self.min_speed = float(min_speed)
        self.max_speed = float(max_speed)
        self.wait = (float(wait[0]), float(wait[1]))
        self.rehome_interval = (None if rehome_interval is None
                                else float(rehome_interval))
        self.rehomes = 0
        self._rehome_at: Optional[float] = None

    @property
    def community(self) -> int:
        """The *initial* home cell — the static label the oracle mode sees."""
        return self.initial_home

    def _point_in(self, cell: int, rng) -> Tuple[float, float]:
        min_x, min_y, max_x, max_y = self.layout.district_bounds(cell)
        return rng.uniform(min_x, max_x), rng.uniform(min_y, max_y)

    def _other_cell(self, rng) -> int:
        """A uniformly random cell different from the current home cell."""
        choices = [cell for cell in range(self.layout.num_communities)
                   if cell != self.home_cell]
        return rng.choice(choices)

    def _maybe_rehome(self, now: float, rng) -> None:
        if self.rehome_interval is None:
            return
        if self._rehome_at is None:
            self._rehome_at = now + rng.expovariate(1.0 / self.rehome_interval)
            return
        while now >= self._rehome_at:
            if self.layout.num_communities > 1:
                self.home_cell = self._other_cell(rng)
                self.rehomes += 1
            self._rehome_at += rng.expovariate(1.0 / self.rehome_interval)

    def initial_position(self, rng) -> Tuple[float, float]:
        return self._point_in(self.home_cell, rng)

    def next_path(self, position: np.ndarray, now: float, rng) -> Path:
        self._maybe_rehome(now, rng)
        roam = (self.layout.num_communities > 1
                and rng.random() < self.roaming_probability)
        cell = self._other_cell(rng) if roam else self.home_cell
        destination = self._point_in(cell, rng)
        speed = rng.uniform(self.min_speed, self.max_speed)
        wait = rng.uniform(*self.wait)
        return Path([position, destination], speed=speed, wait_time=wait)
