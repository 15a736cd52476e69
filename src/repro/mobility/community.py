"""Community-structured mobility.

Nodes belong to communities with spatial *home districts*: most waypoints are
drawn inside the home district, occasionally the node roams anywhere.  This is
the standard synthetic way of producing the "contact frequency within a
community is much higher than across communities" structure the paper's CR
protocol exploits (Section IV-A), and it lets the community machinery be
exercised independently of the bus-line scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.mobility.base import MovementModel
from repro.mobility.path import Path


@dataclass(frozen=True)
class CommunityLayout:
    """Spatial layout of communities over a rectangular world.

    Attributes
    ----------
    area:
        ``(width, height)`` of the whole world in metres.
    num_communities:
        Number of communities; home districts tile the area in a near-square
        grid.
    """

    area: Tuple[float, float]
    num_communities: int

    def __post_init__(self) -> None:
        if self.area[0] <= 0 or self.area[1] <= 0:
            raise ValueError("area must be positive")
        if self.num_communities < 1:
            raise ValueError("need at least one community")

    @property
    def grid(self) -> Tuple[int, int]:
        """Number of district cells per axis ``(gx, gy)``."""
        gx = int(np.ceil(np.sqrt(self.num_communities)))
        gy = int(np.ceil(self.num_communities / gx))
        return gx, gy

    def district_bounds(self, community: int) -> Tuple[float, float, float, float]:
        """``(min_x, min_y, max_x, max_y)`` of the community's home district."""
        if not 0 <= community < self.num_communities:
            raise ValueError(f"community {community} out of range")
        gx, gy = self.grid
        cell_w = self.area[0] / gx
        cell_h = self.area[1] / gy
        cx = community % gx
        cy = community // gx
        return (cx * cell_w, cy * cell_h, (cx + 1) * cell_w, (cy + 1) * cell_h)

    def community_of_point(self, point: Sequence[float]) -> int:
        """Community whose district contains *point* (clamped to the area)."""
        gx, gy = self.grid
        x = min(max(float(point[0]), 0.0), self.area[0] - 1e-9)
        y = min(max(float(point[1]), 0.0), self.area[1] - 1e-9)
        cx = int(x / (self.area[0] / gx))
        cy = int(y / (self.area[1] / gy))
        return min(cy * gx + cx, self.num_communities - 1)


class CommunityMovement(MovementModel):
    """Random-waypoint movement biased toward a home district.

    Parameters
    ----------
    layout:
        The community layout.
    community_id:
        Which community this node belongs to.
    local_probability:
        Probability that the next waypoint is inside the home district.
    min_speed, max_speed, wait:
        As in random waypoint.
    """

    def __init__(self, layout: CommunityLayout, community_id: int,
                 local_probability: float = 0.85, min_speed: float = 0.8,
                 max_speed: float = 2.0, wait: Tuple[float, float] = (0.0, 60.0)) -> None:
        if not 0 <= local_probability <= 1:
            raise ValueError("local_probability must be in [0, 1]")
        if min_speed <= 0 or max_speed < min_speed:
            raise ValueError(f"invalid speed range [{min_speed}, {max_speed}]")
        if wait[0] < 0 or wait[1] < wait[0]:
            raise ValueError(f"invalid wait range {wait!r}")
        self.layout = layout
        self.community_id = int(community_id)
        self.local_probability = float(local_probability)
        self.min_speed = float(min_speed)
        self.max_speed = float(max_speed)
        self.wait = (float(wait[0]), float(wait[1]))
        # validates the community id
        layout.district_bounds(self.community_id)

    @property
    def community(self) -> int:
        """The node's community id."""
        return self.community_id

    def _point_in(self, bounds: Tuple[float, float, float, float],
                  rng) -> Tuple[float, float]:
        min_x, min_y, max_x, max_y = bounds
        return rng.uniform(min_x, max_x), rng.uniform(min_y, max_y)

    def initial_position(self, rng) -> Tuple[float, float]:
        return self._point_in(self.layout.district_bounds(self.community_id), rng)

    def next_path(self, position: np.ndarray, now: float, rng) -> Path:
        if rng.random() < self.local_probability:
            bounds = self.layout.district_bounds(self.community_id)
        else:
            bounds = (0.0, 0.0, self.layout.area[0], self.layout.area[1])
        destination = self._point_in(bounds, rng)
        speed = rng.uniform(self.min_speed, self.max_speed)
        wait = rng.uniform(*self.wait)
        return Path([position, destination], speed=speed, wait_time=wait)
