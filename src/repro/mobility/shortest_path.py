"""Shortest-path map-based mobility.

The node repeatedly picks a random map vertex as its destination and walks
there along the road network's shortest path (the ONE simulator's
``ShortestPathMapBasedMovement``).  Used by pedestrian-style scenarios in the
examples and ablations.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.mobility.base import MovementModel
from repro.mobility.path import Path
from repro.mobility.roadmap import RoadMap


class ShortestPathMapBasedMovement(MovementModel):
    """Walk between random map vertices along shortest road paths.

    Parameters
    ----------
    roadmap:
        The road graph to move on.
    min_speed, max_speed:
        Per-trip speed range in m/s.
    wait:
        ``(min, max)`` pause at each destination in seconds.
    allowed_vertices:
        Optional restriction of start/destination vertices (e.g. to one
        district); paths may still traverse other vertices.
    """

    def __init__(self, roadmap: RoadMap, min_speed: float = 0.8,
                 max_speed: float = 1.4, wait: Tuple[float, float] = (0.0, 120.0),
                 allowed_vertices: Optional[Sequence[int]] = None) -> None:
        if roadmap.num_vertices < 2:
            raise ValueError("road map needs at least two vertices")
        if min_speed <= 0 or max_speed < min_speed:
            raise ValueError(f"invalid speed range [{min_speed}, {max_speed}]")
        if wait[0] < 0 or wait[1] < wait[0]:
            raise ValueError(f"invalid wait range {wait!r}")
        self.roadmap = roadmap
        self.min_speed = float(min_speed)
        self.max_speed = float(max_speed)
        self.wait = (float(wait[0]), float(wait[1]))
        if allowed_vertices is None:
            self.allowed = list(range(roadmap.num_vertices))
        else:
            self.allowed = list(allowed_vertices)
            if len(self.allowed) < 2:
                raise ValueError("need at least two allowed vertices")
        self._current_vertex: Optional[int] = None

    def initial_position(self, rng) -> np.ndarray:
        self._current_vertex = rng.choice(self.allowed)
        return self.roadmap.coordinates(self._current_vertex)

    def next_path(self, position: np.ndarray, now: float, rng) -> Path:
        if self._current_vertex is None:
            self._current_vertex = self.roadmap.nearest_vertex(position)
        target = rng.choice(self.allowed)
        attempts = 0
        while target == self._current_vertex and attempts < 16:
            target = rng.choice(self.allowed)
            attempts += 1
        vertices = self.roadmap.shortest_path(self._current_vertex, target)
        waypoints = self.roadmap.path_coordinates(vertices)
        if not np.allclose(waypoints[0], position):
            waypoints = [np.asarray(position, dtype=float)] + waypoints
        self._current_vertex = target
        speed = rng.uniform(self.min_speed, self.max_speed)
        wait = rng.uniform(*self.wait)
        return Path(waypoints, speed=speed, wait_time=wait)
