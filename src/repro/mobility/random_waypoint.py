"""Random-waypoint mobility over a rectangular area."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.mobility.base import MovementModel
from repro.mobility.path import Path


class RandomWaypointMovement(MovementModel):
    """Classic random-waypoint model.

    The node repeatedly picks a uniformly random destination in the area,
    moves there in a straight line at a per-trip random speed and pauses.

    The model keeps no per-node state (every draw comes from the node's own
    stream), so one instance can drive every node of a world.

    Parameters
    ----------
    area:
        ``(width, height)`` of the movement area in metres.
    min_speed, max_speed:
        Per-trip speed range in m/s.
    wait:
        ``(min, max)`` pause at each waypoint in seconds.
    origin:
        Lower-left corner of the area (defaults to the origin).
    """

    def __init__(self, area: Tuple[float, float], min_speed: float = 0.5,
                 max_speed: float = 1.5, wait: Tuple[float, float] = (0.0, 10.0),
                 origin: Tuple[float, float] = (0.0, 0.0)) -> None:
        if area[0] <= 0 or area[1] <= 0:
            raise ValueError(f"area must be positive, got {area!r}")
        if min_speed <= 0 or max_speed < min_speed:
            raise ValueError(f"invalid speed range [{min_speed}, {max_speed}]")
        if wait[0] < 0 or wait[1] < wait[0]:
            raise ValueError(f"invalid wait range {wait!r}")
        self.area = (float(area[0]), float(area[1]))
        self.origin = (float(origin[0]), float(origin[1]))
        self.min_speed = float(min_speed)
        self.max_speed = float(max_speed)
        self.wait = (float(wait[0]), float(wait[1]))

    def _random_point(self, rng) -> Tuple[float, float]:
        return (self.origin[0] + rng.uniform(0.0, self.area[0]),
                self.origin[1] + rng.uniform(0.0, self.area[1]))

    def initial_position(self, rng) -> Tuple[float, float]:
        return self._random_point(rng)

    def next_path(self, position: np.ndarray, now: float, rng) -> Path:
        destination = self._random_point(rng)
        speed = rng.uniform(self.min_speed, self.max_speed)
        wait = rng.uniform(*self.wait)
        return Path([position, destination], speed=speed, wait_time=wait)
