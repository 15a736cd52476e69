"""Bus-line (map-route) mobility.

This reproduces the ONE simulator's ``MapRouteMovement``: each node (bus)
follows a fixed cyclic route of stops over the road map, moving at a speed
drawn per leg from ``[min_speed, max_speed]`` and pausing at each stop.

:func:`generate_bus_routes` lays out a synthetic bus network: every district
gets several local lines whose stops lie inside the district, plus a few
*express* lines that cross districts and provide the inter-community contact
opportunities the CR protocol relies on.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mobility.base import MovementModel
from repro.mobility.map_generator import district_vertices
from repro.mobility.path import Path
from repro.mobility.roadmap import RoadMap


class BusRoute:
    """A cyclic bus line over a road map.

    Parameters
    ----------
    roadmap:
        The underlying road graph.
    stops:
        Vertex ids of the stops, visited in order and then wrapped around.
        Consecutive stops are connected by their shortest road path.
    district:
        District (community) the line primarily serves, or ``None`` for
        express lines spanning several districts.
    name:
        Human-readable line name.
    """

    def __init__(self, roadmap: RoadMap, stops: Sequence[int],
                 district: Optional[int] = None, name: str = "") -> None:
        if len(stops) < 2:
            raise ValueError("a bus route needs at least two stops")
        if len(set(stops)) < 2:
            raise ValueError("a bus route needs at least two distinct stops")
        self.roadmap = roadmap
        self.stops = list(stops)
        self.district = district
        self.name = name or f"line-{id(self) % 10000}"
        # Pre-compute the road path between consecutive stops (cyclic).
        self._legs: List[List[int]] = []
        cyclic = self.stops + [self.stops[0]]
        for a, b in zip(cyclic[:-1], cyclic[1:]):
            if a == b:
                self._legs.append([a])
            else:
                self._legs.append(roadmap.shortest_path(a, b))
        # leg index -> waypoint coordinates, filled on first use (every bus
        # asks for the same few legs over and over); not pickled
        self._leg_waypoints: Dict[int, List[np.ndarray]] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_leg_waypoints"] = {}
        return state

    @property
    def num_stops(self) -> int:
        """Number of stops on the line."""
        return len(self.stops)

    def leg(self, index: int) -> List[int]:
        """Vertex sequence of the ``index``-th leg (stop i -> stop i+1)."""
        return list(self._legs[index % len(self._legs)])

    def leg_waypoints(self, index: int) -> List[np.ndarray]:
        """Waypoint coordinates of the ``index``-th leg.

        The arrays are cached and shared between calls: treat them as
        read-only (a :class:`~repro.mobility.path.Path` copies its
        waypoints, so passing them on is safe).
        """
        index %= len(self._legs)
        waypoints = self._leg_waypoints.get(index)
        if waypoints is None:
            waypoints = self.roadmap.path_coordinates(self._legs[index])
            for point in waypoints:
                point.flags.writeable = False
            self._leg_waypoints[index] = waypoints
        return list(waypoints)

    def total_length(self) -> float:
        """Length of one full loop of the line in metres."""
        return sum(self.roadmap.path_length(leg) for leg in self._legs if len(leg) > 1)

    def stop_coordinates(self) -> List[np.ndarray]:
        """Coordinates of the stops."""
        return self.roadmap.path_coordinates(self.stops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BusRoute({self.name!r}, stops={len(self.stops)}, "
                f"district={self.district})")


class MapRouteMovement(MovementModel):
    """Drive a node along a :class:`BusRoute`.

    Parameters
    ----------
    route:
        The bus line to follow.
    min_speed, max_speed:
        Per-leg speed range in m/s (the paper uses 2.7-13.9 m/s).
    stop_wait:
        ``(min, max)`` pause at each stop in seconds.
    start_stop:
        Index of the stop the node starts from; ``None`` picks a random stop
        (so buses on the same line are spread around the loop).
    """

    def __init__(self, route: BusRoute, min_speed: float = 2.7,
                 max_speed: float = 13.9, stop_wait: Tuple[float, float] = (10.0, 30.0),
                 start_stop: Optional[int] = None) -> None:
        if min_speed <= 0 or max_speed < min_speed:
            raise ValueError(f"invalid speed range [{min_speed}, {max_speed}]")
        if stop_wait[0] < 0 or stop_wait[1] < stop_wait[0]:
            raise ValueError(f"invalid stop wait range {stop_wait!r}")
        self.route = route
        self.min_speed = float(min_speed)
        self.max_speed = float(max_speed)
        self.stop_wait = (float(stop_wait[0]), float(stop_wait[1]))
        self._start_stop = start_stop
        self._next_leg = 0

    @property
    def community(self) -> Optional[int]:
        """The district served by the node's line (``None`` for express lines)."""
        return self.route.district

    def initial_position(self, rng) -> np.ndarray:
        if self._start_stop is None:
            self._next_leg = rng.randrange(self.route.num_stops)
        else:
            self._next_leg = self._start_stop % self.route.num_stops
        stop_vertex = self.route.stops[self._next_leg]
        return self.route.roadmap.coordinates(stop_vertex)

    def next_path(self, position: np.ndarray, now: float, rng) -> Path:
        waypoints = self.route.leg_waypoints(self._next_leg)
        self._next_leg = (self._next_leg + 1) % self.route.num_stops
        speed = rng.uniform(self.min_speed, self.max_speed)
        wait = rng.uniform(*self.stop_wait)
        # Start the leg from wherever the node actually is (it should already
        # be at the leg's first stop, but guard against drift).
        if waypoints and not at_point(waypoints[0], position):
            waypoints = [np.asarray(position, dtype=float)] + waypoints
        return Path(waypoints, speed=speed, wait_time=wait)


def at_point(point: np.ndarray, position: np.ndarray) -> bool:
    """``np.allclose(point, position)`` for 2-D points, exact match first.

    A bus that arrived at its stop holds the stop's exact coordinates, so
    the common case is settled by two float comparisons; exact equality
    implies ``allclose``, and any other pair falls through to it, so the
    decision is always the one ``np.allclose`` alone would make.
    """
    if point[0] == position[0] and point[1] == position[1]:
        return True
    return bool(np.allclose(point, position))


def district_hubs(roadmap: RoadMap, districts: Dict[int, int]) -> Dict[int, int]:
    """Pick one *hub* vertex per district: the vertex closest to its centroid.

    Downtown bus networks funnel lines through a small number of interchange
    stops; routing every district's local lines (and the express lines)
    through its hub recreates that overlap, which is what gives contact
    patterns their predictable, semi-periodic structure.
    """
    by_district = district_vertices(districts)
    hubs: Dict[int, int] = {}
    for district, vertices in by_district.items():
        coords = np.vstack([roadmap.coordinates(v) for v in vertices])
        centroid = coords.mean(axis=0)
        distances = ((coords - centroid) ** 2).sum(axis=1)
        hubs[district] = vertices[int(np.argmin(distances))]
    return hubs


def generate_bus_routes(roadmap: RoadMap, districts: Dict[int, int],
                        lines_per_district: int = 2,
                        stops_per_line: int = 5,
                        express_lines: int = 2,
                        express_stops: int = 6,
                        seed: int = 0,
                        use_hubs: bool = True) -> List[BusRoute]:
    """Generate a synthetic bus network over *roadmap*.

    Parameters
    ----------
    roadmap:
        The road graph.
    districts:
        Vertex -> district assignment (see
        :func:`repro.mobility.map_generator.assign_districts`).
    lines_per_district:
        Number of local lines per district.
    stops_per_line:
        Stops per local line.
    express_lines:
        Number of cross-district lines.
    express_stops:
        Stops per express line (drawn from all districts).
    seed:
        RNG seed.
    use_hubs:
        If ``True`` every district gets a hub stop shared by all of its local
        lines, and express lines connect the hubs — mirroring how real
        downtown bus lines overlap at interchanges.  If ``False`` stops are
        sampled independently (more diffuse contact structure).

    Returns
    -------
    list of BusRoute
        Local lines first (grouped by district id), then express lines with
        ``district=None``.
    """
    if lines_per_district < 0 or express_lines < 0:
        raise ValueError("line counts must be non-negative")
    if stops_per_line < 2 or (express_lines > 0 and express_stops < 2):
        raise ValueError("lines need at least two stops")
    rng = random.Random(seed)
    by_district = district_vertices(districts)
    hubs = district_hubs(roadmap, districts) if use_hubs else {}
    routes: List[BusRoute] = []
    for district in sorted(by_district):
        vertices = by_district[district]
        for line_idx in range(lines_per_district):
            k = min(stops_per_line, len(vertices))
            if k < 2:
                raise ValueError(
                    f"district {district} has too few vertices ({len(vertices)}) "
                    "for a bus line")
            stops = rng.sample(vertices, k)
            hub = hubs.get(district)
            if hub is not None and hub not in stops:
                stops[0] = hub
            if len(set(stops)) < 2:
                stops = rng.sample(vertices, k)
            routes.append(BusRoute(roadmap, stops, district=district,
                                   name=f"d{district}-l{line_idx}"))
    all_vertices = list(districts)
    district_ids = sorted(by_district)
    for line_idx in range(express_lines):
        # express lines take one stop per district (cycled) so they touch
        # every part of town; with hubs enabled they call at the interchanges
        stops: List[int] = []
        for i in range(express_stops):
            district = district_ids[i % len(district_ids)]
            if use_hubs and i < len(district_ids):
                stops.append(hubs[district])
            else:
                stops.append(rng.choice(by_district[district]))
        # deduplicate consecutive repeats while keeping order
        deduped: List[int] = []
        for stop in stops:
            if not deduped or deduped[-1] != stop:
                deduped.append(stop)
        stops = deduped
        if len(set(stops)) < 2:
            stops = rng.sample(all_vertices, min(express_stops, len(all_vertices)))
        routes.append(BusRoute(roadmap, stops, district=None,
                               name=f"express-{line_idx}"))
    return routes
