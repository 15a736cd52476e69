"""Turn a :class:`~repro.experiments.scenario.ScenarioConfig` into a runnable world."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.scenario import MobilityKind, ScenarioConfig
from repro.metrics.collector import StatsCollector
from repro.mobility.base import MovementModel
from repro.mobility.community import CommunityLayout, CommunityMovement
from repro.mobility.hcmm import HomeCellMovement
from repro.mobility.map_generator import assign_districts, generate_downtown_map
from repro.mobility.map_route import BusRoute, MapRouteMovement, generate_bus_routes
from repro.mobility.random_waypoint import RandomWaypointMovement
from repro.mobility.roadmap import RoadMap
from repro.mobility.shortest_path import ShortestPathMapBasedMovement
from repro.mobility.stationary import StationaryMovement
from repro.net.generators import MessageEventGenerator, TrafficSpec
from repro.routing.registry import create_router
from repro.sim._collector import collector_paused
from repro.sim.engine import Simulator
from repro.traces.contact_trace import ContactTrace
from repro.traces.generators import generate_trace
from repro.traces.io import load_trace
from repro.traces.replay import TraceReplayWorld
from repro.world.interface import Interface
from repro.world.node import DTNNode
from repro.world.world import World


@dataclass
class BuiltScenario:
    """Everything :func:`build_scenario` assembles for one run."""

    config: ScenarioConfig
    simulator: Simulator
    world: World
    stats: StatsCollector
    traffic: MessageEventGenerator
    roadmap: Optional[RoadMap] = None
    routes: Optional[List[BusRoute]] = None
    #: the replayed contact trace (``MobilityKind.TRACE`` scenarios only)
    trace: Optional[ContactTrace] = None

    def run(self) -> float:
        """Run the simulation to the configured horizon; returns the end time."""
        return self.simulator.run(until=self.config.sim_time)


def _bus_movements(config: ScenarioConfig, simulator: Simulator):
    """Build the bus-line mobility pieces: road map, routes, per-node models."""
    roadmap = generate_downtown_map(
        width=config.map_width, height=config.map_height,
        spacing=config.map_spacing, seed=config.seed)
    districts = assign_districts(roadmap, config.num_communities)
    routes = generate_bus_routes(
        roadmap, districts,
        lines_per_district=config.lines_per_district,
        stops_per_line=config.stops_per_line,
        express_lines=config.express_lines,
        seed=config.seed + 1)
    movements: List[MovementModel] = []
    communities: List[int] = []
    for index in range(config.num_nodes):
        route = routes[index % len(routes)]
        movements.append(MapRouteMovement(
            route, min_speed=config.min_speed, max_speed=config.max_speed,
            stop_wait=config.stop_wait))
        # Express lines have no home district; spread their buses round-robin
        # over the communities so every node has a community id (the paper
        # predefines a community for every node).
        if route.district is not None:
            communities.append(route.district)
        else:
            communities.append(index % config.num_communities)
    return roadmap, routes, movements, communities


def _community_movements(config: ScenarioConfig):
    layout = CommunityLayout(area=(config.map_width, config.map_height),
                             num_communities=config.num_communities)
    movements: List[MovementModel] = []
    communities: List[int] = []
    for index in range(config.num_nodes):
        community = index % config.num_communities
        movements.append(CommunityMovement(
            layout, community, local_probability=config.local_probability,
            min_speed=config.min_speed, max_speed=config.max_speed,
            wait=config.stop_wait))
        communities.append(community)
    return movements, communities


def _hcmm_movements(config: ScenarioConfig):
    """Home-cell (caveman/HCMM) mobility; communities are the initial homes.

    With ``rehome_interval`` set the *actual* home cells drift during the
    run while the returned community labels stay the initial assignment —
    CR's oracle mode keeps routing on stale structure, the detected modes
    re-learn it (see docs/communities.md).
    """
    layout = CommunityLayout(area=(config.map_width, config.map_height),
                             num_communities=config.num_communities)
    movements: List[MovementModel] = []
    communities: List[int] = []
    for index in range(config.num_nodes):
        home = index % config.num_communities
        movements.append(HomeCellMovement(
            layout, home, roaming_probability=config.roaming_probability,
            min_speed=config.min_speed, max_speed=config.max_speed,
            wait=config.stop_wait, rehome_interval=config.rehome_interval))
        communities.append(home)
    return movements, communities


def _random_waypoint_movements(config: ScenarioConfig):
    """One shared random-waypoint model: it keeps no per-node state."""
    model = RandomWaypointMovement(
        area=(config.map_width, config.map_height),
        min_speed=config.min_speed, max_speed=config.max_speed,
        wait=config.stop_wait)
    movements: List[MovementModel] = [model] * config.num_nodes
    communities = [index % config.num_communities
                   for index in range(config.num_nodes)]
    return movements, communities


def _shortest_path_movements(config: ScenarioConfig):
    roadmap = generate_downtown_map(
        width=config.map_width, height=config.map_height,
        spacing=config.map_spacing, seed=config.seed)
    districts = assign_districts(roadmap, config.num_communities)
    movements: List[MovementModel] = []
    communities: List[int] = []
    by_district: dict = {}
    for vertex, district in districts.items():
        by_district.setdefault(district, []).append(vertex)
    for index in range(config.num_nodes):
        community = index % config.num_communities
        allowed = by_district.get(community)
        movements.append(ShortestPathMapBasedMovement(
            roadmap, min_speed=config.min_speed, max_speed=config.max_speed,
            wait=config.stop_wait, allowed_vertices=allowed))
        communities.append(community)
    return roadmap, movements, communities


def _load_scenario_trace(config: ScenarioConfig):
    """Resolve a TRACE config's contact trace (file or named generator).

    Returns the trace and an optional ground-truth node -> community mapping
    (only the ``community`` generator provides one).
    """
    if config.trace_path is not None:
        trace = load_trace(config.trace_path, config.trace_format,
                           window=config.trace_window,
                           remap=config.trace_remap_ids)
        return trace, None
    params = dict(config.trace_params)
    params.setdefault("num_nodes", config.num_nodes)
    params.setdefault("duration", config.sim_time)
    params.setdefault("seed", config.seed)
    if config.trace_generator in ("community", "drifting"):
        params.setdefault("num_communities", config.num_communities)
    return generate_trace(config.trace_generator, **params)


def _trace_movements(config: ScenarioConfig):
    """Build the trace-replay pieces: trace, stationary movements, communities."""
    trace, trace_communities = _load_scenario_trace(config)
    ids = trace.node_ids()
    highest = ids[-1] if ids else -1
    if highest >= config.num_nodes:
        hint = ("raise num_nodes" if config.trace_remap_ids or
                config.trace_path is None
                else "raise num_nodes or enable trace_remap_ids")
        raise ValueError(
            f"trace references node id {highest} but the scenario has only "
            f"{config.num_nodes} nodes; {hint}")
    movements: List[MovementModel] = []
    communities: List[int] = []
    for index in range(config.num_nodes):
        movements.append(StationaryMovement((float(index), 0.0)))
        if trace_communities is not None and index in trace_communities:
            communities.append(trace_communities[index])
        else:
            communities.append(index % config.num_communities)
    return trace, movements, communities


def build_scenario(config: ScenarioConfig, *,
                   reference: bool = False) -> BuiltScenario:
    """Assemble the simulator, world, nodes, routers and traffic for *config*.

    Geometric mobility kinds get a :class:`~repro.world.world.World` with
    range-based connectivity detection; ``MobilityKind.TRACE`` gets a
    :class:`~repro.traces.replay.TraceReplayWorld` whose link events come from
    the configured contact trace.  Everything downstream (routers, traffic,
    statistics, runners, backends) is identical for both.

    ``reference=True`` builds the same scenario on the naive reference
    world of :mod:`repro.testing.reference` (an executable specification
    of the tick and the knowledge layer, for tests, imported only when
    requested).  It is not part of the scenario's identity: both worlds
    produce byte-identical reports.

    Construction allocates only objects that live for the whole run, so it
    runs with the cyclic garbage collector paused.
    """
    with collector_paused():
        return _assemble(config, reference)


def _assemble(config: ScenarioConfig, reference: bool) -> BuiltScenario:
    simulator = Simulator(seed=config.seed, end_time=config.sim_time)
    stats = StatsCollector(keep_records=config.keep_records)

    roadmap: Optional[RoadMap] = None
    routes: Optional[List[BusRoute]] = None
    trace: Optional[ContactTrace] = None
    if config.mobility is MobilityKind.BUS:
        roadmap, routes, movements, communities = _bus_movements(config, simulator)
    elif config.mobility is MobilityKind.COMMUNITY:
        movements, communities = _community_movements(config)
    elif config.mobility is MobilityKind.HCMM:
        movements, communities = _hcmm_movements(config)
    elif config.mobility is MobilityKind.RANDOM_WAYPOINT:
        movements, communities = _random_waypoint_movements(config)
    elif config.mobility is MobilityKind.SHORTEST_PATH:
        roadmap, movements, communities = _shortest_path_movements(config)
    elif config.mobility is MobilityKind.TRACE:
        trace, movements, communities = _trace_movements(config)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown mobility kind {config.mobility!r}")

    world_class, replay_class = World, TraceReplayWorld
    if reference:
        from repro.testing.reference import (
            ReferenceTraceReplayWorld,
            ReferenceWorld,
        )
        world_class, replay_class = ReferenceWorld, ReferenceTraceReplayWorld
    if trace is not None:
        world: World = replay_class(
            simulator, trace, update_interval=config.update_interval,
            stats=stats)
    else:
        world = world_class(
            simulator, update_interval=config.update_interval, stats=stats)

    interface = Interface(transmit_range=config.transmit_range,
                          transmit_speed=config.transmit_speed)
    router_params = dict(config.router_params)
    node_rngs = simulator.random.python_family("mobility-",
                                               range(config.num_nodes))
    nodes: List[DTNNode] = []
    for node_id in range(config.num_nodes):
        node = DTNNode(
            node_id=node_id,
            movement=movements[node_id],
            rng=node_rngs[node_id],
            interface=interface,
            buffer_capacity=config.buffer_capacity,
            community=communities[node_id],
        )
        router = create_router(config.protocol, **router_params)
        router.attach(node, world)
        nodes.append(node)
    world.add_nodes(nodes)

    spec = TrafficSpec(
        interval=config.message_interval,
        size=config.message_size,
        ttl=config.message_ttl,
        copies=config.message_copies,
        start=config.traffic_start,
        end=config.effective_traffic_end,
        model=config.traffic_model,
        rate=config.traffic_rate,
        burst_size=config.traffic_burst_size,
        burst_spacing=config.traffic_burst_spacing,
    )
    traffic = MessageEventGenerator(simulator, world, spec)
    return BuiltScenario(config=config, simulator=simulator, world=world,
                         stats=stats, traffic=traffic, roadmap=roadmap,
                         routes=routes, trace=trace)
