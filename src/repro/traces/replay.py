"""Replaying contact traces.

:class:`TraceReplayWorld` drives connectivity from a
:class:`~repro.traces.contact_trace.ContactTrace` instead of node positions:
at every update the set of active pairs prescribed by the trace replaces the
geometric detection.  Nodes are stationary; everything else (buffers,
transfers, routers, statistics) behaves exactly as in the mobility-driven
world, so any protocol can be evaluated on recorded or synthetic traces.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.metrics.collector import StatsCollector
from repro.mobility.stationary import StationaryMovement
from repro.routing.registry import create_router
from repro.sim.engine import Simulator
from repro.traces.contact_trace import ContactTrace
from repro.world.interface import Interface
from repro.world.node import DTNNode
from repro.world.world import World, _pack_keys


class TraceReplayWorld(World):
    """A world whose connectivity follows a contact trace.

    The base class's detector and sorted link-code diffing are bypassed (the
    inherited ``_link_codes`` array stays empty); the trace is the sole
    source of link-up/link-down events.  A trace event is applied at the
    first world update whose time is ``>= `` the event time, so the
    effective contact timing is quantised to ``update_interval``.

    Parameters
    ----------
    simulator, update_interval, stats:
        As for :class:`~repro.world.world.World`.
    trace:
        The contact trace to replay (its events are already time-sorted by
        :class:`~repro.traces.contact_trace.ContactTrace` construction).
    """

    def __init__(self, simulator: Simulator, trace: ContactTrace,
                 update_interval: float = 1.0,
                 stats: Optional[StatsCollector] = None) -> None:
        super().__init__(simulator, update_interval=update_interval,
                         stats=stats)
        self.trace = trace
        # pre-sort events once; replay walks them with an index
        self._events = trace.events
        self._event_index = 0
        self._active_pairs: Set[Tuple[int, int]] = set()

    def _refresh_connectivity(self, now: float) -> None:
        """Advance the trace cursor to *now* and diff the prescribed links.

        Replaces the geometric detection phase entirely: trace events up to
        (and including) the current time update the active-pair set, which is
        then diffed against the live connection table.  Events referencing
        node ids that were never registered are skipped.  Link events fire in
        ascending ``(id, id)`` pair order, matching the deterministic
        within-tick ordering contract of the vectorized
        :meth:`~repro.world.world.World._refresh_connectivity` (DESIGN.md).
        """
        while (self._event_index < len(self._events)
               and self._events[self._event_index].time <= now):
            event = self._events[self._event_index]
            self._event_index += 1
            pair = event.pair
            if pair[0] not in self._nodes or pair[1] not in self._nodes:
                continue
            if event.up:
                self._active_pairs.add(pair)
            else:
                self._active_pairs.discard(pair)
        previous = set(self._connections)
        current = set(self._active_pairs)
        down_keys = sorted(previous - current)
        up_keys = sorted(current - previous)
        if down_keys or up_keys:
            self._apply_link_changes(_pack_keys(down_keys),
                                     _pack_keys(up_keys), now)


def build_trace_world(trace: ContactTrace, protocol: str = "epidemic",
                      seed: int = 1, update_interval: float = 1.0,
                      buffer_capacity: float = 1024 * 1024,
                      transmit_range: float = 10.0,
                      transmit_speed: float = 2_000_000 / 8,
                      num_nodes: Optional[int] = None,
                      communities: Optional[Dict[int, int]] = None,
                      router_params: Optional[dict] = None,
                      *, reference: bool = False,
                      ) -> Tuple[Simulator, TraceReplayWorld]:
    """Build a simulator + trace-replay world with one router per trace node.

    This is the low-level assembly helper behind trace experiments; prefer
    ``MobilityKind.TRACE`` scenarios via
    :func:`repro.experiments.builder.build_scenario` when you want traffic,
    statistics and backend fan-out wired up too.

    Parameters
    ----------
    trace:
        The contact trace to replay.
    protocol:
        Router name from :mod:`repro.routing.registry`.
    seed:
        Simulator seed (drives the per-node RNG streams and traffic, not the
        trace, which is fixed).
    update_interval:
        World tick in seconds; trace events are applied at the first tick at
        or after their timestamp.
    buffer_capacity:
        Per-node buffer size in bytes.
    transmit_range, transmit_speed:
        Radio parameters: the range is irrelevant to connectivity here (the
        trace decides) but the speed still bounds transfer bandwidth.
    num_nodes:
        Number of nodes to create; defaults to ``max(trace node id) + 1`` so
        node ids can be used as MI-matrix indices.
    communities:
        Optional node -> community mapping (required by the CR protocol).
    router_params:
        Extra keyword arguments for the router factory.
    reference:
        Build the naive reference world of :mod:`repro.testing.reference`
        instead of the production world (an executable specification for
        tests; imported only when requested).

    Returns
    -------
    (Simulator, TraceReplayWorld)
        Ready to run with ``simulator.run(until=...)``; attach a
        :class:`~repro.net.generators.MessageEventGenerator` for traffic.

    Raises
    ------
    ValueError
        If *num_nodes* is too small for the ids appearing in the trace.
    """
    simulator = Simulator(seed=seed)
    world_class = TraceReplayWorld
    if reference:
        from repro.testing.reference import ReferenceTraceReplayWorld
        world_class = ReferenceTraceReplayWorld
    world = world_class(simulator, trace, update_interval=update_interval)
    trace_ids = trace.node_ids()
    highest = max(trace_ids) if trace_ids else -1
    count = num_nodes if num_nodes is not None else highest + 1
    if count <= highest:
        raise ValueError(
            f"num_nodes={count} is too small for trace node id {highest}")
    interface = Interface(transmit_range=transmit_range, transmit_speed=transmit_speed)
    params = dict(router_params or {})
    nodes = []
    for node_id in range(count):
        movement = StationaryMovement((float(node_id), 0.0))
        node = DTNNode(
            node_id=node_id,
            movement=movement,
            rng=simulator.random.python(f"trace-node-{node_id}"),
            interface=interface,
            buffer_capacity=buffer_capacity,
            community=None if communities is None else communities.get(node_id),
        )
        router = create_router(protocol, **params)
        router.attach(node, world)
        nodes.append(node)
    world.add_nodes(nodes)
    return simulator, world
