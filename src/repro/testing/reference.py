"""The reference world tick: the naive executable specification.

The production :class:`~repro.world.world.World` tick is built from
machinery whose only job is speed — pooled connections, batched contact
statistics, the columnar :class:`~repro.net.engine.TransferEngine` and the
struct-of-arrays :class:`~repro.routing.soa.RouterStateStore` — and every
piece of it claims to leave the simulation's outcome unchanged.  This
module states what "unchanged" means by running the same four phases the
obvious way:

* ``move`` — every follower advances through the per-follower loop
  (``MovementEngine(batch=False)``),
* ``connectivity`` — every link event is applied on its own: a fresh
  :class:`~repro.net.connection.Connection` per establishment and one
  ``contact_up`` / ``contact_down`` record per event,
* ``transfers`` — every live link is scanned and advanced,
* ``routers`` — every router is ticked, every update.

:class:`ReferenceTick` is one mixin applied to both world flavours
(:class:`ReferenceWorld`, :class:`ReferenceTraceReplayWorld`).  Select it
with ``build_scenario(config, reference=True)`` or
``build_trace_world(..., reference=True)``; both import this module only
when asked, so it never enters the production import graph.  A reference
run and a production run of the same configuration must produce
byte-identical canonical reports (``tests/test_reference_tick.py``), and
the reference is the baseline of the world-tick pairs in ``repro bench``.

The production world's columnar stores are still constructed and
``add_node`` still registers every node in them, but the reference tick
never reads them: nothing here depends on their bookkeeping being right.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.mobility.engine import MovementEngine
from repro.net.connection import Connection
from repro.traces.replay import TraceReplayWorld
from repro.world.world import World

__all__ = ["ReferenceTick", "ReferenceWorld", "ReferenceTraceReplayWorld"]


class ReferenceTick:
    """Mixin: replace a world's tick machinery with the naive specification.

    Must precede the world class in the bases so its methods win.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[call-arg]
        # no node is registered yet, so swapping the engine is safe
        self.movement = MovementEngine(self._positions, batch=False)

    def _apply_link_changes(self, down_keys: List[Tuple[int, int]],
                            up_keys: List[Tuple[int, int]],
                            now: float) -> None:
        # same event order and router dispatch contract as the production
        # world: tear-downs then establishments, each in ascending pair
        # order, then one batch notification per router in ascending id order
        events_by_node: Dict[int, List[Tuple[Connection, bool]]] = {}
        for key in down_keys:
            event = (self._teardown_link(key, now), False)
            events_by_node.setdefault(key[0], []).append(event)
            events_by_node.setdefault(key[1], []).append(event)
        for key in up_keys:
            event = (self._establish_link(key, now), True)
            events_by_node.setdefault(key[0], []).append(event)
            events_by_node.setdefault(key[1], []).append(event)
        for node_id in sorted(events_by_node):
            router = self._nodes[node_id].router
            assert router is not None
            router.batch_changed_connections(events_by_node[node_id])

    def _establish_link(self, key: Tuple[int, int], now: float) -> Connection:
        node_a = self._nodes[key[0]]
        node_b = self._nodes[key[1]]
        connection = Connection(
            node_a, node_b, node_a.interface.link_bitrate(node_b.interface),
            now)
        self.stats.contact_up(node_a.node_id, node_b.node_id, now)
        self._connections[key] = connection
        node_a.connections[node_b.node_id] = connection
        node_b.connections[node_a.node_id] = connection
        return connection

    def _teardown_link(self, key: Tuple[int, int], now: float) -> Connection:
        connection = self._connections.pop(key)
        self._abort_transfers(connection, now)
        node_a = connection.node_a
        node_b = connection.node_b
        node_a.connections.pop(node_b.node_id, None)
        node_b.connections.pop(node_a.node_id, None)
        self.stats.contact_down(node_a.node_id, node_b.node_id, now)
        return connection

    def _advance_transfers(self, now: float, dt: float) -> None:
        for connection in list(self._connections.values()):
            for transfer in connection.advance(now, dt):
                self._complete_transfer(transfer, now)

    def _update_routers(self, now: float) -> None:
        for node in self._node_order:
            assert node.router is not None
            node.router.update(now)
        self.routers_ticked += len(self._node_order)
        self.stats.router_sweep(len(self._node_order), 0, 0)


class ReferenceWorld(ReferenceTick, World):
    """A geometric :class:`~repro.world.world.World` on the reference tick."""


class ReferenceTraceReplayWorld(ReferenceTick, TraceReplayWorld):
    """A :class:`~repro.traces.replay.TraceReplayWorld` on the reference tick."""
