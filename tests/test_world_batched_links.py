"""Per-tick batched link-event dispatch (World._apply_link_changes).

The world hands every affected router *all* of its link changes for a tick in
one ``batch_changed_connections`` call.  These tests pin the dispatch
contract: downs before ups, pair-sorted within each group, routers notified
in ascending node-id order — which is exactly what keeps the contact-state
exchange invariant (smaller endpoint folds the contact in before the
larger-id initiator runs the exchange).
"""

from repro.routing.epidemic import EpidemicRouter
from repro.traces.contact_trace import ContactTrace
from repro.traces.replay import build_trace_world


class RecordingRouter(EpidemicRouter):
    """Epidemic router that logs the batched notifications it receives."""

    name = "recording"

    def __init__(self) -> None:
        super().__init__()
        self.batches = []

    def batch_changed_connections(self, events) -> None:
        self.batches.append([(connection.key, up) for connection, up in events])
        super().batch_changed_connections(events)


def make_trace(intervals):
    """intervals: list of (start, end, a, b)."""
    from repro.traces.contact_trace import ContactEvent

    events = []
    for start, end, a, b in intervals:
        events.append(ContactEvent(start, a, b, True))
        events.append(ContactEvent(end, a, b, False))
    return ContactTrace(events)


def test_batched_events_downs_first_then_ups_pair_sorted():
    # at t=10 three links come up; at t=20 two go down while one comes up
    trace = make_trace([
        (10.0, 20.0, 0, 1),
        (10.0, 20.0, 1, 2),
        (10.0, 50.0, 0, 3),
        (20.0, 50.0, 1, 4),
    ])
    simulator, world = build_trace_world(trace, protocol="epidemic",
                                         num_nodes=5)
    routers = {}
    for node_id in range(5):
        node = world.get_node(node_id)
        router = RecordingRouter()
        node.router = None
        router.attach(node, world)
        routers[node_id] = router
    simulator.run(until=30.0)

    # node 1 saw (0,1) and (1,2) come up in one batch, pair-sorted
    assert [((0, 1), True), ((1, 2), True)] in routers[1].batches
    # at t=20 node 1's batch carries both downs before the new up
    assert [((0, 1), False), ((1, 2), False), ((1, 4), True)] \
        in routers[1].batches
    # every router's live connection table matches the trace at t=30
    assert set(world._connections) == {(0, 3), (1, 4)}


def test_ascending_dispatch_preserves_exchange_invariant():
    """EER's MI exchange relies on the smaller endpoint being notified first."""
    from repro.core.eer import EERRouter

    trace = make_trace([(10.0, 100.0, 0, 1), (10.0, 100.0, 0, 2),
                        (10.0, 100.0, 1, 2)])
    simulator, world = build_trace_world(trace, protocol="eer", num_nodes=3)
    simulator.run(until=15.0)
    for node_id in range(3):
        router = world.get_node(node_id).router
        assert isinstance(router, EERRouter)
        # every endpoint recorded its simultaneous contacts exactly once
        peers = sorted(router.history.peers())
        assert peers == sorted(set(range(3)) - {node_id})
        for peer in peers:
            assert router.history.contact_count(peer) == 1
    # exchanges ran: the initiators merged rows from their smaller peers
    assert world.stats.control_exchanges >= 1


def test_single_event_paths_still_work():
    """_link_up/_link_down single-event wrappers keep the legacy behaviour."""
    trace = make_trace([(5.0, 8.0, 0, 1)])
    simulator, world = build_trace_world(trace, protocol="epidemic",
                                         num_nodes=2)
    simulator.run(until=6.0)
    assert world.connection_between(0, 1) is not None
    world._link_down((0, 1), 6.5)
    assert world.connection_between(0, 1) is None
    world._link_up((0, 1), 7.0)
    assert world.connection_between(0, 1) is not None


# ------------------------------------------------- who receives link events
def test_link_listener_is_derived_from_the_link_hooks():
    from repro.routing.base import Router
    from repro.routing.registry import create_router

    for name in ("direct", "epidemic", "spray-and-wait", "first-contact"):
        assert not create_router(name).link_listener, name
    for name in ("eer", "cr", "ebr", "prophet", "maxprop",
                 "spray-and-focus"):
        assert create_router(name).link_listener, name
    assert not Router.link_listener
    assert RecordingRouter.link_listener        # batch_changed_connections

    class Silent(EpidemicRouter):
        def on_update(self, now):
            super().on_update(now)

    class DownOnly(Silent):
        def on_contact_down(self, connection, peer):
            pass

    class PerEvent(EpidemicRouter):
        def changed_connection(self, connection, up):
            super().changed_connection(connection, up)

    assert not Silent.link_listener
    assert DownOnly.link_listener
    assert PerEvent.link_listener


def test_non_listening_router_gets_no_events_but_its_row_wakes():
    """An epidemic router (no link hook) is never handed a batch — the spy
    sits on the instance, so the class stays silent — while its row wakes
    on both link events; its listening peer gets both batches."""
    trace = make_trace([(1.0, 3.0, 0, 1)])
    simulator, world = build_trace_world(trace, protocol="epidemic",
                                         num_nodes=2)
    silent = world.get_node(0).router
    calls = []
    silent.batch_changed_connections = calls.append
    silent.changed_connection = lambda connection, up: calls.append(up)
    listener = RecordingRouter()
    node = world.get_node(1)
    node.router = None
    listener.attach(node, world)
    store = world.router_store
    masks = store._wake_masks
    woke = []

    def spy(world, now, changed):
        awake, noop = masks(world, now, changed)
        woke.append((now, bool(awake[0]), bool(awake[1])))
        return awake, noop

    store._wake_masks = spy
    simulator.run(until=5.0)
    assert calls == []
    assert listener.batches == [[((0, 1), True)], [((0, 1), False)]]
    assert woke[0] == (1.0, True, True)
    assert (3.0, True, True) in woke


def test_dispatch_reads_the_current_router():
    """Rebinding a node swaps its listening column: a listener swapped in
    for an epidemic router receives the next link events."""
    trace = make_trace([(1.0, 3.0, 0, 1), (5.0, 7.0, 0, 1)])
    simulator, world = build_trace_world(trace, protocol="epidemic",
                                         num_nodes=2)
    simulator.run(until=4.0)
    store = world.router_store
    assert not store._listens[0] and store.listeners == 0
    listener = RecordingRouter()
    node = world.get_node(0)
    node.router = None
    listener.attach(node, world)
    assert store._listens[0] and store.listeners == 1
    simulator.run(until=8.0)
    assert listener.batches == [[((0, 1), True)], [((0, 1), False)]]


def test_bulk_bookkeeping_when_ids_are_not_rows():
    """Nodes registered out of id order (with gaps): the id -> row gather
    books live-connection counts and event rows on the right rows, and
    batches still go out in ascending node-id order."""
    from repro.mobility.stationary import StationaryMovement
    from repro.sim.engine import Simulator
    from repro.traces.replay import TraceReplayWorld
    from repro.world.node import DTNNode

    ids = [7, 3, 11, 5]
    simulator = Simulator(seed=1)
    world = TraceReplayWorld(simulator, make_trace([]))
    order = []
    nodes = []
    for node_id in ids:
        node = DTNNode(node_id, StationaryMovement((float(node_id), 0.0)),
                       simulator.random.python(f"n{node_id}"))

        class Logged(RecordingRouter):
            def batch_changed_connections(self, events, _id=node_id):
                order.append(_id)
                super().batch_changed_connections(events)

        Logged().attach(node, world)
        nodes.append(node)
    world.add_nodes(nodes)
    store = world.router_store
    world._link_up((3, 11), 1.0)
    assert store._conns[:4].tolist() == [0, 1, 1, 0]
    assert sorted(store._event_rows.tolist()) == [1, 2]
    assert order == [3, 11]
    world._link_up((5, 7), 1.0)
    world._link_down((3, 11), 2.0)
    assert store._conns[:4].tolist() == [1, 0, 0, 1]
    assert order == [3, 11, 5, 7, 3, 11]
    # the routers phase has not run since the first diff: both diffs wake
    assert sorted(store._event_rows.tolist()) == [0, 1, 1, 2, 2, 3]
