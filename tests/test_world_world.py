"""Integration-style unit tests for the world update loop (movement-driven)."""

import numpy as np
import pytest

from repro.mobility.base import MovementModel
from repro.mobility.path import Path
from repro.mobility.stationary import StationaryMovement
from repro.net.message import Message
from repro.routing.direct import DirectDeliveryRouter
from repro.routing.epidemic import EpidemicRouter
from repro.sim.engine import Simulator
from repro.world.interface import Interface
from repro.world.node import DTNNode
from repro.world.world import World


class StraightLineMovement(MovementModel):
    """Deterministic movement: start at `origin`, move along +x at `speed`."""

    def __init__(self, origin, speed):
        self.origin = np.asarray(origin, dtype=float)
        self.speed = speed

    def initial_position(self, rng):
        return self.origin.copy()

    def next_path(self, position, now, rng):
        target = position + np.array([1e6, 0.0])
        return Path([position, target], speed=self.speed)


def build_world(movements, protocol=EpidemicRouter, update_interval=1.0,
                transmit_range=10.0):
    simulator = Simulator(seed=1)
    world = World(simulator, update_interval=update_interval)
    interface = Interface(transmit_range=transmit_range, transmit_speed=250_000)
    for node_id, movement in enumerate(movements):
        node = DTNNode(node_id, movement, simulator.random.python(f"n{node_id}"),
                       interface=interface)
        protocol().attach(node, world)
        world.add_node(node)
    return simulator, world


def test_add_node_requires_router_and_unique_id():
    simulator = Simulator(seed=1)
    world = World(simulator)
    node = DTNNode(0, StationaryMovement((0, 0)), simulator.random.python("n0"))
    with pytest.raises(ValueError):
        world.add_node(node)
    DirectDeliveryRouter().attach(node, world)
    world.add_node(node)
    twin = DTNNode(0, StationaryMovement((1, 1)), simulator.random.python("n0b"))
    DirectDeliveryRouter().attach(twin, world)
    with pytest.raises(ValueError):
        world.add_node(twin)


def test_nodes_in_range_get_connected_and_stats_recorded():
    simulator, world = build_world([
        StationaryMovement((0.0, 0.0)),
        StationaryMovement((5.0, 0.0)),
        StationaryMovement((500.0, 0.0)),
    ])
    simulator.run(until=3.0)
    assert world.connection_between(0, 1) is not None
    assert world.connection_between(0, 2) is None
    assert world.stats.contacts == 1
    assert world.get_node(0).connected_peers() == [1]


def test_link_goes_down_when_nodes_separate():
    simulator, world = build_world([
        StationaryMovement((0.0, 0.0)),
        StraightLineMovement((5.0, 0.0), speed=2.0),
    ])
    simulator.run(until=1.0)
    assert world.connection_between(0, 1) is not None
    simulator.run(until=10.0)  # by t=3 the mover is beyond 10 m
    assert world.connection_between(0, 1) is None
    assert len(world.stats.contact_records) == 1
    record = world.stats.contact_records[0]
    assert record.duration > 0


def test_direct_delivery_over_one_contact():
    simulator, world = build_world([
        StationaryMovement((0.0, 0.0)),
        StationaryMovement((5.0, 0.0)),
    ], protocol=DirectDeliveryRouter)
    message = Message("M1", 0, 1, size=25 * 1024, creation_time=0.0, ttl=600.0)
    world.create_message(0, message)
    simulator.run(until=5.0)
    assert world.stats.delivered == 1
    assert world.stats.delivery_ratio == 1.0
    # 25 KB at 250 KB/s takes ~0.1 s; delivered on the tick after contact up
    assert world.stats.delivered_records[0].latency <= 3.0
    # sender dropped its replica after the delivery
    assert not world.get_node(0).router.has_message("M1")


def test_relay_through_intermediate_node_with_epidemic():
    # 0 and 1 are in range; 1 and 2 are in range; 0 and 2 are not
    simulator, world = build_world([
        StationaryMovement((0.0, 0.0)),
        StationaryMovement((8.0, 0.0)),
        StationaryMovement((16.0, 0.0)),
    ], protocol=EpidemicRouter)
    message = Message("M1", 0, 2, size=1000, creation_time=0.0, ttl=600.0)
    world.create_message(0, message)
    simulator.run(until=10.0)
    assert world.stats.is_delivered("M1")
    delivered = world.stats.delivered_records[0]
    assert delivered.hop_count == 2


def test_message_expires_if_never_deliverable():
    simulator, world = build_world([
        StationaryMovement((0.0, 0.0)),
        StationaryMovement((500.0, 0.0)),
    ], protocol=EpidemicRouter)
    message = Message("M1", 0, 1, size=1000, creation_time=0.0, ttl=30.0)
    world.create_message(0, message)
    simulator.run(until=60.0)
    assert world.stats.delivered == 0
    assert world.stats.expired == 1
    assert not world.get_node(0).router.has_message("M1")


def test_positions_and_lookup_helpers():
    simulator, world = build_world([
        StationaryMovement((0.0, 0.0)),
        StationaryMovement((5.0, 0.0)),
    ])
    assert world.num_nodes == 2
    assert world.node_ids() == [0, 1]
    assert world.positions().shape == (2, 2)
    assert world.community_of(0) is None
    with pytest.raises(KeyError):
        world.get_node(99)


def test_update_interval_validation():
    simulator = Simulator(seed=1)
    with pytest.raises(ValueError):
        World(simulator, update_interval=0.0)


def test_duplicate_arrivals_at_destination_count_one_delivery():
    """Regression: replicas reaching the destination over two disjoint paths
    must produce exactly one delivery record (and no duplicate accounting)."""
    # 1 and 3 both pick up the message from 0, then both meet destination 2
    simulator, world = build_world([
        StationaryMovement((0.0, 0.0)),
        StationaryMovement((6.0, 0.0)),      # relay A, in range of 0 and 2
        StationaryMovement((12.0, 0.0)),     # destination
        StationaryMovement((6.0, 6.0)),      # relay B, in range of 0 and 2
    ], protocol=EpidemicRouter)
    message = Message("M1", 0, 2, size=1000, creation_time=0.0, ttl=600.0)
    world.create_message(0, message)
    simulator.run(until=20.0)
    assert world.stats.is_delivered("M1")
    assert world.stats.delivered == 1
    assert len(world.stats.delivered_records) == 1
    # the destination saw the replica arrive over both paths: one delivery,
    # one duplicate (the observability counter stays live)
    arrivals = [rec for rec in world.stats.relayed_records
                if rec.to_node == 2 and rec.final_delivery]
    assert len(arrivals) == 2
    assert world.stats.duplicate_deliveries == 1


def test_unchanged_link_set_skips_the_diff(monkeypatch):
    """Ticks whose packed link codes repeat the previous tick's diff
    nothing; a node joining with a new link brings the diff back for one
    tick."""
    import repro.world.world as world_module

    diffs = []
    sorted_diff = world_module._sorted_diff

    def counted(a, b):
        diffs.append(len(a))
        return sorted_diff(a, b)

    monkeypatch.setattr(world_module, "_sorted_diff", counted)
    simulator, world = build_world([
        StationaryMovement((0.0, 0.0)),
        StationaryMovement((5.0, 0.0)),
    ])
    simulator.run(until=5.0)
    assert len(diffs) == 2                      # the first tick only
    node = DTNNode(2, StationaryMovement((0.0, 5.0)),
                   simulator.random.python("n2"),
                   interface=world.get_node(0).interface)
    EpidemicRouter().attach(node, world)
    world.add_node(node)
    simulator.run(until=10.0)
    assert len(diffs) == 4
    assert world.connection_between(0, 2) is not None
    assert world.stats.contacts == 3

