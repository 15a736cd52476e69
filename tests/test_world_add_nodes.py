"""Bulk node registration: ``World.add_nodes`` is the one registration path.

``add_node`` is a one-element ``add_nodes``; registering the same nodes in
one call, one at a time (crossing position-store growth boundaries) or in
chunks must leave identical position rows, router-store columns and
movement-engine slots, with every follower bound to its own row.
"""

import random

import numpy as np
import pytest

from repro.mobility.random_waypoint import RandomWaypointMovement
from repro.mobility.stationary import StationaryMovement
from repro.routing.registry import create_router
from repro.sim.engine import Simulator
from repro.world.interface import Interface
from repro.world.node import DTNNode
from repro.world.world import World

#: more nodes than the position store's and router store's initial 64 rows
NUM_NODES = 150
PROTOCOLS = ("epidemic", "direct", "spray-and-wait", "eer", "prophet")

ROUTER_COLUMNS = ("_count", "_expiry", "_conns", "_idle_safe", "_batchable",
                  "_gated", "_fresh")


def make_world():
    simulator = Simulator(seed=3, end_time=40.0)
    world = World(simulator, update_interval=1.0)
    interface = Interface(transmit_range=40.0, transmit_speed=250_000)
    nodes = []
    for node_id in range(NUM_NODES):
        if node_id % 7 == 0:
            movement = StationaryMovement((float(node_id), 5.0))
        else:
            movement = RandomWaypointMovement(area=(400.0, 400.0))
        node = DTNNode(node_id, movement, random.Random(1000 + node_id),
                       interface=interface)
        create_router(PROTOCOLS[node_id % len(PROTOCOLS)]).attach(node, world)
        nodes.append(node)
    return simulator, world, nodes


def register_at_once(world, nodes):
    assert world.add_nodes(nodes) == nodes


def register_one_by_one(world, nodes):
    for node in nodes:
        assert world.add_node(node) is node


def register_in_chunks(world, nodes):
    for chunk in (nodes[:10], nodes[10:10], nodes[10:70], nodes[70:]):
        world.add_nodes(iter(chunk))


def assert_registered(world, nodes):
    n = len(nodes)
    assert world.nodes == nodes
    assert world.node_ids() == list(range(n))
    assert world.node_id_tuple == tuple(range(n))
    positions = world.positions()
    data = world._positions.data
    store = world.router_store
    movement = world.movement
    for row, node in enumerate(nodes):
        # each follower writes straight into its own row of the matrix
        assert np.shares_memory(node.follower.position, data[row])
        assert node.follower.position.shape == (2,)
        assert np.array_equal(positions[row], node.position)
        assert store._row[node.node_id] == row
        assert node.buffer._mirror_store is store
        assert node.buffer._mirror_row == row
        assert movement._followers[row] is node.follower
    assert movement.num_followers == n


def registration_state(world):
    """Everything registration writes, as comparable plain values."""
    store = world.router_store
    n = len(store)
    movement = world.movement
    return {
        "positions": world.positions().copy(),
        "columns": {name: getattr(store, name)[:n].copy()
                    for name in ROUTER_COLUMNS},
        "rows": dict(store._row),
        "slots": [follower._engine_slot for follower in movement._followers],
    }


def assert_same_state(left, right):
    assert left.keys() == right.keys()
    assert np.array_equal(left["positions"], right["positions"])
    for name in ROUTER_COLUMNS:
        assert np.array_equal(left["columns"][name], right["columns"][name]), name
    for key in ("rows", "slots"):
        assert left[key] == right[key], key


@pytest.mark.parametrize("register", [register_one_by_one, register_in_chunks])
def test_bulk_registration_matches_per_node_registration(register):
    _, bulk_world, bulk_nodes = make_world()
    register_at_once(bulk_world, bulk_nodes)
    _, other_world, other_nodes = make_world()
    register(other_world, other_nodes)

    assert_registered(bulk_world, bulk_nodes)
    assert_registered(other_world, other_nodes)
    bulk_state = registration_state(bulk_world)
    assert_same_state(bulk_state, registration_state(other_world))
    # every follower, stationary ones included, holds its engine slot
    assert bulk_state["slots"] == list(range(len(bulk_nodes)))


@pytest.mark.parametrize("register", [register_one_by_one, register_in_chunks])
def test_bulk_and_per_node_worlds_move_and_link_identically(register):
    bulk_sim, bulk_world, bulk_nodes = make_world()
    register_at_once(bulk_world, bulk_nodes)
    other_sim, other_world, other_nodes = make_world()
    register(other_world, other_nodes)
    bulk_sim.run()
    other_sim.run()
    assert bulk_world.updates == other_world.updates == 40
    assert np.array_equal(bulk_world.positions(), other_world.positions())
    assert np.array_equal(bulk_world._link_codes, other_world._link_codes)
    assert len(bulk_world._link_codes)  # the worlds did form links
    assert_same_state(registration_state(bulk_world),
                      registration_state(other_world))
    # movement kept writing through the bound rows
    for row, node in enumerate(bulk_nodes):
        assert np.shares_memory(node.follower.position,
                                bulk_world._positions.data[row])


def test_bulk_registration_grows_the_stores_once():
    _, world, nodes = make_world()
    world.add_nodes(nodes[:3])
    first_rows = world._positions.data
    world.add_nodes(nodes[3:])
    assert world._positions.capacity == NUM_NODES  # one exact-size growth
    assert len(world.router_store._count) == NUM_NODES
    assert world._positions.data is not first_rows
    assert_registered(world, nodes)


def test_rejected_batch_registers_nothing():
    _, world, nodes = make_world()
    world.add_nodes(nodes[:5])
    before = registration_state(world)
    twin = DTNNode(2, StationaryMovement((0.0, 0.0)), random.Random(0))
    create_router("epidemic").attach(twin, world)
    unattached = DTNNode(60, StationaryMovement((0.0, 0.0)), random.Random(0))
    for batch in ([nodes[5], twin],             # duplicate of a registered id
                  [nodes[5], nodes[6], nodes[5]],  # duplicate inside the batch
                  [nodes[5], unattached]):      # no router attached
        with pytest.raises(ValueError):
            world.add_nodes(batch)
        assert world.num_nodes == 5
        assert_same_state(registration_state(world), before)
    world.add_nodes(nodes[5:])
    assert_registered(world, nodes)


def test_node_id_tuple_is_shared_until_the_next_registration():
    """Traffic generators draw endpoints from this tuple once per message:
    it is built once, not per read, and never goes stale."""
    _, world, nodes = make_world()
    world.add_nodes(nodes[:3])
    ids = world.node_id_tuple
    assert ids == (0, 1, 2)
    assert world.node_id_tuple is ids
    world.add_node(nodes[3])
    assert world.node_id_tuple == (0, 1, 2, 3)
    assert world.node_ids() == [0, 1, 2, 3]
