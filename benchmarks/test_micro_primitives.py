"""Micro-benchmarks of the per-contact primitives.

These measure the cost of the operations the protocols execute at every
contact or world tick — the quantities that determine how far the simulator
scales: Theorem 1/2/4 evaluations, the MD build + Dijkstra (MEMD), MI row
exchange, connectivity detection and path advancement.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.contacts.history import ContactHistory
from repro.contacts.md_matrix import build_delay_matrix
from repro.contacts.memd import dijkstra_delays
from repro.contacts.mi_matrix import MeetingIntervalMatrix
from repro.core.expectation import (
    expected_encounter_value,
    expected_num_encountering_communities,
)
from repro.mobility.path import Path
from repro.mobility.random_waypoint import RandomWaypointMovement
from repro.routing.direct import DirectDeliveryRouter
from repro.sim.engine import Simulator
from repro.world.connectivity import KDTreeConnectivity
from repro.world.interface import Interface
from repro.world.node import DTNNode
from repro.world.world import World

N = 240  # the paper's largest node count
WORLD_TICK_NODES = 1000  # production-scale world-tick benchmark


def make_history(num_peers=60, contacts_per_peer=15, seed=3):
    rng = random.Random(seed)
    history = ContactHistory(owner_id=0, window_size=20)
    for peer in range(1, num_peers + 1):
        t = rng.uniform(0, 100)
        for _ in range(contacts_per_peer):
            t += rng.uniform(50, 400)
            history.record_contact(peer, t)
    return history


def make_mi(n=N, known_fraction=0.6, seed=7):
    rng = np.random.default_rng(seed)
    mi = MeetingIntervalMatrix(n, owner_id=0)
    mi._values[:] = np.where(rng.random((n, n)) < known_fraction,
                             rng.uniform(50, 2000, (n, n)), np.inf)
    np.fill_diagonal(mi._values, 0.0)
    mi._row_updated[:] = rng.uniform(0, 1000, n)
    return mi


@pytest.fixture(scope="module")
def history():
    return make_history()


@pytest.fixture(scope="module")
def mi():
    return make_mi()


def test_bench_expected_encounter_value(benchmark, history):
    result = benchmark(expected_encounter_value, history, 6000.0, 336.0)
    assert result >= 0.0


def test_bench_enec(benchmark, history):
    communities = {c: list(range(c * 15 + 1, (c + 1) * 15 + 1)) for c in range(4)}
    result = benchmark(expected_num_encountering_communities,
                       history, 6000.0, 336.0, communities, 0)
    assert result >= 0.0


def test_bench_build_delay_matrix(benchmark, history, mi):
    md = benchmark(build_delay_matrix, history, mi, 6000.0)
    assert md.shape == (N, N)


def test_bench_memd_dijkstra(benchmark, mi):
    md = mi.values.copy()
    result = benchmark(dijkstra_delays, md, 0)
    assert result.shape == (N,)


def test_bench_mi_merge(benchmark):
    ours = make_mi(seed=1)
    theirs = make_mi(seed=2)

    def merge():
        clone = ours.copy()
        return clone.merge_from(theirs)

    copied = benchmark(merge)
    assert copied >= 0


def test_bench_connectivity_rebuild(benchmark):
    """Cost of one candidate rebuild: snapshot, k-d tree pair query, sort."""
    rng = np.random.default_rng(0)
    positions = rng.uniform(0, 4500, size=(N, 2))
    ranges = np.full(N, 10.0)
    detector = KDTreeConnectivity()

    def rebuild():
        detector.reset()
        return detector.update(positions, ranges)

    pairs = benchmark(rebuild)
    assert pairs.shape[1] == 2


def test_bench_connectivity_steady_state(benchmark):
    """Per-tick cost of the detector's cached-candidate filter.

    Steady state = nodes drifting below the slack, the common case the
    detector optimises: one vectorized range filter over the cached
    candidate set, no tree query and no sort.
    """
    rng = np.random.default_rng(0)
    positions = rng.uniform(0, 2400, size=(WORLD_TICK_NODES, 2))
    ranges = np.full(WORLD_TICK_NODES, 40.0)
    drift = rng.normal(0.0, 0.5, size=positions.shape)
    detector = KDTreeConnectivity()
    detector.update(positions, ranges)  # build the candidate cache
    sign = [1.0]

    def tick():
        # oscillating drift keeps the displacement from the snapshot bounded
        # well below the slack, so no timed iteration folds a rebuild in
        sign[0] = -sign[0]
        positions[:] = positions + drift * (sign[0] * 0.01)
        return detector.update(positions, ranges)

    pairs = benchmark(tick)
    assert detector.rebuilds == 1
    assert len(pairs) > 0


def test_bench_path_advance(benchmark):
    rng = np.random.default_rng(4)
    waypoints = rng.uniform(0, 1000, size=(20, 2))

    def advance_path():
        path = Path(waypoints, speed=10.0)
        while not path.done:
            path.advance(1.0)
        return path.position

    position = benchmark(advance_path)
    assert np.all(np.isfinite(position))


def test_bench_world_tick_1000_nodes(benchmark):
    """One full movement + connectivity phase of a 1 000-node world.

    This is the simulator's hot loop — move every node, re-detect pairs and
    diff the link set into up/down events — and the quantity the vectorized
    world core (PositionStore, stateful detectors, sorted-array diffing) is
    meant to speed up.  Routers are attached but idle: transfer progression
    and router ticks are benchmarked elsewhere.
    """
    simulator = Simulator(seed=7)
    world = World(simulator, update_interval=1.0)
    interface = Interface(transmit_range=40.0, transmit_speed=250_000)
    for node_id in range(WORLD_TICK_NODES):
        movement = RandomWaypointMovement(area=(3000.0, 2000.0), min_speed=2.0,
                                          max_speed=14.0, wait=(0.0, 10.0))
        node = DTNNode(node_id, movement,
                       simulator.random.python(f"n{node_id}"), interface=interface)
        DirectDeliveryRouter().attach(node, world)
        world.add_node(node)
    clock = {"now": 0.0}

    def tick():
        clock["now"] += 1.0
        now = clock["now"]
        world._move_nodes(1.0, now)
        world._refresh_connectivity(now)
        return len(world.connections)

    # settle the detector state before measuring steady-state ticks
    for _ in range(3):
        tick()
    links = benchmark(tick)
    assert links > 0


def test_bench_contact_history_recording(benchmark):
    def record():
        history = ContactHistory(owner_id=0, window_size=20)
        t = 0.0
        for step in range(2000):
            t += 7.0
            history.record_contact(1 + step % 50, t)
        return history.total_intervals()

    total = benchmark(record)
    assert total > 0
