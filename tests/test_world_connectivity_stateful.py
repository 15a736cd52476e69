"""Stateful-detector and position-store coverage for the vectorized world core.

The detectors carry acceleration structures across ticks (the k-d tree
snapshot); these tests drive one detector *instance* through many ticks
of moving nodes and cross-check every tick against a fresh brute-force
detection, with non-uniform ranges and changing node counts.
"""

import numpy as np
import pytest

from repro.mobility.stationary import StationaryMovement
from repro.routing.direct import DirectDeliveryRouter
from repro.sim.engine import Simulator
from repro.testing.reference import BruteForceConnectivity
from repro.world.connectivity import KDTreeConnectivity
from repro.world.interface import Interface
from repro.world.node import DTNNode
from repro.world.positions import PositionStore
from repro.world.world import World

STATEFUL = [KDTreeConnectivity, BruteForceConnectivity]


def reference_pairs(positions, ranges):
    return BruteForceConnectivity().find_pairs(positions, ranges)


def as_set(pairs: np.ndarray):
    return {(int(i), int(j)) for i, j in pairs}


@pytest.mark.parametrize("detector_cls", STATEFUL, ids=lambda c: c.__name__)
def test_stateful_updates_track_moving_nodes(detector_cls):
    rng = np.random.default_rng(42)
    n = 80
    detector = detector_cls()
    positions = rng.uniform(0, 400, size=(n, 2))
    ranges = rng.uniform(10, 70, size=n)  # non-uniform per-node ranges
    for tick in range(40):
        # small random steps, with an occasional teleport burst to force the
        # k-d tree past its slack margin
        step = rng.normal(0, 2.0, size=(n, 2))
        if tick % 11 == 10:
            step[rng.integers(0, n, size=5)] += rng.uniform(-150, 150, size=(5, 2))
        positions += step
        result = detector.update(positions, ranges)
        assert result.dtype == np.int64 and result.ndim == 2 and result.shape[1] == 2
        assert as_set(result) == reference_pairs(positions, ranges)


@pytest.mark.parametrize("detector_cls", STATEFUL, ids=lambda c: c.__name__)
def test_update_result_is_canonically_sorted(detector_cls):
    rng = np.random.default_rng(9)
    positions = rng.uniform(0, 120, size=(50, 2))
    ranges = rng.uniform(15, 60, size=50)
    pairs = detector_cls().update(positions, ranges)
    assert len(pairs) > 0
    assert np.all(pairs[:, 0] < pairs[:, 1])
    codes = pairs[:, 0] * 1_000_000 + pairs[:, 1]
    assert np.all(np.diff(codes) > 0)  # strictly increasing = sorted, unique


@pytest.mark.parametrize("detector_cls", STATEFUL, ids=lambda c: c.__name__)
def test_stateful_detector_survives_node_count_changes(detector_cls):
    rng = np.random.default_rng(5)
    detector = detector_cls()
    for n in (30, 45, 12, 2, 1, 0, 60):
        positions = rng.uniform(0, 200, size=(n, 2))
        ranges = rng.uniform(10, 50, size=n)
        assert detector.find_pairs(positions, ranges) == \
            reference_pairs(positions, ranges)


@pytest.mark.parametrize("detector_cls", STATEFUL, ids=lambda c: c.__name__)
def test_stateful_detector_handles_growing_ranges(detector_cls):
    # cell size / query radius changes between ticks must resync state
    rng = np.random.default_rng(17)
    detector = detector_cls()
    positions = rng.uniform(0, 300, size=(40, 2))
    for scale in (10.0, 80.0, 25.0):
        ranges = rng.uniform(0.5 * scale, scale, size=40)
        assert detector.find_pairs(positions, ranges) == \
            reference_pairs(positions, ranges)


def test_kdtree_skips_rebuilds_for_small_displacements():
    rng = np.random.default_rng(3)
    detector = KDTreeConnectivity(rebuild_margin=0.25)
    positions = rng.uniform(0, 500, size=(100, 2))
    ranges = np.full(100, 40.0)
    ticks = 30
    for _ in range(ticks):
        positions += rng.normal(0, 0.3, size=(100, 2))  # well under the margin
        detector.update(positions, ranges)
    assert detector.rebuilds < ticks / 2  # most ticks reuse the tree
    # results stay exact even while reusing
    assert detector.find_pairs(positions, ranges) == reference_pairs(positions, ranges)


def test_kdtree_zero_margin_matches_seed_behaviour():
    rng = np.random.default_rng(3)
    detector = KDTreeConnectivity(rebuild_margin=0.0)
    positions = rng.uniform(0, 300, size=(50, 2))
    ranges = rng.uniform(10, 60, size=50)
    for _ in range(5):
        positions += rng.normal(0, 5.0, size=(50, 2))
        assert detector.find_pairs(positions, ranges) == \
            reference_pairs(positions, ranges)
    assert detector.rebuilds == 5


# ---------------------------------------------------------------- PositionStore
def test_position_store_add_row_and_view():
    store = PositionStore(capacity=2)
    assert len(store) == 0
    assert store.view().shape == (0, 2)
    i = store.add((1.0, 2.0))
    j = store.add((3.0, 4.0))
    assert (i, j) == (0, 1)
    assert np.allclose(store.view(), [[1.0, 2.0], [3.0, 4.0]])
    row = store.row(1)
    row[:] = (9.0, 9.0)  # row views write through to the matrix
    assert np.allclose(store.view()[1], (9.0, 9.0))


def test_position_store_grows_and_preserves_rows():
    store = PositionStore(capacity=2)
    for k in range(10):
        store.add((float(k), float(-k)))
    assert len(store) == 10
    assert store.capacity >= 10
    assert np.allclose(store.view()[:, 0], np.arange(10.0))
    with pytest.raises(IndexError):
        store.row(10)


def test_world_positions_is_live_zero_copy_view():
    simulator = Simulator(seed=1)
    world = World(simulator)
    # enough nodes to force the store to grow past its initial capacity
    for node_id in range(70):
        node = DTNNode(node_id, StationaryMovement((float(node_id), 0.0)),
                       simulator.random.python(f"n{node_id}"),
                       interface=Interface(transmit_range=0.4))
        DirectDeliveryRouter().attach(node, world)
        world.add_node(node)
    positions = world.positions()
    assert positions.shape == (70, 2)
    assert np.allclose(positions[:, 0], np.arange(70.0))
    # every node's position is a view into the same backing store, even after
    # growth re-allocated the array
    for index, node in enumerate(world.nodes):
        assert node.position.base is world._positions.data
        assert np.shares_memory(node.position, positions[index])
    # a teleport shows up in the world matrix without calling positions() again
    world.get_node(3).follower.teleport((123.0, 321.0))
    assert np.allclose(positions[3], (123.0, 321.0))
