"""Stateful-detector and position-store coverage for the vectorized world core.

The detector carries a candidate pair set across ticks (built on a
position snapshot, reused while nodes drift less than the slack); these
tests drive one detector *instance* through many ticks of moving nodes and
cross-check every tick against a fresh brute-force detection, with
non-uniform ranges, changing node counts, pairs exactly at the range limit,
and ticks on both the reuse and the rebuild path.  End to end, a catalog
scenario reports the same bytes whichever detector finds its links.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.builder import build_scenario
from repro.experiments.catalog import make_scenario
from repro.experiments.runner import finalize_report
from repro.mobility.stationary import StationaryMovement
from repro.routing.direct import DirectDeliveryRouter
from repro.sim.engine import Simulator
from repro.testing import canonical_report_bytes, run_report
from repro.testing.reference import BruteForceConnectivity
from repro.world.connectivity import SLACK_FRACTION, KDTreeConnectivity
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


def assert_matches_reference(detector, positions, ranges):
    got = detector.update(positions, ranges)
    expected = BruteForceConnectivity().update(positions, ranges)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected), (
        f"detector diverged: got {got.tolist()}, expected {expected.tolist()}")
    return got


def test_kdtree_skips_rebuilds_for_small_displacements():
    rng = np.random.default_rng(3)
    detector = KDTreeConnectivity()
    positions = rng.uniform(0, 500, size=(100, 2))
    ranges = np.full(100, 40.0)
    ticks = 30
    for _ in range(ticks):
        positions += rng.normal(0, 0.3, size=(100, 2))  # well under the slack
        detector.update(positions, ranges)
    assert detector.rebuilds < ticks / 2  # most ticks reuse the candidates
    # results stay exact even while reusing
    assert detector.find_pairs(positions, ranges) == reference_pairs(positions, ranges)


def test_drift_past_the_slack_rebuilds_every_tick():
    rng = np.random.default_rng(3)
    detector = KDTreeConnectivity()
    positions = rng.uniform(0, 300, size=(50, 2))
    ranges = rng.uniform(10, 60, size=50)
    slack = SLACK_FRACTION * float(ranges.max())
    for _ in range(5):
        positions += rng.normal(0, 5.0, size=(50, 2))
        positions[7, 0] += 2.0 * slack  # one node leaves the slack each tick
        assert detector.find_pairs(positions, ranges) == \
            reference_pairs(positions, ranges)
    assert detector.rebuilds == 5


def test_cache_reuse_and_rebuild_bookkeeping():
    rng = np.random.default_rng(7)
    positions = rng.uniform(0.0, 300.0, size=(80, 2))
    ranges = np.full(80, 25.0)
    detector = KDTreeConnectivity()
    detector.update(positions, ranges)
    assert detector.rebuilds == 1
    # sub-slack drift: the candidate cache is reused
    drifted = positions + 0.1
    assert_matches_reference(detector, drifted, ranges)
    assert detector.rebuilds == 1
    # over-slack jump: rebuild, still exact
    jumped = positions + 100.0
    assert_matches_reference(detector, jumped, ranges)
    assert detector.rebuilds == 2
    # node-count change: resynchronise
    assert_matches_reference(detector, jumped[:40], ranges[:40])
    assert detector.rebuilds == 3
    # range change: resynchronise
    assert_matches_reference(detector, jumped[:40], ranges[:40] * 2.0)
    assert detector.rebuilds == 4
    # one node's range alone changes (the largest range stays): resynchronise
    changed = ranges[:40] * 2.0
    changed[5] = 1.0
    assert_matches_reference(detector, jumped[:40], changed)
    assert detector.rebuilds == 5
    detector.reset()
    assert_matches_reference(detector, jumped[:40], changed)
    assert detector.rebuilds == 6


def test_degenerate_inputs_reset():
    detector = KDTreeConnectivity()
    empty = detector.update(np.empty((0, 2)), np.empty(0))
    assert empty.shape == (0, 2)
    one = detector.update(np.array([[0.0, 0.0]]), np.array([5.0]))
    assert one.shape == (0, 2)
    zero_range = detector.update(np.zeros((3, 2)), np.zeros(3))
    assert zero_range.shape == (0, 2)
    assert detector.rebuilds == 0
    # a live cache is dropped by a degenerate tick, then rebuilt
    positions = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert_matches_reference(detector, positions, np.array([5.0, 5.0]))
    assert_matches_reference(detector, positions, np.zeros(2))
    assert_matches_reference(detector, positions, np.array([5.0, 5.0]))
    assert detector.rebuilds == 2


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 60),
    mixed_ranges=st.booleans(),
    pinned_ranges=st.tuples(st.integers(5, 60), st.integers(5, 60)),
    jumps=st.lists(st.booleans(), min_size=7, max_size=7).filter(
        lambda plan: any(plan) and not all(plan)),
)
def test_hypothesis_parity_under_drift(seed, n, mixed_ranges, pinned_ranges,
                                       jumps):
    """A drifting cloud matches brute force on every tick, reused or rebuilt.

    Nodes 0 and 1 sit exactly ``min(r_0, r_1)`` apart on every tick
    (integer coordinates and ranges keep the distance exact), so the
    inclusive range limit is checked on both paths.  ``jumps`` plans the
    ticks after the first: a jump moves the pinned pair two slacks (a
    rebuild), every other tick drifts each node a small step whose sum
    over the run stays inside the slack (a reuse).
    """
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 500.0, size=(n, 2))
    if mixed_ranges:
        ranges = rng.uniform(5.0, 60.0, size=n)
    else:
        ranges = np.full(n, 40.0)
    ranges[:2] = pinned_ranges
    limit = float(min(pinned_ranges))
    positions[0] = np.round(positions[0])
    positions[1] = positions[0] + (limit, 0.0)
    slack = SLACK_FRACTION * float(ranges.max())
    step_bound = slack / (4.0 * len(jumps))
    jump = float(math.ceil(2.0 * slack))
    detector = KDTreeConnectivity()
    assert [0, 1] in assert_matches_reference(detector, positions, ranges).tolist()
    for jumped in jumps:
        step = rng.uniform(-step_bound, step_bound, size=(n, 2))
        step[:2] = np.round(step[0])  # the pinned pair moves as one, exactly
        if jumped:
            step[:2, 0] += jump
        positions = positions + step
        pairs = assert_matches_reference(detector, positions, ranges)
        assert [0, 1] in pairs.tolist()
    # both paths were taken: one rebuild per jump after the first build
    assert detector.rebuilds == 1 + sum(jumps)


def test_scenario_report_is_the_brute_force_report():
    """A catalog run reports the same bytes when brute force finds its links."""
    config = make_scenario("bench", {
        "mobility": "random_waypoint", "protocol": "epidemic",
        "num_nodes": 50, "sim_time": 500.0, "name": "detector-pin"})
    built = build_scenario(config)
    built.world.detector = BruteForceConnectivity()
    try:
        built.run()
    finally:
        built.world.stop()
    brute = canonical_report_bytes(finalize_report(built.stats, config))
    assert brute == canonical_report_bytes(run_report(config))


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
