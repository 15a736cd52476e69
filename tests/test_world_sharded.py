"""ShardedConnectivity: bit-identity with the reference detectors.

The sharded detector's whole value proposition is that its strip/halo
decomposition and cross-tick candidate cache are *invisible* in the result:
every ``update`` must return the same canonical ``(m, 2)`` array a
from-scratch detection would.  These tests pin that

* on hypothesis-generated position/range clouds driven through several ticks
  of random drift (exercising cache reuse *and* rebuilds),
* on adversarial geometries — nodes exactly on strip boundaries and exactly
  at halo edges,
* with the worker pool on and off, and
* end to end: a full catalog scenario run with sharded connectivity on the
  production world serialises byte-identically to the single-threaded k-d
  tree on the reference tick (per-follower movement included).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.builder import (
    SHARDED_MIN_NODES,
    build_detector,
    build_scenario,
)
from repro.experiments.catalog import make_scenario
from repro.experiments.runner import finalize_report
from repro.experiments.scenario import ScenarioConfig
from repro.testing import canonical_report_bytes, run_report
from repro.testing.reference import BruteForceConnectivity
from repro.world.connectivity import KDTreeConnectivity
from repro.world.sharded import ShardedConnectivity, default_worker_count


def reference_pairs(positions, ranges):
    return BruteForceConnectivity().update(
        np.asarray(positions, dtype=float), np.asarray(ranges, dtype=float))


def assert_matches_reference(detector, positions, ranges):
    positions = np.asarray(positions, dtype=float)
    ranges = np.asarray(ranges, dtype=float)
    got = detector.update(positions, ranges)
    expected = reference_pairs(positions, ranges)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected), (
        f"sharded diverged: got {got.tolist()}, expected {expected.tolist()}")


# ----------------------------------------------------------------- validation
def test_constructor_validation():
    with pytest.raises(ValueError):
        ShardedConnectivity(rebuild_margin=0.0)
    with pytest.raises(ValueError):
        ShardedConnectivity(rebuild_margin=-0.1)
    with pytest.raises(ValueError):
        ShardedConnectivity(workers=0)
    with pytest.raises(ValueError):
        ShardedConnectivity(shards_per_worker=0)
    assert ShardedConnectivity().workers == default_worker_count()
    assert ShardedConnectivity(workers=3).workers == 3



def test_scenario_config_validates_world_fields():
    with pytest.raises(ValueError):
        ScenarioConfig.bench_scale(num_nodes=1)
    with pytest.raises(ValueError):
        ScenarioConfig.bench_scale(update_interval=0.0)
    # the detector and its slack follow from the world size, so neither is
    # a scenario field any more
    for field, value in (("detector", "sharded"), ("rebuild_margin", 0.5)):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ScenarioConfig.bench_scale(**{field: value})
    # the slack rules live on the detectors: zero slack is legal for the
    # k-d tree (rebuild every tick) but rejected for sharded, where it
    # would defeat the candidate cache
    assert KDTreeConnectivity(rebuild_margin=0.0).rebuild_margin == 0.0
    with pytest.raises(ValueError):
        KDTreeConnectivity(rebuild_margin=-1.0)
    with pytest.raises(ValueError):
        ShardedConnectivity(rebuild_margin=0.0)

def test_degenerate_inputs_reset():
    detector = ShardedConnectivity()
    empty = detector.update(np.empty((0, 2)), np.empty(0))
    assert empty.shape == (0, 2)
    one = detector.update(np.array([[0.0, 0.0]]), np.array([5.0]))
    assert one.shape == (0, 2)
    zero_range = detector.update(np.zeros((3, 2)), np.zeros(3))
    assert zero_range.shape == (0, 2)
    detector.close()


# ------------------------------------------------------------------ hypothesis
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 60),
    workers=st.sampled_from([1, 2, 3]),
    margin=st.sampled_from([0.2, 0.5, 1.0]),
    mixed_ranges=st.booleans(),
)
def test_hypothesis_parity_under_drift(seed, n, workers, margin, mixed_ranges):
    """Random clouds drift through several ticks; every tick must match."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 500.0, size=(n, 2))
    if mixed_ranges:
        ranges = rng.uniform(5.0, 60.0, size=n)
    else:
        ranges = np.full(n, 40.0)
    detector = ShardedConnectivity(rebuild_margin=margin, workers=workers)
    try:
        for _ in range(6):
            assert_matches_reference(detector, positions, ranges)
            # drift below and occasionally above the slack margin
            positions = positions + rng.normal(
                0.0, margin * float(ranges.max()) / 2.0, size=(n, 2))
    finally:
        detector.close()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_hypothesis_strip_boundary_and_halo_edges(seed):
    """Nodes exactly on strip boundaries / halo edges must not be lost.

    The geometry is built from the detector's own parameters: with
    ``margin=0.5`` and ``max_range=10`` the candidate radius is 20, and two
    worker strips over a span of 80 put the boundary at x=40.  Nodes are
    placed exactly at the boundary, exactly one candidate radius past it
    (the halo edge), and just inside/outside of radio range across it.
    """
    rng = np.random.default_rng(seed)
    boundary = 40.0
    radius = 20.0  # max_range * (1 + 2 * margin)
    xs = [0.0, boundary - 5.0, boundary, boundary, boundary + 5.0,
          boundary + radius, boundary + radius, 80.0]
    ys = list(rng.uniform(0.0, 8.0, size=len(xs)))
    positions = np.column_stack((xs, ys))
    ranges = np.full(len(xs), 10.0)
    detector = ShardedConnectivity(rebuild_margin=0.5, workers=2,
                                   shards_per_worker=1)
    try:
        for _ in range(4):
            assert_matches_reference(detector, positions, ranges)
            positions = positions + rng.normal(0.0, 2.0,
                                               size=positions.shape)
    finally:
        detector.close()


def test_pairs_exactly_at_range_limit_are_included():
    # distance exactly equal to min(r_i, r_j): inclusive, like every detector
    positions = np.array([[0.0, 0.0], [10.0, 0.0], [30.0, 0.0]])
    ranges = np.array([10.0, 15.0, 20.0])
    detector = ShardedConnectivity(workers=1)
    got = detector.update(positions, ranges)
    assert got.tolist() == [[0, 1]]
    detector.close()


# -------------------------------------------------------------------- caching
def test_cache_reuse_and_rebuild_bookkeeping():
    rng = np.random.default_rng(7)
    positions = rng.uniform(0.0, 300.0, size=(80, 2))
    ranges = np.full(80, 25.0)
    detector = ShardedConnectivity(rebuild_margin=0.5, workers=1)
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
    detector.reset()
    assert_matches_reference(detector, jumped[:40], ranges[:40] * 2.0)
    detector.close()


def test_find_pairs_legacy_api():
    positions = [(0.0, 0.0), (5.0, 0.0), (100.0, 0.0)]
    ranges = [10.0, 10.0, 10.0]
    detector = ShardedConnectivity(workers=1)
    assert detector.find_pairs(positions, ranges) == {(0, 1)}
    detector.close()


# ----------------------------------------------------------- builder / config
def test_build_detector_resolves_every_choice():
    # the world size picks the detector: the k-d tree below the threshold,
    # the thread-pool sharded detector (workers autodetected) at or above it
    small = ScenarioConfig.bench_scale(num_nodes=SHARDED_MIN_NODES - 1)
    assert type(build_detector(small)) is KDTreeConnectivity
    sharded = build_detector(small.with_overrides(num_nodes=SHARDED_MIN_NODES))
    assert type(sharded) is ShardedConnectivity
    assert sharded.workers == default_worker_count()
    sharded.close()


def test_catalog_exposes_non_default_detectors():
    # the catalogued 10k- and 100k-node worlds get the sharded detector
    # from their size alone
    for name in ("rwp-10k", "rwp-10k-traffic", "rwp-100k"):
        detector = build_detector(make_scenario(name))
        assert type(detector) is ShardedConnectivity
        detector.close()
    assert type(build_detector(make_scenario("bench"))) is KDTreeConnectivity


def build_sharded(config):
    """*config* on the production world, its detector swapped for a
    two-worker sharded one (a world this small would get the k-d tree)."""
    built = build_scenario(config)
    built.world.detector = ShardedConnectivity(workers=2)
    return built


def test_world_stop_closes_sharded_pool():
    config = make_scenario("bench", {
        "mobility": "random_waypoint", "num_nodes": 10, "sim_time": 30.0})
    built = build_sharded(config)
    built.run()
    detector = built.world.detector
    # force pool creation even if the tiny run stayed single-strip
    detector._executor()
    built.world.stop()
    assert detector._pool is None


# ------------------------------------------------------- full-scenario pinning
def test_sharded_scenario_report_byte_identical_to_serial_reference():
    """Acceptance pin: sharded production world == serial reference."""
    config = make_scenario("bench", {
        "mobility": "random_waypoint", "protocol": "epidemic",
        "num_nodes": 50, "sim_time": 500.0, "name": "sharded-pin"})
    built = build_sharded(config)
    try:
        built.run()
    finally:
        built.world.stop()
    sharded = canonical_report_bytes(finalize_report(built.stats, config))
    serial = canonical_report_bytes(run_report(config, reference=True))
    assert serial == sharded
