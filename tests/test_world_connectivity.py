"""Unit tests for connectivity detection: the production detector and its
brute-force specification on fixed layouts (the multi-tick behaviour is in
``test_world_connectivity_stateful.py``)."""

import numpy as np
import pytest

from repro.testing.reference import BruteForceConnectivity
from repro.world.connectivity import KDTreeConnectivity

DETECTORS = [BruteForceConnectivity(), KDTreeConnectivity()]


@pytest.mark.parametrize("detector", DETECTORS, ids=lambda d: type(d).__name__)
def test_simple_pairs(detector):
    positions = np.array([[0.0, 0.0], [5.0, 0.0], [100.0, 0.0]])
    ranges = np.array([10.0, 10.0, 10.0])
    assert detector.find_pairs(positions, ranges) == {(0, 1)}


@pytest.mark.parametrize("detector", DETECTORS, ids=lambda d: type(d).__name__)
def test_boundary_distance_is_in_range(detector):
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    ranges = np.array([10.0, 10.0])
    assert detector.find_pairs(positions, ranges) == {(0, 1)}


@pytest.mark.parametrize("detector", DETECTORS, ids=lambda d: type(d).__name__)
def test_pairs_exactly_at_range_limit_are_included(detector):
    # distance exactly equal to min(r_i, r_j): inclusive, like every detector
    positions = np.array([[0.0, 0.0], [10.0, 0.0], [30.0, 0.0]])
    ranges = np.array([10.0, 15.0, 20.0])
    assert detector.update(positions, ranges).tolist() == [[0, 1]]


@pytest.mark.parametrize("detector", DETECTORS, ids=lambda d: type(d).__name__)
def test_asymmetric_ranges_use_minimum(detector):
    positions = np.array([[0.0, 0.0], [15.0, 0.0]])
    ranges = np.array([100.0, 10.0])
    assert detector.find_pairs(positions, ranges) == set()
    ranges = np.array([100.0, 20.0])
    assert detector.find_pairs(positions, ranges) == {(0, 1)}


@pytest.mark.parametrize("detector", DETECTORS, ids=lambda d: type(d).__name__)
def test_empty_and_single_node(detector):
    assert detector.find_pairs(np.empty((0, 2)), np.empty(0)) == set()
    assert detector.find_pairs(np.array([[1.0, 1.0]]), np.array([10.0])) == set()


@pytest.mark.parametrize("detector", [KDTreeConnectivity()],
                         ids=lambda d: type(d).__name__)
def test_matches_brute_force_on_random_layouts(detector):
    rng = np.random.default_rng(12)
    reference = BruteForceConnectivity()
    for _ in range(10):
        n = int(rng.integers(2, 60))
        positions = rng.uniform(0, 500, size=(n, 2))
        ranges = np.full(n, float(rng.uniform(10, 80)))
        assert detector.find_pairs(positions, ranges) == \
            reference.find_pairs(positions, ranges)


@pytest.mark.parametrize("detector", [KDTreeConnectivity()],
                         ids=lambda d: type(d).__name__)
def test_matches_brute_force_with_heterogeneous_ranges(detector):
    rng = np.random.default_rng(3)
    reference = BruteForceConnectivity()
    positions = rng.uniform(0, 300, size=(40, 2))
    ranges = rng.uniform(5, 60, size=40)
    assert detector.find_pairs(positions, ranges) == \
        reference.find_pairs(positions, ranges)


@pytest.mark.parametrize("detector", DETECTORS, ids=lambda d: type(d).__name__)
def test_dense_cluster_all_pairs_found(detector):
    positions = np.zeros((6, 2)) + np.arange(6)[:, None] * 0.5
    ranges = np.full(6, 10.0)
    pairs = detector.find_pairs(positions, ranges)
    assert len(pairs) == 15  # all 6 choose 2
