"""Unit tests for the MD matrix builder and the MEMD Dijkstra solver."""

import numpy as np
import pytest

from repro.contacts.history import ContactHistory
from repro.contacts.md_matrix import build_delay_matrix
from repro.contacts.memd import (
    dijkstra_delays,
    minimum_expected_meeting_delay,
)
from repro.contacts.mi_matrix import MeetingIntervalMatrix
from repro.core.expectation import OverduePolicy
from repro.testing.reference import dijkstra_delays_reference


# --------------------------------------------------------------------- Dijkstra
def test_dijkstra_simple_chain():
    md = np.full((3, 3), np.inf)
    np.fill_diagonal(md, 0.0)
    md[0, 1] = 10.0
    md[1, 2] = 5.0
    delays = dijkstra_delays(md, source=0)
    assert delays[0] == 0.0
    assert delays[1] == 10.0
    assert delays[2] == 15.0


def test_dijkstra_prefers_cheaper_multi_hop_path():
    md = np.array([
        [0.0, 100.0, 10.0],
        [100.0, 0.0, 10.0],
        [10.0, 10.0, 0.0],
    ])
    delays = dijkstra_delays(md, source=0)
    assert delays[1] == 20.0  # via node 2, not the direct 100


def test_dijkstra_unreachable_is_inf():
    md = np.full((4, 4), np.inf)
    np.fill_diagonal(md, 0.0)
    md[0, 1] = 1.0
    delays = dijkstra_delays(md, source=0)
    assert delays[2] == np.inf and delays[3] == np.inf


def test_dijkstra_is_directed():
    md = np.full((2, 2), np.inf)
    np.fill_diagonal(md, 0.0)
    md[0, 1] = 7.0  # only 0 -> 1 known
    assert dijkstra_delays(md, 0)[1] == 7.0
    assert dijkstra_delays(md, 1)[0] == np.inf


def test_dijkstra_matches_reference_on_random_matrices():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        md = rng.uniform(1.0, 500.0, size=(n, n))
        mask = rng.random((n, n)) < 0.4
        md[mask] = np.inf
        np.fill_diagonal(md, 0.0)
        source = int(rng.integers(0, n))
        fast = dijkstra_delays(md, source)
        reference = dijkstra_delays_reference(md, source)
        assert np.allclose(fast, reference, equal_nan=False)


def test_dijkstra_validation():
    with pytest.raises(ValueError):
        dijkstra_delays(np.zeros((2, 3)), 0)
    with pytest.raises(IndexError):
        dijkstra_delays(np.zeros((2, 2)), 5)
    bad = np.zeros((2, 2))
    bad[0, 1] = -1.0
    with pytest.raises(ValueError):
        dijkstra_delays(bad, 0)


def test_memd_helper():
    md = np.full((3, 3), np.inf)
    np.fill_diagonal(md, 0.0)
    md[0, 1] = 4.0
    assert minimum_expected_meeting_delay(md, 0, 0) == 0.0
    assert minimum_expected_meeting_delay(md, 0, 1) == 4.0
    assert minimum_expected_meeting_delay(md, 0, 2) == np.inf


# ------------------------------------------------------------------- MD builder
def build_history_and_mi():
    history = ContactHistory(owner_id=0)
    # node 0 meets node 1 every 100 s, last at t=1000
    for t in (800.0, 900.0, 1000.0):
        history.record_contact(1, t)
    mi = MeetingIntervalMatrix(3, owner_id=0)
    mi.update_own_row({1: 100.0}, now=1000.0)
    # learned from node 1: node 1 meets node 2 every 50 s on average
    mi._values[1, 2] = 50.0
    mi._values[1, 0] = 100.0
    mi._row_updated[1] = 900.0
    return history, mi


def test_build_delay_matrix_uses_theorem2_for_own_row():
    history, mi = build_history_and_mi()
    # at t=1050, elapsed=50; conditioned window {100, 100} -> EMD = 100 - 50 = 50
    md = build_delay_matrix(history, mi, now=1050.0)
    assert md[0, 1] == pytest.approx(50.0)
    # other rows copied from the MI
    assert md[1, 2] == 50.0
    assert np.isinf(md[0, 2])
    assert (np.diag(md) == 0).all()
    # multi-hop MEMD 0 -> 2 goes through node 1
    assert minimum_expected_meeting_delay(md, 0, 2) == pytest.approx(100.0)


def test_build_delay_matrix_node_filter_restricts_graph():
    history, mi = build_history_and_mi()
    mask = np.array([True, False, True])
    md = build_delay_matrix(history, mi, now=1050.0, node_filter=mask)
    assert np.isinf(md[0, 1]) and np.isinf(md[1, 2])
    assert minimum_expected_meeting_delay(md, 0, 2) == np.inf


def test_build_delay_matrix_owner_mismatch_raises():
    history = ContactHistory(owner_id=1)
    mi = MeetingIntervalMatrix(3, owner_id=0)
    with pytest.raises(ValueError):
        build_delay_matrix(history, mi, now=0.0)


def test_build_delay_matrix_bad_filter_shape():
    history, mi = build_history_and_mi()
    with pytest.raises(ValueError):
        build_delay_matrix(history, mi, now=0.0, node_filter=np.array([True]))


def test_build_delay_matrix_pessimistic_overdue_leaves_unknown():
    history, mi = build_history_and_mi()
    # elapsed (500) exceeds every recorded interval (100)
    md = build_delay_matrix(history, mi, now=1500.0,
                            overdue_policy=OverduePolicy.PESSIMISTIC)
    assert np.isinf(md[0, 1])
    md_refresh = build_delay_matrix(history, mi, now=1500.0,
                                    overdue_policy=OverduePolicy.REFRESH)
    assert md_refresh[0, 1] == pytest.approx(100.0)
