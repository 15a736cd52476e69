"""Unit tests for Theorems 1, 2 and 4 (contact-expectation primitives).

The numeric cases are worked out by hand from the formulas in the paper's
appendix so they double as a check of the formulas' implementation.
"""

import numpy as np
import pytest

from repro.contacts.history import ContactHistory
from repro.core.expectation import (
    OverduePolicy,
    community_encounter_probability,
    conditional_encounter_probability,
    expected_encounter_value,
    expected_meeting_delay,
    expected_num_encountering_communities,
    left_sum,
)


# ------------------------------------------------------------------- Theorem 1
def test_conditional_probability_hand_computed():
    # R = {30, 60, 90, 120}, elapsed = 45 -> M = {60, 90, 120}, m = 3
    # horizon = 50 -> intervals <= 95: {60, 90} -> m_tau = 2 -> P = 2/3
    intervals = [30.0, 60.0, 90.0, 120.0]
    p = conditional_encounter_probability(intervals, elapsed=45.0, horizon=50.0)
    assert p == pytest.approx(2.0 / 3.0)


def test_conditional_probability_extremes():
    intervals = [10.0, 20.0, 30.0]
    # zero horizon -> no interval can end within it
    assert conditional_encounter_probability(intervals, 5.0, 0.0) == 0.0
    # huge horizon -> certain
    assert conditional_encounter_probability(intervals, 5.0, 1e6) == 1.0
    # no history -> 0
    assert conditional_encounter_probability([], 5.0, 100.0) == 0.0


def test_conditional_probability_overdue_policies():
    intervals = [10.0, 20.0, 30.0]
    elapsed = 100.0  # exceeds every recorded interval
    assert conditional_encounter_probability(
        intervals, elapsed, 15.0, OverduePolicy.OPTIMISTIC) == 1.0
    assert conditional_encounter_probability(
        intervals, elapsed, 15.0, OverduePolicy.PESSIMISTIC) == 0.0
    # REFRESH: fraction of the full window within the horizon: {10} of 3
    assert conditional_encounter_probability(
        intervals, elapsed, 15.0, OverduePolicy.REFRESH) == pytest.approx(1.0 / 3.0)


def test_conditional_probability_validation():
    with pytest.raises(ValueError):
        conditional_encounter_probability([10.0], -1.0, 10.0)
    with pytest.raises(ValueError):
        conditional_encounter_probability([10.0], 1.0, -10.0)


def make_history():
    """Node 0 with deterministic histories toward nodes 1, 2 and 3."""
    history = ContactHistory(owner_id=0)
    # node 1: met at 0, 100, 200, 300 -> intervals {100, 100, 100}, t0 = 300
    for t in (0.0, 100.0, 200.0, 300.0):
        history.record_contact(1, t)
    # node 2: met at 0, 400 -> intervals {400}, t0 = 400
    history.record_contact(2, 0.0)
    history.record_contact(2, 400.0)
    # node 3: met once at 350 -> no intervals yet
    history.record_contact(3, 350.0)
    return history


def test_expected_encounter_value_sums_per_peer_probabilities():
    history = make_history()
    # at t=400, horizon 80:
    #  node 1: elapsed 100 > all intervals -> REFRESH: 0 of {100,100,100} <= 80 -> 0
    #  node 2: elapsed 0, {400} <= 80? no -> 0
    #  node 3: no intervals -> 0
    assert expected_encounter_value(history, now=400.0, horizon=80.0) == 0.0
    # at t=450, horizon 60: node 1 overdue (elapsed 150) REFRESH -> 0;
    # node 2: elapsed 50, 400 <= 110? no -> 0
    assert expected_encounter_value(history, now=450.0, horizon=60.0) == 0.0
    # at t=350, horizon 100: node 1 elapsed 50 -> {100,100,100} <= 150 -> 1.0
    # node 2: elapsed -?? 350 > last 400? no: elapsed = max(0, 350-400) -> history
    # clamps to 0 ... but last contact is 400 > now, use now=420 instead below.
    value = expected_encounter_value(history, now=420.0, horizon=100.0)
    # node 1: elapsed 120 -> overdue -> REFRESH: intervals <= 100 -> 3/3 = 1
    # node 2: elapsed 20 -> {400} <= 120? no -> 0
    # node 3: no intervals -> 0
    assert value == pytest.approx(1.0)


def test_expected_encounter_value_peer_filter():
    history = make_history()
    value_all = expected_encounter_value(history, now=420.0, horizon=100.0)
    only_2 = np.zeros(4, dtype=bool)
    only_2[2] = True
    value_only_2 = expected_encounter_value(history, now=420.0, horizon=100.0,
                                            peer_filter=only_2)
    assert value_only_2 <= value_all
    assert value_only_2 == 0.0


def test_eev_grows_with_horizon():
    history = make_history()
    horizons = [0.0, 50.0, 150.0, 500.0]
    values = [expected_encounter_value(history, now=310.0, horizon=h) for h in horizons]
    assert values == sorted(values)
    assert values[-1] <= len(history.peers())


# ------------------------------------------------------------------- Theorem 2
def test_expected_meeting_delay_hand_computed():
    # M = {60, 90, 120} after conditioning on elapsed 45
    # EMD = mean(M) - elapsed = 90 - 45 = 45
    intervals = [30.0, 60.0, 90.0, 120.0]
    assert expected_meeting_delay(intervals, elapsed=45.0) == pytest.approx(45.0)


def test_expected_meeting_delay_decreases_as_time_passes():
    intervals = [100.0, 200.0, 300.0]
    delays = [expected_meeting_delay(intervals, e) for e in (0.0, 50.0, 90.0)]
    assert delays[0] > delays[1] > delays[2]


def test_expected_meeting_delay_periodic_example_from_paper():
    # the paper's motivating example: two nodes meet every dt; at t0 + dt/2
    # the expected delay should be dt/2, not dt
    dt = 100.0
    intervals = [dt] * 10
    assert expected_meeting_delay(intervals, elapsed=dt / 2) == pytest.approx(dt / 2)


def test_expected_meeting_delay_overdue_policies():
    intervals = [10.0, 20.0]
    assert expected_meeting_delay(intervals, 100.0, OverduePolicy.REFRESH) == 15.0
    assert expected_meeting_delay(intervals, 100.0, OverduePolicy.OPTIMISTIC) == 0.0
    assert expected_meeting_delay(intervals, 100.0, OverduePolicy.PESSIMISTIC) is None
    assert expected_meeting_delay([], 1.0) is None
    with pytest.raises(ValueError):
        expected_meeting_delay(intervals, -1.0)


# ------------------------------------------------------------- float sums
def test_left_sum_is_a_left_fold():
    # Python 3.12's builtin sum() compensates and returns 1.0 here; the
    # outcome-affecting sums must round after every addition on every
    # interpreter
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([]) == 0.0
    assert left_sum(iter([0.1] * 10)) == 0.9999999999999999


def test_estimators_and_history_mean_use_the_left_fold():
    # ten 0.1 intervals: the left fold gives 0.9999999999999999, a
    # compensated sum exactly 1.0
    assert expected_meeting_delay([0.1] * 10, 0.0) == 0.09999999999999999
    assert expected_meeting_delay([0.1] * 10, 1.0) == 0.09999999999999999
    history = ContactHistory(owner_id=0)
    times = [0.0, 1e16, 1e16 + 2.0, 2e16, 2e16 + 2.0]
    for now in times:
        history.record_contact(1, now)
    intervals = history.intervals(1)
    assert history.mean_interval(1) == left_sum(intervals) / len(intervals)


# ------------------------------------------------------------------- Theorem 4
def test_community_probability_one_minus_product():
    history = ContactHistory(owner_id=0)
    # two members, each met every 100 s, last contact at t=1000
    for member in (1, 2):
        for t in (800.0, 900.0, 1000.0):
            history.record_contact(member, t)
    # at t=1050 with horizon 60: per-member P = 1 (intervals 100 <= 110)
    p = community_encounter_probability(history, 1050.0, 60.0, members=[1, 2])
    assert p == pytest.approx(1.0)
    # with horizon 0, each P = 0
    assert community_encounter_probability(history, 1050.0, 0.0, [1, 2]) == 0.0


def test_community_probability_partial_members():
    history = ContactHistory(owner_id=0)
    for t in (0.0, 100.0, 200.0):
        history.record_contact(1, t)
    # member 2 never met: contributes nothing; owner excluded automatically
    p_single = community_encounter_probability(history, 250.0, 60.0, [1])
    p_with_unknown = community_encounter_probability(history, 250.0, 60.0, [0, 1, 2])
    assert p_single == pytest.approx(p_with_unknown)
    assert 0.0 <= p_single <= 1.0


def test_enec_excludes_own_community_and_sums_over_rest():
    history = ContactHistory(owner_id=0)
    for member, times in {1: (0.0, 100.0, 200.0), 3: (0.0, 150.0, 300.0)}.items():
        for t in times:
            history.record_contact(member, t)
    communities = {0: [0, 5], 1: [1, 2], 2: [3, 4]}
    enec = expected_num_encountering_communities(
        history, now=320.0, horizon=200.0, communities=communities, own_community=0)
    p1 = community_encounter_probability(history, 320.0, 200.0, [1, 2])
    p2 = community_encounter_probability(history, 320.0, 200.0, [3, 4])
    assert enec == pytest.approx(p1 + p2)
    assert 0.0 <= enec <= 2.0
    # including the own community raises the count
    enec_all = expected_num_encountering_communities(
        history, now=320.0, horizon=200.0, communities=communities, own_community=None)
    assert enec_all >= enec
