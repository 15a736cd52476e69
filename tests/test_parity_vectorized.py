"""Property-based parity: vectorized hot path vs reference implementations.

The vectorized contact store, the batch estimator kernels and the cached MEMD
solver are required to agree *exactly* (bit for bit) with the pure-Python
reference implementations kept in-tree — that contract is what lets the
benchmark harness prove "same decisions, just faster" and what lets the
``BATCH_MIN_PEERS`` size dispatch pick either path freely.  These tests pin
it across randomized contact sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.expectation as expectation
from repro.contacts.history import ContactHistory
from repro.contacts.md_matrix import build_delay_matrix
from repro.contacts.memd import MemdCache, dijkstra_delays
from repro.contacts.mi_matrix import MeetingIntervalMatrix
from repro.core.expectation import (
    OverduePolicy,
    community_encounter_probability,
    expected_encounter_value,
)
from repro.testing.reference import (
    ContactHistoryReference,
    dijkstra_delays_reference,
)

policy_strategy = st.sampled_from(list(OverduePolicy))


@st.composite
def contact_sequence(draw):
    """A randomized multi-peer contact sequence (peer, time) in time order."""
    num_peers = draw(st.integers(1, 8))
    events = draw(st.lists(
        st.tuples(st.integers(1, num_peers),
                  st.floats(min_value=0.0, max_value=5000.0,
                            allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=60))
    events.sort(key=lambda item: item[1])
    window = draw(st.integers(1, 12))
    return window, events


def build_pair(window, events):
    fast = ContactHistory(owner_id=0, window_size=window)
    ref = ContactHistoryReference(owner_id=0, window_size=window)
    for peer, when in events:
        a = fast.record_contact(peer, when)
        b = ref.record_contact(peer, when)
        assert a == b
    return fast, ref


# ----------------------------------------------------------------- history
@given(contact_sequence())
@settings(max_examples=80)
def test_history_state_parity(sequence):
    window, events = sequence
    fast, ref = build_pair(window, events)
    assert fast.peers() == ref.peers()
    assert fast.total_intervals() == ref.total_intervals()
    assert fast.snapshot() == ref.snapshot()
    assert fast.version == ref.version
    for peer in ref.peers():
        assert fast.has_met(peer)
        assert fast.contact_count(peer) == ref.contact_count(peer)
        assert fast.intervals(peer) == ref.intervals(peer)
        assert fast.last_contact(peer) == ref.last_contact(peer)
        assert fast.elapsed_since(peer, 6000.0) == ref.elapsed_since(peer, 6000.0)
        # the MI-row mean must be bit-identical: sequential sums in both
        assert fast.mean_interval(peer) == ref.mean_interval(peer)


def test_history_grows_past_initial_capacity():
    fast = ContactHistory(owner_id=0, window_size=4)
    ref = ContactHistoryReference(owner_id=0, window_size=4)
    for step in range(300):
        peer = 1 + (step % 50)
        when = float(step)
        assert fast.record_contact(peer, when) == ref.record_contact(peer, when)
    assert fast.peers() == ref.peers()
    for peer in ref.peers():
        assert fast.intervals(peer) == ref.intervals(peer)


def test_history_validation_parity():
    for cls in (ContactHistory, ContactHistoryReference):
        history = cls(owner_id=3)
        with pytest.raises(ValueError):
            history.record_contact(3, 1.0)  # self-contact
        with pytest.raises(ValueError):
            history.record_contact(1, -1.0)  # negative time
        history.record_contact(1, 10.0)
        with pytest.raises(ValueError):
            history.record_contact(1, 5.0)  # time going backwards
        with pytest.raises(ValueError):
            cls(owner_id=0, window_size=0)


# ---------------------------------------------------------------- estimators
@given(contact_sequence(),
       st.floats(min_value=0.0, max_value=2000.0),
       st.floats(min_value=0.0, max_value=3000.0),
       policy_strategy)
@settings(max_examples=80)
def test_eev_batch_vs_reference_bit_exact(sequence, extra, horizon, policy,
                                          ):
    window, events = sequence
    fast, ref = build_pair(window, events)
    now = events[-1][1] + extra
    original = expectation.BATCH_MIN_PEERS
    try:
        expectation.BATCH_MIN_PEERS = 0  # force the batch kernel
        batch_value = expected_encounter_value(fast, now, horizon, policy)
    finally:
        expectation.BATCH_MIN_PEERS = original
    loop_value = expected_encounter_value(ref, now, horizon, policy)
    assert batch_value == loop_value


@given(contact_sequence(),
       st.floats(min_value=0.0, max_value=2000.0),
       st.floats(min_value=0.0, max_value=3000.0),
       policy_strategy)
@settings(max_examples=60)
def test_community_probability_batch_vs_reference_bit_exact(sequence, extra,
                                                            horizon, policy):
    window, events = sequence
    fast, ref = build_pair(window, events)
    now = events[-1][1] + extra
    members = [2, 4, 5, 9]  # mix of met, unmet and absent peers
    original = expectation.BATCH_MIN_PEERS
    try:
        expectation.BATCH_MIN_PEERS = 0
        batch_value = community_encounter_probability(fast, now, horizon,
                                                      members, policy)
    finally:
        expectation.BATCH_MIN_PEERS = original
    loop_value = community_encounter_probability(ref, now, horizon, members,
                                                 policy)
    assert batch_value == loop_value


@given(contact_sequence(),
       st.floats(min_value=0.0, max_value=2000.0),
       policy_strategy)
@settings(max_examples=60)
def test_md_own_row_batch_vs_reference_bit_exact(sequence, extra, policy):
    window, events = sequence
    fast, ref = build_pair(window, events)
    now = events[-1][1] + extra
    n = 10
    mi = MeetingIntervalMatrix(n, 0)
    original = expectation.BATCH_MIN_PEERS
    try:
        expectation.BATCH_MIN_PEERS = 0  # force the batch own-row branch
        md_fast = build_delay_matrix(fast, mi, now, policy)
    finally:
        expectation.BATCH_MIN_PEERS = original
    md_ref = build_delay_matrix(ref, mi, now, policy)
    assert np.array_equal(md_fast, md_ref)


@pytest.mark.parametrize("policy", list(OverduePolicy))
def test_md_own_row_parity_above_dispatch_threshold(policy):
    """A history big enough to take the batch branch without forcing it."""
    num_peers = 3 * expectation.BATCH_MIN_PEERS
    fast = ContactHistory(owner_id=0, window_size=6)
    ref = ContactHistoryReference(owner_id=0, window_size=6)
    rng = np.random.default_rng(11)
    clock = 0.0
    for _ in range(num_peers * 5):
        peer = int(rng.integers(1, num_peers + 1))
        clock += float(rng.integers(1, 40))
        fast.record_contact(peer, clock)
        ref.record_contact(peer, clock)
    # peers beyond n must be ignored by both paths
    n = num_peers // 2
    mi = MeetingIntervalMatrix(n, 0)
    md_fast = build_delay_matrix(fast, mi, clock + 17.0, policy)
    md_ref = build_delay_matrix(ref, mi, clock + 17.0, policy)
    assert np.array_equal(md_fast, md_ref)


# ---------------------------------------------------------------- MEMD cache
@given(contact_sequence(), st.floats(min_value=0.0, max_value=2000.0))
@settings(max_examples=40)
def test_cached_memd_matches_heap_reference(sequence, extra):
    """Cached delay vectors agree with a fresh heap Dijkstra at every state."""
    window, events = sequence
    fast, _ = build_pair(window, events)
    now = events[-1][1] + extra
    n = 10
    rng = np.random.default_rng(7)
    values = rng.integers(60, 900, size=(n, n)).astype(float)
    values[rng.random((n, n)) < 0.4] = np.inf
    mi = MeetingIntervalMatrix(n, 0)
    mi.load_state(values, np.zeros(n))
    cache = MemdCache(refresh=5.0)
    delays = cache.delays(fast, mi, now)
    md = build_delay_matrix(fast, mi, now)
    assert np.array_equal(delays, dijkstra_delays_reference(md, 0))
    # a served-from-cache query returns the same vector object
    assert cache.delays(fast, mi, now) is delays
    assert cache.hits >= 1
    # recording a contact invalidates; the recomputed vector still matches
    fast.record_contact(1, now + 1.0)
    fresh = cache.delays(fast, mi, now + 1.0)
    md2 = build_delay_matrix(fast, mi, now + 1.0)
    assert np.array_equal(fresh, dijkstra_delays_reference(md2, 0))


@given(st.integers(0, 6), st.integers(2, 30))
@settings(max_examples=40)
def test_dense_dijkstra_matches_heap_reference(seed, n):
    rng = np.random.default_rng(seed)
    md = rng.integers(1, 500, size=(n, n)).astype(float)
    md[rng.random((n, n)) < 0.45] = np.inf
    np.fill_diagonal(md, 0.0)
    source = int(rng.integers(0, n))
    assert np.array_equal(dijkstra_delays(md, source),
                          dijkstra_delays_reference(md, source))
    assert np.array_equal(dijkstra_delays(md, source, validate=False),
                          dijkstra_delays_reference(md, source))


def test_mi_version_bumps_only_on_effective_change():
    mi = MeetingIntervalMatrix(4, 0)
    v0 = mi.version
    mi.update_own_row({1: 100.0}, now=10.0)
    assert mi.version == v0 + 1
    # same value, fresher timestamp: no version bump
    mi.update_own_row({1: 100.0}, now=20.0)
    assert mi.version == v0 + 1
    other = MeetingIntervalMatrix(4, 1)
    other.update_own_row({2: 50.0}, now=30.0)
    merged = mi.merge_from(other)
    assert merged == 1
    v1 = mi.version
    # merging identical rows again copies nothing and keeps the version
    assert mi.merge_from(other) == 0
    assert mi.version == v1
