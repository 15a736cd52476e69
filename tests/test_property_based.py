"""Property-based tests (hypothesis) on the core invariants.

These cover the mathematical building blocks of the paper (Theorems 1, 2 and
4, the splitting rule, the MEMD Dijkstra) and the substrate data structures
whose invariants everything else relies on (buffers, paths, MI exchange).
"""


import numpy as np
from hypothesis import given, settings, strategies as st

from repro.contacts.history import ContactHistory
from repro.contacts.memd import dijkstra_delays
from repro.contacts.mi_matrix import MeetingIntervalMatrix
from repro.core.expectation import (
    OverduePolicy,
    community_encounter_probability,
    conditional_encounter_probability,
    expected_encounter_value,
    expected_meeting_delay,
    expected_num_encountering_communities,
)
from repro.core.replication import split_replicas
from repro.mobility.path import Path
from repro.net.buffer import BufferFullError, DropPolicy, MessageBuffer
from repro.net.message import Message
from repro.testing.reference import dijkstra_delays_reference


intervals_strategy = st.lists(
    st.floats(min_value=0.1, max_value=10_000.0, allow_nan=False), min_size=0, max_size=30)
elapsed_strategy = st.floats(min_value=0.0, max_value=20_000.0, allow_nan=False)
horizon_strategy = st.floats(min_value=0.0, max_value=20_000.0, allow_nan=False)
policy_strategy = st.sampled_from(list(OverduePolicy))


# ----------------------------------------------------------------- Theorem 1
@given(intervals_strategy, elapsed_strategy, horizon_strategy, policy_strategy)
def test_conditional_probability_is_a_probability(intervals, elapsed, horizon, policy):
    p = conditional_encounter_probability(intervals, elapsed, horizon, policy)
    assert 0.0 <= p <= 1.0


@given(intervals_strategy, elapsed_strategy, policy_strategy,
       st.floats(min_value=0.0, max_value=5000.0),
       st.floats(min_value=0.0, max_value=5000.0))
def test_conditional_probability_monotone_in_horizon(intervals, elapsed, policy, h1, h2):
    low, high = sorted((h1, h2))
    p_low = conditional_encounter_probability(intervals, elapsed, low, policy)
    p_high = conditional_encounter_probability(intervals, elapsed, high, policy)
    assert p_low <= p_high + 1e-12


@given(st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=20),
       st.floats(min_value=0.0, max_value=500.0))
def test_probability_one_when_horizon_covers_all_intervals(intervals, elapsed):
    horizon = max(intervals) + elapsed + 1.0
    p = conditional_encounter_probability(intervals, elapsed, horizon,
                                          OverduePolicy.REFRESH)
    assert p == 1.0


# ----------------------------------------------------------------- Theorem 2
@given(st.lists(st.floats(min_value=0.5, max_value=5000.0), min_size=1, max_size=30),
       elapsed_strategy)
def test_expected_meeting_delay_non_negative_and_bounded(intervals, elapsed):
    emd = expected_meeting_delay(intervals, elapsed, OverduePolicy.REFRESH)
    assert emd is not None
    assert emd >= -1e-9
    # the conditional expectation never exceeds the largest possible residual
    assert emd <= max(intervals) + 1e-9


# ----------------------------------------------------------------- Theorem 4 / EEV
@st.composite
def history_strategy(draw):
    history = ContactHistory(owner_id=0, window_size=draw(st.integers(2, 15)))
    num_peers = draw(st.integers(1, 6))
    for peer in range(1, num_peers + 1):
        times = draw(st.lists(st.floats(min_value=0.0, max_value=5000.0),
                              min_size=1, max_size=10))
        for t in sorted(times):
            try:
                history.record_contact(peer, t)
            except ValueError:
                pass
    return history


@given(history_strategy(), st.floats(min_value=5000.0, max_value=8000.0),
       horizon_strategy, policy_strategy)
@settings(max_examples=60)
def test_eev_bounded_by_number_of_peers(history, now, horizon, policy):
    value = expected_encounter_value(history, now, horizon, policy)
    assert 0.0 <= value <= len(history.peers()) + 1e-9


@given(history_strategy(), st.floats(min_value=5000.0, max_value=8000.0),
       horizon_strategy, policy_strategy, st.integers(2, 4))
@settings(max_examples=60)
def test_enec_bounded_by_number_of_other_communities(history, now, horizon, policy,
                                                     num_communities):
    peers = history.peers() or [1]
    communities = {c: [p for i, p in enumerate(peers) if i % num_communities == c]
                   for c in range(num_communities)}
    enec = expected_num_encountering_communities(
        history, now, horizon, communities, own_community=0, overdue_policy=policy)
    assert 0.0 <= enec <= num_communities - 1 + 1e-9
    for community, members in communities.items():
        p = community_encounter_probability(history, now, horizon, members, policy)
        assert 0.0 <= p <= 1.0


# ------------------------------------------------------------------ splitting
@given(st.integers(min_value=1, max_value=1000),
       st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       st.booleans())
def test_split_replicas_invariants(total, w_self, w_peer, keep_one):
    kept, passed = split_replicas(total, w_self, w_peer, keep_at_least_one=keep_one)
    assert kept + passed == total
    assert passed >= 0
    assert kept >= (1 if keep_one else 0)
    if w_self + w_peer > 0:
        exact_share = total * w_peer / (w_self + w_peer)
        assert passed <= exact_share + 1e-9 or passed == total - 1


# -------------------------------------------------------------------- Dijkstra
@st.composite
def delay_matrix_strategy(draw):
    n = draw(st.integers(2, 12))
    values = draw(st.lists(st.floats(min_value=0.1, max_value=1000.0),
                           min_size=n * n, max_size=n * n))
    md = np.array(values).reshape(n, n)
    mask = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    md[np.array(mask).reshape(n, n)] = np.inf
    np.fill_diagonal(md, 0.0)
    source = draw(st.integers(0, n - 1))
    return md, source


@given(delay_matrix_strategy())
@settings(max_examples=60)
def test_dijkstra_matches_reference_and_triangle_inequality(case):
    md, source = case
    fast = dijkstra_delays(md, source)
    slow = dijkstra_delays_reference(md, source)
    assert np.allclose(fast, slow)
    assert fast[source] == 0.0
    # shortest paths never exceed the direct edge
    for v in range(md.shape[0]):
        if np.isfinite(md[source, v]):
            assert fast[v] <= md[source, v] + 1e-6


# -------------------------------------------------------------------- buffers
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=400),
                          st.floats(min_value=0.0, max_value=100.0)),
                min_size=1, max_size=40),
       st.sampled_from([DropPolicy.OLDEST_RECEIVED, DropPolicy.SHORTEST_TTL,
                        DropPolicy.LARGEST]))
def test_buffer_occupancy_never_exceeds_capacity(items, policy):
    buffer = MessageBuffer(capacity=1000, drop_policy=policy)
    for index, (size, received) in enumerate(items):
        message = Message(f"M{index}", 0, 1, size, creation_time=0.0, ttl=1000.0)
        message.received_time = received
        try:
            buffer.add(message)
        except BufferFullError:
            pass
        assert 0 <= buffer.occupancy <= 1000
        assert buffer.occupancy == sum(m.size for m in buffer.messages())


# ----------------------------------------------------------------------- paths
@given(st.lists(st.tuples(st.floats(min_value=-1000, max_value=1000),
                          st.floats(min_value=-1000, max_value=1000)),
                min_size=1, max_size=8),
       st.floats(min_value=0.1, max_value=30.0),
       st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=20))
def test_path_advance_reaches_end_and_never_overshoots(waypoints, speed, steps):
    path = Path(waypoints, speed=speed)
    total_time = path.duration()
    elapsed = 0.0
    for dt in steps:
        position, leftover = path.advance(dt)
        elapsed += dt
        assert leftover <= dt + 1e-9
        assert np.all(np.isfinite(position))
    if elapsed >= total_time + 1e-6:
        assert path.done
        assert np.allclose(path.position, np.asarray(waypoints[-1], dtype=float),
                           atol=1e-6)


# -------------------------------------------------------------------- MI merge
@given(st.integers(2, 10), st.data())
@settings(max_examples=40)
def test_mi_merge_is_idempotent_and_keeps_freshest(n, data):
    a = MeetingIntervalMatrix(n, owner_id=0)
    b = MeetingIntervalMatrix(n, owner_id=1 % n)
    for matrix in (a, b):
        peers = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
        updates = {p: data.draw(st.floats(min_value=1.0, max_value=1000.0))
                   for p in peers if p != matrix.owner_id}
        if updates:
            matrix.update_own_row(updates, now=data.draw(
                st.floats(min_value=0.0, max_value=100.0)))
    a.merge_from(b)
    again = a.merge_from(b)
    assert again == 0  # merging the same matrix twice copies nothing new
    # after a mutual merge both know at least as much as before
    before_known = b.known_rows()
    b.merge_from(a)
    assert b.known_rows() >= before_known
