"""Contact-graph aggregation: the vectorized builder vs its per-edge spec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.community.graph import (
    contact_edge_arrays,
    contact_graph_from_history,
    graph_from_edge_weights,
)
from repro.contacts.history import ContactHistory
from repro.testing.reference import (
    ContactHistoryReference,
    contact_graph_from_history_reference,
)


def _assert_graphs_identical(reference, vectorized):
    assert set(reference.nodes) == set(vectorized.nodes)
    assert set(map(frozenset, reference.edges)) \
        == set(map(frozenset, vectorized.edges))
    for u, v, data in reference.edges(data=True):
        other = vectorized[u][v]
        assert other["weight"] == data["weight"]
        if data["mean_interval"] is None:
            assert other["mean_interval"] is None
        else:
            # bit-identical, not approximately equal: the vectorized cumsum
            # must reproduce the spec's sequential sum exactly
            assert other["mean_interval"] == data["mean_interval"]


def _record_stream(contacts, num_nodes, window=4):
    histories = [ContactHistory(node, window) for node in range(num_nodes)]
    now = 0.0
    for a, b, step in contacts:
        a, b = a % num_nodes, b % num_nodes
        if a == b:
            continue
        now += step
        histories[a].record_contact(b, now)
        histories[b].record_contact(a, now)
    return histories


def test_simple_parity_and_min_contacts():
    histories = _record_stream(
        [(0, 1, 1.0), (0, 1, 2.5), (0, 2, 1.0), (1, 2, 3.0), (0, 1, 0.25)],
        num_nodes=4)
    for min_contacts in (1, 2, 3):
        reference = contact_graph_from_history_reference(histories,
                                                         min_contacts)
        vectorized = contact_graph_from_history(histories, min_contacts)
        _assert_graphs_identical(reference, vectorized)


def test_empty_histories():
    histories = [ContactHistory(n) for n in range(3)]
    vectorized = contact_graph_from_history(histories)
    assert set(vectorized.nodes) == {0, 1, 2}
    assert vectorized.number_of_edges() == 0
    owners, lo, hi, weights, means = contact_edge_arrays(histories)
    assert list(owners) == [0, 1, 2]
    assert len(lo) == len(hi) == len(weights) == len(means) == 0


def test_edge_arrays_shapes_and_weights():
    histories = _record_stream([(0, 1, 1.0)] * 7 + [(1, 2, 2.0)], num_nodes=3)
    owners, lo, hi, weights, means = contact_edge_arrays(histories)
    order = np.lexsort((hi, lo))
    assert [(int(lo[i]), int(hi[i]), int(weights[i])) for i in order] \
        == [(0, 1, 7), (1, 2, 1)]
    # 0-1 recorded 6 intervals into window 4; mean covers the last 4
    assert not np.isnan(means[order[0]])
    # 1-2 met once: no interval recorded on either side
    assert np.isnan(means[order[1]])


def test_one_sided_window_asymmetry_resolves_like_reference():
    # different window sizes trim the two endpoints' views differently;
    # the combiner must keep the larger count and the smaller mean
    h0 = ContactHistory(0, window_size=2)
    h1 = ContactHistory(1, window_size=8)
    for t in (1.0, 2.0, 10.0, 11.0, 30.0):
        h0.record_contact(1, t)
        h1.record_contact(0, t)
    _assert_graphs_identical(contact_graph_from_history_reference([h0, h1]),
                             contact_graph_from_history([h0, h1]))


@settings(max_examples=50, deadline=None)
@given(
    contacts=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9),
                  st.floats(min_value=0.25, max_value=100.0,
                            allow_nan=False, allow_infinity=False)),
        max_size=80),
    num_nodes=st.integers(min_value=2, max_value=10),
    window=st.integers(min_value=1, max_value=6),
    min_contacts=st.integers(min_value=1, max_value=3),
)
def test_property_parity(contacts, num_nodes, window, min_contacts):
    histories = _record_stream(contacts, num_nodes, window=window)
    _assert_graphs_identical(
        contact_graph_from_history_reference(histories, min_contacts),
        contact_graph_from_history(histories, min_contacts))


def test_vectorized_builder_accepts_reference_histories():
    # the builder reads either history implementation through its array
    # views: a CR router in the reference world feeds the same pipeline
    stream = [(0, 1, 1.0), (0, 1, 2.0), (1, 2, 3.0), (0, 2, 1.5), (0, 1, 4.0)]
    production = _record_stream(stream, num_nodes=3)
    reference = []
    now = 0.0
    for node in range(3):
        reference.append(ContactHistoryReference(node, 4))
    for a, b, step in stream:
        now += step
        reference[a].record_contact(b, now)
        reference[b].record_contact(a, now)
    _assert_graphs_identical(contact_graph_from_history(production),
                             contact_graph_from_history(reference))
    _assert_graphs_identical(contact_graph_from_history_reference(reference),
                             contact_graph_from_history(reference))
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(
        contact_edge_arrays(production), contact_edge_arrays(reference)))


def test_graph_from_edge_weights():
    graph = graph_from_edge_weights({(0, 1): 3.0, (1, 2): 1.0},
                                    nodes=range(4))
    assert set(graph.nodes) == {0, 1, 2, 3}
    assert graph[0][1]["weight"] == pytest.approx(3.0)
    assert graph.number_of_edges() == 2
