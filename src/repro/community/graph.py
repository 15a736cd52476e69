"""Contact graphs for community detection.

Community detection works on an *aggregate contact graph*: nodes are DTN
nodes, edge weights summarise how strongly two nodes are connected over the
observation window (number of contacts or total contact duration).  Two
builders are provided: one from the nodes' own contact histories (local
view), which reduces over their array views
(:meth:`~repro.contacts.history.ContactHistory.interval_arrays` and
:meth:`~repro.contacts.history.ContactHistory.contact_count_arrays`) in a
handful of NumPy operations, and one from the collector's global contact
records (oracle view used by the examples and tests).

The per-edge spec of the history builder,
:func:`repro.testing.reference.contact_graph_from_history_reference`, must
produce the *identical* graph — same nodes, same edges, bit-identical
``weight``/``mean_interval`` attributes (the vectorized mean uses a
left-to-right ``cumsum``, matching the spec's sequential
:func:`~repro.core.expectation.left_sum` exactly).  The parity tests in
``tests/test_community_graph_vectorized.py`` pin this.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import networkx as nx
import numpy as np

from repro.contacts.history import ContactHistory
from repro.metrics.events import ContactRecord


def contact_edge_arrays(histories: Iterable[ContactHistory],
                        min_contacts: int = 1,
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray, np.ndarray]:
    """Vectorized edge aggregation over per-node contact histories.

    Consumes the zero-copy array views of every history (one
    :meth:`~repro.contacts.history.ContactHistory.interval_arrays` /
    :meth:`~repro.contacts.history.ContactHistory.contact_count_arrays` pair
    per node) and reduces them to canonical undirected edges in a handful of
    NumPy operations: per-row mean intervals via a chronological ``cumsum``
    (bit-identical to the reference's sequential ``left_sum``), endpoint
    canonicalisation by packing ``(lo, hi)`` pairs into int64 codes, and
    duplicate resolution (the two endpoints of an edge each report it) with
    ``np.maximum.at`` / ``np.fmin.at`` scatter reductions — the same
    max-weight / min-mean tie-break the per-edge spec applies.

    Returns
    -------
    (owners, lo, hi, weights, means)
        ``owners``: node ids of the histories (isolated nodes included);
        ``lo``/``hi``: canonical edge endpoints (``lo < hi``);
        ``weights``: contact counts per edge (int64);
        ``means``: mean recorded meeting interval per edge (NaN when no
        interval was recorded on either side).
    """
    owner_list = []
    peer_parts = []
    owner_parts = []
    count_parts = []
    mean_parts = []
    for history in histories:
        owner_list.append(history.owner_id)
        peer_ids, contact_counts = history.contact_count_arrays()
        if not len(peer_ids):
            continue
        _, intervals, interval_counts, _ = history.interval_arrays()
        # sequential left-to-right sums per row, matching left_sum(list)
        # bit for bit
        cums = np.cumsum(intervals, axis=1)
        has = interval_counts > 0
        sums = np.where(
            has, cums[np.arange(len(interval_counts)),
                      np.maximum(interval_counts, 1) - 1], 0.0)
        means = np.divide(sums, interval_counts,
                          out=np.full(len(interval_counts), np.nan),
                          where=has)
        keep = contact_counts >= min_contacts
        if not keep.all():
            peer_ids = peer_ids[keep]
            contact_counts = contact_counts[keep]
            means = means[keep]
        if not len(peer_ids):
            continue
        owner_parts.append(np.full(len(peer_ids), history.owner_id,
                                   dtype=np.int64))
        peer_parts.append(np.asarray(peer_ids, dtype=np.int64))
        count_parts.append(np.asarray(contact_counts, dtype=np.int64))
        mean_parts.append(means)
    owners = np.asarray(owner_list, dtype=np.int64)
    if not owner_parts:
        empty = np.empty(0, dtype=np.int64)
        return owners, empty, empty.copy(), empty.copy(), np.empty(0)
    a = np.concatenate(owner_parts)
    b = np.concatenate(peer_parts)
    counts = np.concatenate(count_parts)
    means = np.concatenate(mean_parts)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    codes = (lo << 32) | hi
    unique_codes, inverse = np.unique(codes, return_inverse=True)
    weights = np.zeros(len(unique_codes), dtype=np.int64)
    np.maximum.at(weights, inverse, counts)
    edge_means = np.full(len(unique_codes), np.nan)
    np.fmin.at(edge_means, inverse, means)  # fmin ignores NaN sides
    return (owners, (unique_codes >> 32).astype(np.int64),
            (unique_codes & 0xFFFFFFFF).astype(np.int64), weights, edge_means)


def graph_from_edge_arrays(owners: np.ndarray, lo: np.ndarray,
                           hi: np.ndarray, weights: np.ndarray,
                           means: np.ndarray) -> nx.Graph:
    """Materialise a :func:`contact_edge_arrays` result as a graph.

    The online pipeline aggregates to arrays every time it needs fresh edge
    state but only pays for this graph construction when a detection
    actually runs.
    """
    graph = nx.Graph()
    graph.add_nodes_from(int(owner) for owner in owners)
    for index in range(len(lo)):
        mean = float(means[index])
        graph.add_edge(int(lo[index]), int(hi[index]),
                       weight=int(weights[index]),
                       mean_interval=None if np.isnan(mean) else mean)
    return graph


def contact_graph_from_history(histories: Iterable[ContactHistory],
                               min_contacts: int = 1) -> nx.Graph:
    """Build an aggregate contact graph from per-node contact histories.

    Parameters
    ----------
    histories:
        One :class:`~repro.contacts.history.ContactHistory` per node.
    min_contacts:
        Minimum number of recorded contacts for an edge to appear.

    Returns
    -------
    networkx.Graph
        Undirected graph with ``weight`` = number of contacts and
        ``mean_interval`` = average recorded meeting interval (``None`` when
        fewer than two contacts were recorded).  Where the two endpoints'
        histories disagree (sliding windows trimmed differently) the larger
        count and the smaller mean win (see :func:`contact_edge_arrays`).
    """
    return graph_from_edge_arrays(*contact_edge_arrays(
        histories, min_contacts=min_contacts))


def graph_from_edge_weights(weights: Dict[Tuple[int, int], float],
                            nodes: Optional[Iterable[int]] = None) -> nx.Graph:
    """Build a weighted graph from a canonical ``(lo, hi) -> weight`` map.

    This is the :class:`~repro.community.online.OnlineCommunityTracker`'s
    flush path: the tracker accumulates edge weights incrementally and only
    materialises a graph when a detection actually runs.
    """
    graph = nx.Graph()
    if nodes is not None:
        graph.add_nodes_from(nodes)
    graph.add_weighted_edges_from(
        (a, b, weight) for (a, b), weight in weights.items())
    return graph


def aggregate_contact_graph(records: Iterable[ContactRecord],
                            num_nodes: Optional[int] = None,
                            use_duration: bool = False) -> nx.Graph:
    """Build an aggregate contact graph from the collector's contact records.

    Parameters
    ----------
    records:
        Closed contacts recorded by the statistics collector.
    num_nodes:
        If given, nodes ``0..num_nodes-1`` are added even when isolated.
    use_duration:
        Weight edges by total contact duration instead of contact count.
    """
    graph = nx.Graph()
    if num_nodes is not None:
        graph.add_nodes_from(range(num_nodes))
    weights: Dict[tuple, float] = {}
    for record in records:
        key = (record.node_a, record.node_b)
        amount = (record.duration or 0.0) if use_duration else 1.0
        weights[key] = weights.get(key, 0.0) + amount
    for (a, b), weight in weights.items():
        graph.add_edge(a, b, weight=weight)
    return graph
