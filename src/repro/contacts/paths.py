"""The knowledge layer's one shortest-path kernel.

Two routers rank by a single-source shortest path over a small dense cost
matrix: EER/CR's minimum expected meeting delay (Theorem 3, over the MD
matrix, :mod:`repro.contacts.memd`) and MaxProp's path cost (over ``1 -
P(meet)``, :mod:`repro.routing.maxprop`).  Both run
:func:`shortest_path_lengths`.  Its naive executable specification is the
heap-based :func:`repro.testing.reference.dijkstra_delays_reference`.

The kernel is frontier min-plus relaxation: Bellman-Ford that relaxes only
the vertices whose distance improved in the previous round.  Each round is
one gather of the frontier's rows and one column-wise ``fmin`` reduction,
so the number of NumPy calls grows with the hop depth of the shortest-path
tree (a handful of rounds on contact graphs), not with ``n`` as in a dense
Dijkstra that settles one vertex per iteration.

``scipy.sparse.csgraph.dijkstra`` is not used: building its CSR input costs
more than the whole kernel at these sizes (40–120 nodes), and it drops
explicit zero-weight edges from dense input, which MaxProp produces for a
peer met with likelihood 1.
"""

from __future__ import annotations

import numpy as np


def shortest_path_lengths(weights: np.ndarray, source: int) -> np.ndarray:
    """Single-source shortest-path lengths over a dense weight matrix.

    Parameters
    ----------
    weights:
        ``(n, n)`` float matrix; ``weights[u, v]`` is the cost of the edge
        ``u -> v``.  Entries must be non-negative, ``inf`` (no edge) or NaN
        (treated as no edge).  The diagonal may hold any such value.
    source:
        Index of the start vertex, ``0 <= source < n``.  Not validated:
        callers own their inputs.

    Returns
    -------
    numpy.ndarray
        Length-``n`` distances: 0 at *source*, ``inf`` where unreachable.

    Notes
    -----
    The result is bit-identical to every Dijkstra over the same matrix, the
    heap reference included.  Floating-point addition is monotone
    (``a <= b`` implies ``fl(a + w) <= fl(b + w)``), and for ``w >= 0``
    ``fl(d + w) >= d``.  Let ``D(v)`` be the minimum, over all paths from
    *source* to ``v``, of the path's weights added left to right with
    rounding after every addition.  Monotonicity gives the Bellman equation
    ``D(v) = min_u fl(D(u) + w[u, v])`` exactly in floating point, and
    ``fl(d + w) >= d`` lets cycles and settle order change nothing.  A
    label-setting algorithm (Dijkstra) and a label-correcting one (this
    kernel) therefore both stop at ``D``: every label is always such a
    rounded path sum, so never below ``D``, and at the fixed point no edge
    can lower a label, so no label stays above ``D``.  Ties are harmless
    because only the minimum value is kept, never a predecessor.
    """
    # the first round relaxes the source's row: fl(0 + w), NaN as no edge
    dist = np.fmin(weights[source] + 0.0, np.inf)
    dist[source] = 0.0
    frontier = np.flatnonzero(dist < np.inf)
    while frontier.size:
        candidates = np.fmin.reduce(weights[frontier] + dist[frontier, None],
                                    axis=0)
        frontier = np.flatnonzero(candidates < dist)
        dist[frontier] = candidates[frontier]
    dist[source] = 0.0
    return dist
