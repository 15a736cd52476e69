"""Building the expected-meeting-delay matrix (MD).

Section III-B.2 of the paper: when node :math:`u_i` needs to make a
single-replica forwarding decision it builds an ``n x n`` matrix ``MD`` whose
own row holds the elapsed-time-conditioned expected meeting delays
:math:`D_{ij}` (Theorem 2) and whose remaining entries are approximated by the
average meeting intervals :math:`I_{jk}` taken from the exchanged MI matrix.
The minimum expected meeting delay (MEMD, Theorem 3) is then the Dijkstra
shortest path over ``MD``.

The owner's row is produced by one call to
:func:`~repro.core.expectation.batch_expected_delays` over the whole
``(peers, window)`` interval matrix of the history's array views.  Its
per-peer spec, :func:`repro.testing.reference.build_delay_matrix_reference`,
fills the same row one :func:`~repro.core.expectation.expected_meeting_delay`
call at a time and must agree bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.contacts.mi_matrix import MeetingIntervalMatrix
from repro.core.expectation import OverduePolicy, batch_expected_delays


def build_delay_matrix(history, mi: MeetingIntervalMatrix,
                       now: float,
                       overdue_policy: OverduePolicy = OverduePolicy.REFRESH,
                       node_filter: Optional[np.ndarray] = None) -> np.ndarray:
    """Build node ``owner``'s MD matrix at time *now*.

    Parameters
    ----------
    history:
        The owner's contact history (provides Theorem 2 inputs for its row).
    mi:
        The owner's meeting-interval matrix (provides all other rows).
    now:
        Current simulation time.
    overdue_policy:
        How to handle peers whose elapsed time exceeds every recorded
        interval (see :class:`repro.core.expectation.OverduePolicy`).
    node_filter:
        Optional boolean mask of length ``n``; nodes outside the mask are
        disconnected (used for the CR protocol's *intra-community* MD, which
        is restricted to the destination community's members).

    Returns
    -------
    numpy.ndarray
        ``(n, n)`` matrix with ``inf`` for unknown links and 0 on the
        diagonal.
    """
    n = mi.num_nodes
    if history.owner_id != mi.owner_id:
        raise ValueError("history and MI matrix belong to different nodes")
    # Owner's row: Theorem 2 conditioned on the elapsed time since last
    # contact; peers without a prediction or beyond n stay unknown.
    own_row = np.full(n, np.inf)
    peer_ids, intervals, counts, last = history.interval_arrays()
    emd = batch_expected_delays(intervals, counts, np.maximum(0.0, now - last),
                                overdue_policy)
    usable = ~np.isnan(emd) & (peer_ids >= 0) & (peer_ids < n)
    own_row[peer_ids[usable]] = emd[usable]
    return _delay_matrix(mi, own_row, node_filter)


def _delay_matrix(mi: MeetingIntervalMatrix, own_row: np.ndarray,
                  node_filter: Optional[np.ndarray]) -> np.ndarray:
    """*mi*'s values with the owner's row replaced by *own_row*, the
    diagonal zeroed and *node_filter* applied (shared with the spec)."""
    n = mi.num_nodes
    md = mi.values.copy()
    md[mi.owner_id, :] = own_row
    np.fill_diagonal(md, 0.0)
    if node_filter is not None:
        mask = np.asarray(node_filter, dtype=bool)
        if mask.shape != (n,):
            raise ValueError("node_filter must have one entry per node")
        excluded = ~mask
        md[excluded, :] = np.inf
        md[:, excluded] = np.inf
        np.fill_diagonal(md, 0.0)
    return md
