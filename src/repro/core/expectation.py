"""Contact-expectation primitives (Theorems 1, 2 and 4 of the paper).

All three theorems share one empirical building block: given the sliding
window of recorded meeting intervals :math:`R_{ij}` with a peer and the
elapsed time since the last contact, the probability that the *next* meeting
falls within the coming horizon :math:`\\tau` is

.. math::

    P(\\Delta t^{ij} \\le t + \\tau - t^{ij}_0 \\mid \\Delta t^{ij} > t - t^{ij}_0)
        = \\frac{m^{\\tau}_{ij}}{m_{ij}},

where :math:`m_{ij}` counts recorded intervals longer than the elapsed time
and :math:`m^{\\tau}_{ij}` counts those that additionally end within the
horizon (Eq. 4 in the paper's appendix).

The paper leaves one empirical corner case undefined: when the elapsed time
since the last contact exceeds *every* recorded interval, :math:`m_{ij} = 0`
and the conditional probability is 0/0.  :class:`OverduePolicy` makes the
choice explicit; the default ``REFRESH`` treats the overdue meeting as a fresh
renewal drawn from the full window, which is the standard empirical-renewal
fallback and is what the reference experiments use.

The estimators that take a whole contact history
(:func:`expected_encounter_value`, :func:`community_encounter_probability`)
read it only through its array views
(:meth:`~repro.contacts.history.ContactHistory.interval_arrays`) and reduce
over the whole ``(peers, window)`` interval matrix in a few NumPy operations
(:func:`batch_encounter_probabilities`, :func:`batch_expected_delays`).  The
per-pair functions :func:`conditional_encounter_probability` and
:func:`expected_meeting_delay` state the theorems for one peer; the per-peer
loops over them in :mod:`repro.testing.reference` are the executable spec
the batch kernels are held to *bit for bit*: counts are integers, quotients
are single IEEE divisions, and every order-sensitive float sum is performed
left to right via ``cumsum`` over chronologically ordered rows (masked-out
entries contribute an exact ``+0.0``).  The parity property tests and the
benchmark checksums rely on this.
"""

from __future__ import annotations

import enum
import functools
import operator
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np


class OverduePolicy(enum.Enum):
    """What to assume when the elapsed time exceeds every recorded interval."""

    #: treat the next meeting as a fresh renewal drawn from the full window
    REFRESH = "refresh"
    #: assume the meeting is imminent (probability 1, zero expected delay)
    OPTIMISTIC = "optimistic"
    #: assume nothing can be said (probability 0, unknown expected delay)
    PESSIMISTIC = "pessimistic"


def left_sum(values: Iterable[float]) -> float:
    """``0.0 + v0 + v1 + ...``, rounded after every addition, left to right.

    Every float sum that feeds an outcome goes through this fold instead of
    the builtin ``sum()``: since Python 3.12 ``sum()`` compensates float
    rounding error, so its result (and every routing decision downstream)
    would depend on the interpreter version.  On 3.11 the builtin is
    exactly this fold.
    """
    return functools.reduce(operator.add, values, 0.0)


def _sequential_row_sum(values: np.ndarray) -> np.ndarray:
    """Left-to-right per-row sum of a ``(p, w)`` matrix.

    ``cumsum`` accumulates strictly sequentially, so the last column equals
    :func:`left_sum` of the same row — bit for bit — which keeps the batch
    kernels exactly equal to the per-peer spec.
    """
    if values.shape[1] == 0:
        return np.zeros(values.shape[0], dtype=float)
    return np.cumsum(values, axis=1)[:, -1]


# ------------------------------------------------------------- batch kernels
def batch_encounter_probabilities(intervals: np.ndarray, counts: np.ndarray,
                                  elapsed: np.ndarray, horizon: float,
                                  overdue_policy: OverduePolicy = OverduePolicy.REFRESH,
                                  ) -> np.ndarray:
    """Theorem 1 for every peer at once.

    Parameters
    ----------
    intervals:
        ``(p, w)`` chronological interval matrix (column ``>= counts[row]``
        entries are ignored).
    counts:
        ``(p,)`` number of valid intervals per row.
    elapsed:
        ``(p,)`` elapsed time since the last contact per peer
        (non-negative).
    horizon:
        Prediction horizon :math:`\\tau` (non-negative).
    overdue_policy:
        Fallback when no recorded interval exceeds the elapsed time.

    Returns
    -------
    numpy.ndarray
        ``(p,)`` conditional encounter probabilities in ``[0, 1]``; 0 for
        peers without any recorded interval.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    peers, window = intervals.shape
    if peers == 0:
        return np.zeros(0, dtype=float)
    valid = np.arange(window)[None, :] < counts[:, None]
    conditioned = valid & (intervals > elapsed[:, None])
    m = conditioned.sum(axis=1)
    within = (conditioned & (intervals <= (elapsed + horizon)[:, None])).sum(axis=1)
    # m == 0 implies within == 0, so those rows read an exact 0 / 1 = 0.0
    p = within / np.maximum(m, 1)
    overdue = (m == 0) & (counts > 0)
    if overdue.any():
        if overdue_policy is OverduePolicy.OPTIMISTIC:
            p[overdue] = 1.0
        elif overdue_policy is OverduePolicy.PESSIMISTIC:
            p[overdue] = 0.0
        else:  # REFRESH: renewal drawn from the full window
            refreshed = (valid & (intervals <= horizon)).sum(axis=1)
            safe_counts = np.maximum(counts, 1)
            p = np.where(overdue, refreshed / safe_counts, p)
    return p


def batch_expected_delays(intervals: np.ndarray, counts: np.ndarray,
                          elapsed: np.ndarray,
                          overdue_policy: OverduePolicy = OverduePolicy.REFRESH,
                          ) -> np.ndarray:
    """Theorem 2 for every peer at once.

    Same input conventions as :func:`batch_encounter_probabilities`.
    Returns a ``(p,)`` vector of expected meeting delays with ``nan`` where
    nothing can be predicted (no recorded intervals, or the pessimistic
    overdue policy applies) — the vector analogue of the scalar function
    returning ``None``.
    """
    peers, window = intervals.shape
    if peers == 0:
        return np.zeros(0, dtype=float)
    valid = np.arange(window)[None, :] < counts[:, None]
    conditioned = valid & (intervals > elapsed[:, None])
    m = conditioned.sum(axis=1)
    conditioned_sum = _sequential_row_sum(np.where(conditioned, intervals, 0.0))
    emd = np.where(m > 0, conditioned_sum / np.maximum(m, 1) - elapsed, np.nan)
    overdue = (m == 0) & (counts > 0)
    if overdue.any():
        if overdue_policy is OverduePolicy.OPTIMISTIC:
            emd[overdue] = 0.0
        elif overdue_policy is OverduePolicy.REFRESH:
            # the overdue meeting is a fresh renewal: plain window mean
            window_sum = _sequential_row_sum(np.where(valid, intervals, 0.0))
            means = window_sum / np.maximum(counts, 1)
            emd = np.where(overdue, means, emd)
        # PESSIMISTIC keeps nan
    emd[counts == 0] = np.nan
    return emd


def _elapsed_vector(last: np.ndarray, now: float) -> np.ndarray:
    # clamped at zero exactly like ContactHistory.elapsed_since
    return np.maximum(0.0, now - last)


# --------------------------------------------------------------------------- Theorem 1
def conditional_encounter_probability(intervals: Sequence[float], elapsed: float,
                                      horizon: float,
                                      overdue_policy: OverduePolicy = OverduePolicy.REFRESH,
                                      ) -> float:
    """Probability of meeting the peer within the next *horizon* seconds.

    Parameters
    ----------
    intervals:
        Recorded meeting intervals :math:`R_{ij}` (the sliding window).
    elapsed:
        Time since the last contact, :math:`t - t^{ij}_0` (non-negative).
    horizon:
        Prediction horizon :math:`\\tau` (non-negative).
    overdue_policy:
        Fallback when no recorded interval exceeds *elapsed*.

    Returns
    -------
    float
        :math:`m^{\\tau}_{ij} / m_{ij}` per Theorem 1, in ``[0, 1]``.
        0 when there is no usable history.
    """
    if elapsed < 0:
        raise ValueError(f"elapsed time must be non-negative, got {elapsed}")
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if not intervals:
        return 0.0
    conditioned = [dt for dt in intervals if dt > elapsed]
    if conditioned:
        within = sum(1 for dt in conditioned if dt <= elapsed + horizon)
        return within / len(conditioned)
    # overdue: every recorded interval is shorter than the elapsed time
    if overdue_policy is OverduePolicy.OPTIMISTIC:
        return 1.0
    if overdue_policy is OverduePolicy.PESSIMISTIC:
        return 0.0
    within = sum(1 for dt in intervals if dt <= horizon)
    return within / len(intervals)


def expected_encounter_value(history, now: float, horizon: float,
                             overdue_policy: OverduePolicy = OverduePolicy.REFRESH,
                             peer_filter: Optional[np.ndarray] = None,
                             ) -> float:
    """Theorem 1: the expected encounter value ``EEV_i(t, tau)``.

    The number of distinct peers the node expects to meet within
    ``(now, now + horizon]``, i.e. the sum of the per-peer conditional
    encounter probabilities.

    Parameters
    ----------
    history:
        The node's contact history; read through its
        :meth:`~repro.contacts.history.ContactHistory.interval_arrays`.
    now:
        Current time :math:`t`.
    horizon:
        Horizon :math:`\\tau`; the EER protocol uses
        :math:`\\alpha \\cdot TTL_k` of the message being routed.
    overdue_policy:
        See :class:`OverduePolicy`.
    peer_filter:
        Optional boolean mask indexed by node id restricting which peers
        count (the CR protocol's intra-community EEV' passes its
        same-community mask); peers beyond the mask do not count.
    """
    peer_ids, intervals, counts, last = history.interval_arrays()
    if peer_ids.size == 0:
        return 0.0
    elapsed = _elapsed_vector(last, now)
    p = batch_encounter_probabilities(intervals, counts, elapsed, horizon,
                                      overdue_policy)
    if peer_filter is not None:
        mask = np.zeros(len(peer_ids), dtype=bool)
        in_range = (peer_ids >= 0) & (peer_ids < len(peer_filter))
        mask[in_range] = peer_filter[peer_ids[in_range]]
        # excluded peers contribute an exact +0.0 to the sequential sum
        p = np.where(mask, p, 0.0)
    return float(np.cumsum(p)[-1])


# --------------------------------------------------------------------------- Theorem 2
def expected_meeting_delay(intervals: Sequence[float], elapsed: float,
                           overdue_policy: OverduePolicy = OverduePolicy.REFRESH,
                           ) -> Optional[float]:
    """Theorem 2: the expected meeting delay ``EMD_ij(t)``.

    The expected remaining time until the next meeting, conditioned on the
    elapsed time since the last contact:

    .. math:: EMD_{ij}(t) = \\frac{1}{m_{ij}} \\sum_{\\Delta t \\in M_{ij}} \\Delta t
              \\;-\\; (t - t^{ij}_0).

    Returns ``None`` when nothing can be predicted (no recorded intervals, or
    the pessimistic overdue policy applies).
    """
    if elapsed < 0:
        raise ValueError(f"elapsed time must be non-negative, got {elapsed}")
    if not intervals:
        return None
    conditioned = [dt for dt in intervals if dt > elapsed]
    if conditioned:
        return left_sum(conditioned) / len(conditioned) - elapsed
    if overdue_policy is OverduePolicy.OPTIMISTIC:
        return 0.0
    if overdue_policy is OverduePolicy.PESSIMISTIC:
        return None
    # REFRESH: the overdue meeting is treated as a fresh renewal, so the
    # expected residual wait is the plain mean interval.
    return left_sum(intervals) / len(intervals)


# --------------------------------------------------------------------------- Theorem 4
def _encounter_probabilities(history, now: float, horizon: float,
                             overdue_policy: OverduePolicy) -> np.ndarray:
    """Theorem 1 for every recorded peer, in the history's row order."""
    peer_ids, intervals, counts, last = history.interval_arrays()
    if peer_ids.size == 0:
        return np.zeros(0)
    return batch_encounter_probabilities(intervals, counts,
                                         _elapsed_vector(last, now), horizon,
                                         overdue_policy)


def _meet_any_probability(history, p: np.ndarray,
                          members: Iterable[int]) -> float:
    # gather the met members in the caller's member order so the sequential
    # product matches the per-member spec exactly
    slots = [slot for member in members
             if member != history.owner_id
             and (slot := history.slot_of(member)) is not None]
    if not slots:
        return 0.0
    miss = np.cumprod(1.0 - p[np.asarray(slots, dtype=np.intp)])[-1]
    return 1.0 - float(miss)


def community_encounter_probability(history, now: float, horizon: float,
                                    members: Iterable[int],
                                    overdue_policy: OverduePolicy = OverduePolicy.REFRESH,
                                    ) -> float:
    """Probability ``P_ic`` of meeting at least one member of a community.

    ``P_ic = 1 - prod_{u_j in C_c} (1 - P_ij)`` where :math:`P_{ij}` is the
    conditional encounter probability of Theorem 1.  Members the node has
    never met contribute probability 0.
    """
    p = _encounter_probabilities(history, now, horizon, overdue_policy)
    return _meet_any_probability(history, p, members)


def expected_num_encountering_communities(history, now: float,
                                          horizon: float,
                                          communities: Mapping[int, Iterable[int]],
                                          own_community: Optional[int],
                                          overdue_policy: OverduePolicy = OverduePolicy.REFRESH,
                                          ) -> float:
    """Theorem 4: the expected number of encountering communities ``ENEC_i(t, tau)``.

    Parameters
    ----------
    history:
        The node's contact history.
    now, horizon:
        As in :func:`expected_encounter_value`.
    communities:
        Mapping community id -> iterable of member node ids.
    own_community:
        The node's own community, which is excluded from the sum (the paper
        sums over :math:`k \\ne CID_{u_i}`).
    overdue_policy:
        See :class:`OverduePolicy`.

    The per-peer probabilities are computed once and shared by every
    community's :func:`community_encounter_probability` product.
    """
    p = _encounter_probabilities(history, now, horizon, overdue_policy)
    total = 0.0
    for community_id, members in communities.items():
        if own_community is not None and community_id == own_community:
            continue
        total += _meet_any_probability(history, p, members)
    return total
