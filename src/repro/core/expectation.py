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

Two execution paths share these definitions.  When the history is the
vectorized :class:`~repro.contacts.history.ContactHistory`, the estimators
reduce over the whole ``(peers, window)`` interval matrix in a few NumPy
operations (:func:`batch_encounter_probabilities`,
:func:`batch_expected_delays`).  Any other history object (in particular
:class:`~repro.testing.reference.ContactHistoryReference`) falls back to the
original per-peer Python loops.  The batch kernels are *bit-exact* against
the loops: counts are integers, quotients are single IEEE divisions, and
every order-sensitive float sum is performed left to right via ``cumsum``
over chronologically ordered rows (masked-out entries contribute an exact
``+0.0``), so both paths produce identical routing decisions — the parity
property tests and the benchmark checksums rely on this.
"""

from __future__ import annotations

import enum
import functools
import operator
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

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
    kernels exactly interchangeable with the reference loops.
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
    safe_m = np.maximum(m, 1)
    p = np.where(m > 0, within / safe_m, 0.0)
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


#: below this many recorded peers the per-peer Python loop beats the batch
#: kernel's fixed NumPy call overhead (measured crossover ~13 peers); both
#: paths are bit-identical, so the dispatch never changes a result
BATCH_MIN_PEERS = 14


def _history_arrays(history, min_peers: Optional[int] = None):
    """Batch views of a vectorized history, or ``None`` to use the loop path.

    Returns ``None`` both for reference histories (no array accessor) and for
    vectorized histories too small for the kernel to pay off.  *min_peers*
    defaults to the module-level :data:`BATCH_MIN_PEERS` (read at call time,
    so tests can tune it).
    """
    accessor = getattr(history, "interval_arrays", None)
    if accessor is None:
        return None
    arrays = accessor()
    if len(arrays[0]) < (BATCH_MIN_PEERS if min_peers is None else min_peers):
        return None
    return arrays


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


#: a peer filter is either a predicate on the peer id or a boolean mask
#: indexed by node id (the CR protocol passes its community-membership mask)
PeerFilter = Union[Callable[[int], bool], np.ndarray]


def _filter_mask(peer_ids: np.ndarray, peer_filter: Optional[PeerFilter]) -> Optional[np.ndarray]:
    if peer_filter is None:
        return None
    if isinstance(peer_filter, np.ndarray):
        mask = np.zeros(len(peer_ids), dtype=bool)
        in_range = (peer_ids >= 0) & (peer_ids < len(peer_filter))
        mask[in_range] = peer_filter[peer_ids[in_range]]
        return mask
    return np.fromiter((bool(peer_filter(int(pid))) for pid in peer_ids),
                       dtype=bool, count=len(peer_ids))


def expected_encounter_value(history, now: float, horizon: float,
                             overdue_policy: OverduePolicy = OverduePolicy.REFRESH,
                             peer_filter: Optional[PeerFilter] = None,
                             ) -> float:
    """Theorem 1: the expected encounter value ``EEV_i(t, tau)``.

    The number of distinct peers the node expects to meet within
    ``(now, now + horizon]``, i.e. the sum of the per-peer conditional
    encounter probabilities.

    Parameters
    ----------
    history:
        The node's contact history (vectorized or reference).
    now:
        Current time :math:`t`.
    horizon:
        Horizon :math:`\\tau`; the EER protocol uses
        :math:`\\alpha \\cdot TTL_k` of the message being routed.
    overdue_policy:
        See :class:`OverduePolicy`.
    peer_filter:
        Optional restriction on which peers count: a predicate on the peer
        id, or a boolean mask indexed by node id (the CR protocol's
        intra-community EEV' passes its same-community mask).
    """
    arrays = _history_arrays(history)
    if arrays is None:
        return _expected_encounter_value_reference(
            history, now, horizon, overdue_policy, peer_filter)
    peer_ids, intervals, counts, last = arrays
    if peer_ids.size == 0:
        return 0.0
    elapsed = _elapsed_vector(last, now)
    p = batch_encounter_probabilities(intervals, counts, elapsed, horizon,
                                      overdue_policy)
    mask = _filter_mask(peer_ids, peer_filter)
    if mask is not None:
        # excluded peers contribute an exact +0.0 to the sequential sum
        p = np.where(mask, p, 0.0)
    return float(np.cumsum(p)[-1])


def _expected_encounter_value_reference(history, now, horizon, overdue_policy,
                                        peer_filter):
    total = 0.0
    is_mask = isinstance(peer_filter, np.ndarray)
    for peer in history.peers():
        if peer_filter is not None:
            if is_mask:
                if not (0 <= peer < len(peer_filter) and peer_filter[peer]):
                    continue
            elif not peer_filter(peer):
                continue
        elapsed = history.elapsed_since(peer, now)
        if elapsed is None:
            continue
        total += conditional_encounter_probability(
            history.intervals(peer), elapsed, horizon, overdue_policy)
    return total


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
def community_encounter_probability(history, now: float, horizon: float,
                                    members: Iterable[int],
                                    overdue_policy: OverduePolicy = OverduePolicy.REFRESH,
                                    ) -> float:
    """Probability ``P_ic`` of meeting at least one member of a community.

    ``P_ic = 1 - prod_{u_j in C_c} (1 - P_ij)`` where :math:`P_{ij}` is the
    conditional encounter probability of Theorem 1.  Members the node has
    never met contribute probability 0.
    """
    arrays = _history_arrays(history)
    if arrays is None:
        return _community_encounter_probability_reference(
            history, now, horizon, members, overdue_policy)
    peer_ids, intervals, counts, last = arrays
    if peer_ids.size == 0:
        return 0.0
    elapsed = _elapsed_vector(last, now)
    p = batch_encounter_probabilities(intervals, counts, elapsed, horizon,
                                      overdue_policy)
    # gather the met members in the caller's member order so the sequential
    # product matches the reference loop exactly
    slots = [slot for member in members
             if member != history.owner_id
             and (slot := history.slot_of(member)) is not None]
    if not slots:
        return 0.0
    miss = np.cumprod(1.0 - p[np.asarray(slots, dtype=np.intp)])[-1]
    return 1.0 - float(miss)


def _community_encounter_probability_reference(history, now, horizon, members,
                                               overdue_policy):
    miss = 1.0
    for member in members:
        if member == history.owner_id:
            continue
        elapsed = history.elapsed_since(member, now)
        if elapsed is None:
            continue
        p = conditional_encounter_probability(
            history.intervals(member), elapsed, horizon, overdue_policy)
        miss *= (1.0 - p)
        if miss == 0.0:
            break
    return 1.0 - miss


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
    """
    total = 0.0
    for community_id, members in communities.items():
        if own_community is not None and community_id == own_community:
            continue
        total += community_encounter_probability(
            history, now, horizon, members, overdue_policy)
    return total
