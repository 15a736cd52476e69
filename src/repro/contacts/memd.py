"""Minimum expected meeting delay (MEMD) over the MD matrix.

Theorem 3 of the paper: the shortest path over the expected-meeting-delay
matrix yields the minimum expected multi-hop meeting delay between the node
and any destination.  :func:`dijkstra_delays` validates its input and runs
the knowledge layer's shared shortest-path kernel,
:func:`repro.contacts.paths.shortest_path_lengths` (frontier min-plus
relaxation, bit-identical to any Dijkstra over the same matrix).
:class:`MemdCache` serves one delay vector per source until the routing
state changes.  The heap-based reference
(:func:`repro.testing.reference.dijkstra_delays_reference`) cross-checks the
kernel in the tests.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.contacts.paths import shortest_path_lengths


def _validate(md: np.ndarray, source: int) -> np.ndarray:
    md = np.asarray(md, dtype=float)
    if md.ndim != 2 or md.shape[0] != md.shape[1]:
        raise ValueError(f"md must be a square matrix, got shape {md.shape}")
    n = md.shape[0]
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range for n={n}")
    finite = md[np.isfinite(md)]
    if finite.size and finite.min() < 0:
        raise ValueError("expected meeting delays must be non-negative")
    return md


def dijkstra_delays(md: np.ndarray, source: int,
                    validate: bool = True) -> np.ndarray:
    """Shortest-path delays from *source* to every node over matrix *md*.

    Parameters
    ----------
    md:
        ``(n, n)`` matrix of non-negative expected one-hop delays with
        ``inf`` marking unknown links (the diagonal is ignored).
    source:
        Index of the starting node.
    validate:
        Skip the O(n²) input validation when the caller guarantees a valid
        matrix (the MEMD cache does: it builds the matrix itself).

    Returns
    -------
    numpy.ndarray
        Length-``n`` vector of minimum expected meeting delays;
        ``inf`` where the destination is unreachable through known contacts,
        0 at the source itself.
    """
    if validate:
        md = _validate(md, source)
    else:
        md = np.asarray(md, dtype=float)
    return shortest_path_lengths(md, source)


def minimum_expected_meeting_delay(md: np.ndarray, source: int, destination: int) -> float:
    """The MEMD from *source* to *destination* over matrix *md*."""
    md = _validate(md, source)
    n = md.shape[0]
    if not 0 <= destination < n:
        raise IndexError(f"destination {destination} out of range for n={n}")
    if source == destination:
        return 0.0
    return float(dijkstra_delays(md, source, validate=False)[destination])


class MemdCache:
    """Per-source MEMD delay-vector cache keyed on routing-state versions.

    One shortest-path run over the MD matrix yields the delays to *all*
    destinations (:func:`dijkstra_delays`), so the expensive part of every
    per-(source, destination) MEMD query is shared.  The cached vector stays
    valid while

    * the owner's :class:`~repro.contacts.history.ContactHistory` version is
      unchanged (no new contact has been recorded, so the Theorem 2 own row
      inputs are the same),
    * the :class:`~repro.contacts.mi_matrix.MeetingIntervalMatrix` version is
      unchanged (no exchanged row actually changed a stored value — merges
      that copy zero rows or identical rows do not invalidate), and
    * the cache is younger than *refresh* seconds.  The own MD row depends on
      the elapsed time since each last contact and therefore drifts with the
      clock even without new contacts; meeting delays are on the order of
      hundreds of seconds, so a few seconds of staleness never changes a
      forwarding decision but avoids a shortest-path run per tick.

    Parameters
    ----------
    refresh:
        Maximum staleness in seconds before the vector is recomputed even
        with unchanged versions.

    Attributes
    ----------
    computes, hits:
        Instrumentation counters (recomputations vs. served-from-cache),
        used by the regression tests and the benchmark harness.
    """

    __slots__ = ("refresh", "computes", "hits", "_delays", "_key", "_time")

    def __init__(self, refresh: float = 5.0) -> None:
        if refresh < 0:
            raise ValueError("refresh must be non-negative")
        self.refresh = float(refresh)
        self.computes = 0
        self.hits = 0
        self._delays: Optional[np.ndarray] = None
        self._key: Optional[Tuple[int, int]] = None
        self._time = -np.inf

    def invalidate(self) -> None:
        """Drop the cached vector (next query recomputes)."""
        self._delays = None
        self._key = None
        self._time = -np.inf

    def delays(self, history, mi, now: float,
               overdue_policy=None,
               node_filter: Optional[np.ndarray] = None) -> np.ndarray:
        """The MEMD vector from ``mi.owner_id`` to every node at time *now*.

        Parameters
        ----------
        history, mi:
            The owner's contact history and meeting-interval matrix.
        now:
            Current simulation time.
        overdue_policy:
            Passed through to
            :func:`~repro.contacts.md_matrix.build_delay_matrix`.
        node_filter:
            Optional boolean membership mask (CR's intra-community MD).
            Assumed stable for the lifetime of this cache — callers with a
            changing mask must :meth:`invalidate` on change.
        """
        from repro.contacts.md_matrix import build_delay_matrix

        key = (history.version, mi.version)
        if (self._delays is None or key != self._key
                or now - self._time > self.refresh):
            kwargs = {} if overdue_policy is None else {
                "overdue_policy": overdue_policy}
            md = build_delay_matrix(history, mi, now, node_filter=node_filter,
                                    **kwargs)
            # the matrix was built here from validated inputs: skip the
            # O(n^2) re-validation on every recompute
            self._delays = dijkstra_delays(md, mi.owner_id, validate=False)
            self._key = key
            self._time = now
            self.computes += 1
        else:
            self.hits += 1
        return self._delays
