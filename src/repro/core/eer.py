"""The Expected Encounter based Routing protocol (EER, Algorithm 1).

EER is a quota-based, link-state protocol with two phases per message:

* **Multiple-replicas distribution** — while a node holds more than one
  replica of a message, it splits its quota with every encountered node in
  proportion to their expected encounter values ``EEV(t, alpha * TTL_k)``
  (Theorem 1), computed over the *residual* TTL of the message — this is the
  paper's key improvement over EBR's TTL-agnostic encounter value.
* **Single-replica forwarding** — the last replica is handed to an encounter
  whose minimum expected meeting delay (MEMD) to the destination is smaller.
  Each node derives its MEMD from its own MD matrix (Theorem 2 row +
  exchanged MI rows, Theorem 3 Dijkstra).

At every contact the two nodes refresh their contact histories, update their
own MI rows and exchange the MI rows that are fresher on one side than the
other (the paper's footnote 1); the number of exchanged rows is reported as
control overhead.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING


from repro.contacts.memd import MemdCache
from repro.contacts.mi_matrix import MeetingIntervalMatrix
from repro.core.expectation import OverduePolicy, expected_encounter_value
from repro.core.replication import split_replicas
from repro.net.connection import Connection
from repro.routing.active import ContactAwareRouter

if TYPE_CHECKING:  # pragma: no cover
    from repro.world.node import DTNNode


class EERRouter(ContactAwareRouter):
    """Expected Encounter based Routing.

    Parameters
    ----------
    alpha:
        The network parameter :math:`\\alpha \\in [0, 1]` scaling the residual
        TTL into the prediction horizon (the paper uses 0.28).
    window_size:
        Sliding-window size of the contact history.
    overdue_policy:
        Empirical fallback when the elapsed time since the last contact with a
        peer exceeds every recorded interval (see
        :class:`repro.core.expectation.OverduePolicy`).
    memd_refresh:
        Maximum staleness (seconds) of the cached MEMD vector before it is
        recomputed.  Meeting delays are on the order of hundreds of seconds,
        so a few seconds of staleness does not change forwarding decisions but
        avoids one shortest-path run per world tick.  Within that budget the
        vector is additionally keyed on the contact-history / MI-matrix
        versions (see :class:`~repro.contacts.memd.MemdCache`), so it is only
        recomputed when a recorded contact or an exchanged row actually
        changed the routing state.
    forward_margin:
        Relative improvement of the encounter's MEMD over ours required before
        the single replica is handed over (``theirs < (1 - margin) * mine``).
        The paper's Algorithm 1 uses a strict comparison (margin 0); the
        default damps hand-overs between nodes whose estimates differ by less
        than the estimation noise, which is needed because the synthetic bus
        scenario has a denser contact process than the paper's Helsinki map
        (see DESIGN.md).  The forwarding-damping ablation benchmark sweeps the
        margin, including the strictly faithful value 0.
    """

    name = "eer"

    def __init__(self, alpha: float = 0.28, window_size: int = 20,
                 overdue_policy: OverduePolicy = OverduePolicy.REFRESH,
                 memd_refresh: float = 5.0,
                 forward_margin: float = 0.35) -> None:
        super().__init__(window_size=window_size)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if not 0.0 <= forward_margin < 1.0:
            raise ValueError("forward_margin must be in [0, 1)")
        self.alpha = float(alpha)
        self.overdue_policy = overdue_policy
        self.forward_margin = float(forward_margin)
        self._mi: Optional[MeetingIntervalMatrix] = None
        # MEMD delay-vector cache: one shortest-path run yields the delays to
        # every destination; invalidated by version changes or staleness.
        self._memd = MemdCache(refresh=memd_refresh)

    @property
    def memd_refresh(self) -> float:
        """Maximum staleness (seconds) of the cached MEMD vector."""
        return self._memd.refresh

    # ----------------------------------------------------------------- MI state
    @property
    def mi(self) -> MeetingIntervalMatrix:
        """The node's meeting-interval matrix (created lazily once the world is populated)."""
        if self._mi is None:
            assert self.world is not None
            n = self.world.num_nodes
            if self.node_id >= n:
                raise RuntimeError(
                    "node ids must be 0..n-1 for the MI matrix; "
                    f"node {self.node_id} with only {n} nodes registered")
            self._mi = MeetingIntervalMatrix(n, self.node_id)
        return self._mi

    # ------------------------------------------------------------------ horizon
    def horizon_for(self, residual_ttl: float) -> float:
        """The EEV prediction horizon :math:`\\alpha \\cdot TTL_k`."""
        return self.alpha * max(0.0, residual_ttl)

    def expected_ev(self, now: float, horizon: float) -> float:
        """This node's ``EEV(t, tau)`` (Theorem 1)."""
        assert self.history is not None
        return expected_encounter_value(self.history, now, horizon,
                                        self.overdue_policy)

    # -------------------------------------------------------------------- MEMD
    def memd_to(self, destination: int) -> float:
        """Minimum expected meeting delay from this node to *destination*.

        Served from the per-source delay-vector cache: one shortest-path run over
        the MD matrix answers every destination until a recorded contact or
        an effective MI merge changes the routing state (or the vector goes
        stale, see ``memd_refresh``).
        """
        assert self.history is not None
        cache = self._memd
        computes = cache.computes
        delays = cache.delays(self.history, self.mi, self.now,
                              self.overdue_policy)
        self.stats.memd_lookup(cache.computes != computes)
        if not 0 <= destination < len(delays):
            return float("inf")
        return float(delays[destination])

    # ---------------------------------------------------------------- contacts
    def on_contact_recorded(self, connection: Connection, peer: "DTNNode") -> None:
        assert self.history is not None
        mean = self.history.mean_interval(peer.node_id)
        updates: Dict[int, float] = {}
        if mean is not None:
            updates[peer.node_id] = mean
        self.mi.update_own_row(updates, self.now)
        peer_router = peer.router
        if isinstance(peer_router, EERRouter) and self.is_exchange_initiator(peer):
            # mutual MI exchange (only rows with fresher update times travel);
            # the MI matrices bump their versions when copied rows actually
            # change, which is what invalidates the MEMD caches
            to_me = self.mi.merge_from(peer_router.mi)
            to_peer = peer_router.mi.merge_from(self.mi)
            row_bytes = 8 * self.mi.num_nodes  # one float per column
            self.stats.control_exchange(rows=to_me + to_peer,
                                        size_bytes=(to_me + to_peer) * row_bytes)

    # ------------------------------------------------------------------ update
    def on_update(self, now: float) -> None:
        # The paper's Algorithm 1 runs once per meeting: the buffer is
        # evaluated at the first tick after the link comes up; messages
        # created or received while the contact is still open wait for the
        # next meeting event.  Deliverable messages are sent every tick.
        for connection in self.connections():
            self.send_deliverable(connection)
            peer = connection.other(self.node)
            peer_router = peer.router
            if not isinstance(peer_router, EERRouter):
                continue
            if not self.is_first_evaluation(connection):
                continue
            for message in self.buffer.messages():
                if message.destination == peer.node_id:
                    continue
                if self.peer_has(connection, message.message_id):
                    continue
                if self.has_pending_transfer(message.message_id):
                    continue
                residual = message.residual_ttl(now)
                if residual <= 0:
                    continue
                horizon = self.horizon_for(residual)
                if message.copies > 1:
                    # multiple replicas distribution phase
                    mine = self.expected_ev(now, horizon)
                    theirs = peer_router.expected_ev(now, horizon)
                    _, passed = split_replicas(message.copies, mine, theirs)
                    if passed >= 1:
                        self.send(connection, message, copies=passed, forwarding=False)
                else:
                    # single replica forwarding phase
                    mine = self.memd_to(message.destination)
                    theirs = peer_router.memd_to(message.destination)
                    if theirs < (1.0 - self.forward_margin) * mine:
                        self.send(connection, message, copies=1, forwarding=True)
