"""Encounter-Based Routing (EBR; Nelson, Bakht & Kravets, INFOCOM 2009).

The direct predecessor of the paper's EER.  Each node tracks an *encounter
value* (EV): an exponentially weighted moving average of how many encounters
it had per fixed time window.  When two nodes meet, message replicas are split
proportionally to their EVs; once a single replica remains the node simply
waits for the destination (like Spray-and-Wait's wait phase).

The paper's criticism — and the motivation for EER — is that this EV is the
same for every message regardless of its residual TTL.
"""

from __future__ import annotations

from repro.core.replication import split_replicas
from repro.net.connection import Connection
from repro.routing.active import ContactAwareRouter

from typing import Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.world.node import DTNNode


class EBRRouter(ContactAwareRouter):
    """Quota splitting proportional to windowed encounter values.

    Parameters
    ----------
    ewma_alpha:
        Weight of the current window's encounter count in the EV update
        (the EBR paper uses 0.85).
    window:
        Window length in seconds.
    """

    name = "ebr"

    #: gated tier: the encounter values are read only behind the
    #: per-meeting gate, each right after a fold to the current time, and
    #: a fold skipped on a sleeping tick catches up exactly on the next
    #: call — the same window-by-window folds with the same counts, since
    #: a contact folds before it counts (see Router.supports_batch_update)
    supports_batch_update = True
    batch_update_gated = True

    def __init__(self, ewma_alpha: float = 0.85, window: float = 30.0,
                 window_size: int = 20) -> None:
        super().__init__(window_size=window_size)
        if not 0 < ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if window <= 0:
            raise ValueError("window must be positive")
        self.ewma_alpha = float(ewma_alpha)
        self.window = float(window)
        self._encounter_value = 0.0
        self._current_window_count = 0
        self._window_end = 0.0

    # --------------------------------------------------------------------- EV
    @property
    def encounter_value(self) -> float:
        """The encounter value as of now: every window that has ended is
        folded in, whether or not this router ran since (reading it changes
        nothing)."""
        if self.world is None:
            return self._encounter_value
        return self._folded(self.now)[0]

    def _folded(self, now: float) -> Tuple[float, int, float]:
        """``(encounter value, window count, window end)`` after folding
        every window that ended by *now*."""
        value = self._encounter_value
        count = self._current_window_count
        window_end = self._window_end
        if window_end == 0.0:
            window_end = self.window
        while now >= window_end:
            value = (self.ewma_alpha * count
                     + (1.0 - self.ewma_alpha) * value)
            count = 0
            window_end += self.window
        return value, count, window_end

    def _fold_windows(self, now: float) -> None:
        (self._encounter_value, self._current_window_count,
         self._window_end) = self._folded(now)

    # ----------------------------------------------------------------- contacts
    def on_contact_recorded(self, connection: Connection, peer: "DTNNode") -> None:
        self._fold_windows(self.now)
        self._current_window_count += 1
        if self.is_exchange_initiator(peer):
            # the two nodes exchange one EV scalar each
            self.stats.control_exchange(rows=2)

    # ------------------------------------------------------------------- update
    def on_update(self, now: float) -> None:
        self._fold_windows(now)
        for connection in self.connections():
            self.send_deliverable(connection)
            peer = connection.other(self.node)
            peer_router = peer.router
            if not isinstance(peer_router, EBRRouter):
                continue
            peer_router._fold_windows(now)
            if not self.is_first_evaluation(connection):
                continue
            for message in self.buffer.messages():
                if message.destination == peer.node_id:
                    continue
                if message.copies <= 1:
                    continue  # wait phase: hold the last replica for the destination
                if self.peer_has(connection, message.message_id):
                    continue
                if self.has_pending_transfer(message.message_id):
                    continue
                _, passed = split_replicas(message.copies, self._encounter_value,
                                           peer_router._encounter_value)
                if passed >= 1:
                    self.send(connection, message, copies=passed, forwarding=False)
