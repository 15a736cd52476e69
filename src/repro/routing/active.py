"""Contact-history-aware router base.

Every prediction-based protocol in the paper's comparison (EER, CR, EBR,
PRoPHET, MaxProp, Spray-and-Focus) needs per-peer contact bookkeeping.
:class:`ContactAwareRouter` records a contact in the node's
:class:`~repro.contacts.history.ContactHistory` whenever a link comes up and
exposes it to subclasses.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.contacts.history import ContactHistory
from repro.net.connection import Connection
from repro.routing.base import Router

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.world.node import DTNNode


class ContactAwareRouter(Router):
    """A router that maintains a sliding-window contact history.

    Parameters
    ----------
    window_size:
        Number of meeting intervals kept per peer (the sliding window size of
        Section III-A.1).
    """

    name = "contact-aware"

    def __init__(self, window_size: int = 20) -> None:
        super().__init__()
        if window_size < 1:
            raise ValueError("window_size must be at least 1")
        self.window_size = int(window_size)
        self.history: Optional[ContactHistory] = None

    def on_attach(self) -> None:
        super().on_attach()
        self.history = ContactHistory(self.node_id, self.window_size)

    # ----------------------------------------------------------------- contacts
    def on_contact_up(self, connection: Connection, peer: "DTNNode") -> None:
        """Record the contact, then run the protocol hook."""
        assert self.history is not None
        self.history.record_contact(peer.node_id, self.now)
        self.on_contact_recorded(connection, peer)

    def on_contact_recorded(self, connection: Connection, peer: "DTNNode") -> None:
        """Hook invoked after the contact history has been updated."""

    # ------------------------------------------------------------------ helpers
    def is_exchange_initiator(self, peer: "DTNNode") -> bool:
        """Deterministically pick one endpoint of a contact as the initiator.

        The world notifies both routers of every link-up.  State exchanges
        (MI rows, delivery-predictability vectors, ...) are symmetric, so only
        one endpoint performs them — otherwise the exchange (and its overhead
        accounting) would run twice per contact.  The endpoint with the larger
        node id is chosen because the world notifies it second, so by the time
        it runs the exchange both endpoints have already folded the new
        contact into their own state.
        """
        return self.node_id > peer.node_id
