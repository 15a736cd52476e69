"""Direct delivery: the source holds the message until it meets the destination."""

from __future__ import annotations

from repro.routing.base import Router


class DirectDeliveryRouter(Router):
    """Never relay; deliver only on direct contact with the destination."""

    name = "direct"

    #: stateless tier: the empty-buffer early-out below touches no
    #: per-contact state, so an awake-but-empty tick batches away even on
    #: link-event ticks; a loaded update only re-sends deliverables, which
    #: stay queued to their destination until a completion removes them
    #: from the buffer, so the row sleeps on a live link until its buffer
    #: changes, a link event or a TTL wakes it (see
    #: Router.supports_batch_update)
    supports_batch_update = True
    batch_update_gated = False

    def on_update(self, now: float) -> None:
        if not len(self.buffer):
            # nothing buffered means nothing deliverable on any link; skip
            # the per-connection scan (a woken-but-empty router is the
            # common case under the world's routers sweep)
            return
        for connection in self.connections():
            self.send_deliverable(connection)
