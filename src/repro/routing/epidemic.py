"""Epidemic routing (Vahdat & Becker, 2000).

Every message is replicated to every encountered node that does not already
hold it.  Maximal delivery ratio and minimal latency at the cost of the
highest possible overhead — the upper baseline of the paper's comparison
space (MaxProp behaves similarly with smarter scheduling).
"""

from __future__ import annotations

from repro.routing.base import Router


class EpidemicRouter(Router):
    """Flood every message to every encountered node."""

    name = "epidemic"

    #: stateless tier: with the empty-buffer early-out below, an empty
    #: update touches no per-contact state (the considered-set for a contact
    #: is only materialized once there are messages to flood), so
    #: awake-but-empty ticks batch away even on link-event ticks; a loaded
    #: update re-offers nothing already in a contact's considered-set, so
    #: the row sleeps on a live link until its buffer changes, a link event
    #: or a TTL wakes it (see Router.supports_batch_update)
    supports_batch_update = True
    batch_update_gated = False

    def on_update(self, now: float) -> None:
        if not len(self.buffer):
            # nothing buffered means nothing deliverable and nothing to
            # flood on any link; skip the per-connection scan (a
            # woken-but-empty router is the common case under the world's
            # routers sweep)
            return
        for connection in self.connections():
            self.send_deliverable(connection)
            peer = connection.other(self.node)
            considered = self.considered_on(connection)
            for message in self.buffer.messages():
                if message.destination == peer.node_id:
                    continue  # already handled by send_deliverable
                if message.message_id in considered:
                    continue
                considered.add(message.message_id)
                if self.peer_has(connection, message.message_id):
                    continue
                self.send(connection, message, copies=1, forwarding=False)
