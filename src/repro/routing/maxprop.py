"""MaxProp routing (Burgess, Gallagher, Jensen & Levine, INFOCOM 2006).

MaxProp floods like epidemic routing but orders transmissions and buffer
evictions by an estimated *path cost* to each message's destination, computed
from incrementally averaged meeting likelihoods, and propagates delivery
acknowledgements so delivered messages are flushed network-wide.

In the paper's comparison MaxProp attains the highest delivery ratio and
lowest latency but by far the lowest goodput, because the cost ordering does
not limit the number of replicas.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

import numpy as np

from repro.contacts.paths import shortest_path_lengths
from repro.core.expectation import left_sum
from repro.net.connection import Connection
from repro.net.message import Message
from repro.routing.active import ContactAwareRouter

if TYPE_CHECKING:  # pragma: no cover
    from repro.world.node import DTNNode


def _check_node_id(node_id: int, n: int) -> None:
    if not 0 <= node_id < n:
        raise RuntimeError(
            "node ids must be 0..n-1 for the MaxProp cost table; "
            f"node {node_id} with only {n} nodes registered")


class MaxPropRouter(ContactAwareRouter):
    """Cost-ordered epidemic routing with delivery acknowledgements.

    Parameters
    ----------
    hop_threshold:
        Messages with fewer hops than this are transmitted first (and evicted
        last), mirroring MaxProp's protection of "young" messages.

    Node ids must be ``0..n-1`` for the ``n`` nodes registered when the
    router first records a contact: the likelihood vectors it knows live in
    a dense ``(n, n)`` per-hop cost table, row ``u`` holding
    ``1 - P(u meets v)`` (``inf`` where ``u``'s vector has no entry, or no
    vector of ``u`` is known) with its timestamp in a length-``n`` stamp
    vector (``-inf`` for unknown rows).
    """

    name = "maxprop"

    def __init__(self, hop_threshold: int = 3, window_size: int = 20) -> None:
        super().__init__(window_size=window_size)
        if hop_threshold < 0:
            raise ValueError("hop_threshold must be non-negative")
        self.hop_threshold = int(hop_threshold)
        #: this node's incrementally averaged meeting likelihoods
        self._meet_probs: Dict[int, float] = {}
        #: per-hop costs of every known likelihood vector (row = vector
        #: owner) and each row's timestamp; allocated at the first contact
        self._costs: Optional[np.ndarray] = None
        self._stamps: Optional[np.ndarray] = None
        #: ids of messages known (via acks) to have been delivered
        self._acked: Set[str] = set()
        #: path costs to every node, valid until the cost table changes
        self._distances: Optional[np.ndarray] = None
        self._distances_revision: int = -1
        self._vector_revision: int = 0

    # ------------------------------------------------------------- likelihoods
    def meeting_probabilities(self) -> Dict[int, float]:
        """This node's normalised meeting-likelihood vector (copy)."""
        return dict(self._meet_probs)

    def _tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """The cost table and stamp vector, allocated on first use."""
        if self._costs is None:
            assert self.world is not None
            n = self.world.num_nodes
            _check_node_id(self.node_id, n)
            self._costs = np.full((n, n), np.inf)
            self._stamps = np.full(n, -np.inf)
        return self._costs, self._stamps

    def _update_meeting_probability(self, peer_id: int) -> None:
        # MaxProp's incremental averaging: bump the met node, renormalise.
        costs, stamps = self._tables()
        _check_node_id(peer_id, len(stamps))
        probs = self._meet_probs
        probs[peer_id] = probs.get(peer_id, 0.0) + 1.0
        total = left_sum(probs.values())
        for key in probs:
            probs[key] /= total
        count = len(probs)
        row = costs[self.node_id]
        row.fill(np.inf)
        row[np.fromiter(probs.keys(), dtype=np.intp, count=count)] = (
            1.0 - np.clip(np.fromiter(probs.values(), dtype=float,
                                      count=count), 0.0, 1.0))
        stamps[self.node_id] = self.now
        self._vector_revision += 1

    def _merge_vectors(self, other: "MaxPropRouter") -> int:
        """Copy every likelihood vector *other* knows more recently.  Returns rows copied."""
        if other._stamps is None:
            return 0
        costs, stamps = self._tables()
        newer = other._stamps > stamps
        newer[self.node_id] = False
        copied = int(np.count_nonzero(newer))
        if copied:
            stamps[newer] = other._stamps[newer]
            costs[newer] = other._costs[newer]
            self._vector_revision += 1
        return copied

    # ------------------------------------------------------------------- costs
    def path_cost(self, destination: int) -> float:
        """Estimated delivery cost to *destination* (lower is better).

        The shortest path over the known likelihood vectors with per-hop
        cost ``1 - P(meet)``; unreachable destinations, and ids outside
        ``0..n-1``, cost ``inf``.  One kernel run yields the cost to every
        destination, memoised until the cost table changes (it only changes
        at contacts), because the transmission ordering and buffer eviction
        query it on every tick.
        """
        destination = int(destination)
        if destination == self.node_id:
            return 0.0
        stamps = self._stamps
        if stamps is None or not 0 <= destination < len(stamps):
            return float("inf")
        if self._distances_revision != self._vector_revision:
            self._distances = shortest_path_lengths(self._costs, self.node_id)
            self._distances_revision = self._vector_revision
            self.stats.knowledge_kernel_run()
        return float(self._distances[destination])

    # ---------------------------------------------------------------- ack flush
    def _purge_acked(self) -> None:
        for message in self.buffer.messages():
            if message.message_id in self._acked:
                self.buffer.remove(message.message_id)
                self.stats.message_dropped(message, self.node_id, self.now, "delivered")

    def on_delivered(self, message: Message, from_node: "DTNNode") -> None:
        self._acked.add(message.message_id)

    def receive_message(self, message: Message, from_node: "DTNNode") -> bool:
        if message.message_id in self._acked and message.destination != self.node_id:
            return False
        return super().receive_message(message, from_node)

    # ----------------------------------------------------------------- contacts
    def on_contact_recorded(self, connection: Connection, peer: "DTNNode") -> None:
        self._update_meeting_probability(peer.node_id)
        peer_router = peer.router
        if isinstance(peer_router, MaxPropRouter) and self.is_exchange_initiator(peer):
            rows = self._merge_vectors(peer_router) + peer_router._merge_vectors(self)
            ack_rows = len(self._acked | peer_router._acked)
            merged_acks = self._acked | peer_router._acked
            self._acked |= merged_acks
            peer_router._acked |= merged_acks
            self.stats.control_exchange(rows=rows + 2, size_bytes=ack_rows)
            self._purge_acked()
            peer_router._purge_acked()

    # --------------------------------------------------------------- buffer mgmt
    def _store(self, message: Message, source: str) -> bool:
        # Make room by evicting the *worst* messages first: old (hop count at
        # or above the threshold) messages with the highest path cost.
        if message.size > self.buffer.capacity:
            self.stats.message_dropped(message, self.node_id, self.now, "buffer")
            return False
        while message.size > self.buffer.free_space:
            victim = self._eviction_candidate()
            if victim is None:
                self.stats.message_dropped(message, self.node_id, self.now, "buffer")
                return False
            self.buffer.remove(victim.message_id)
            self.stats.message_dropped(victim, self.node_id, self.now, "buffer")
        return super()._store(message, source)

    def _eviction_candidate(self) -> Message | None:
        buffered = self.buffer.messages()
        if not buffered:
            return None
        def rank(msg: Message) -> Tuple[int, float, float]:
            protected = 1 if msg.hop_count < self.hop_threshold else 0
            return (protected, -self.path_cost(msg.destination), msg.received_time)
        return min(buffered, key=rank)

    # ------------------------------------------------------------------- update
    def _transmission_order(self, messages: List[Message]) -> List[Message]:
        """MaxProp's send order: low-hop messages first, then by path cost."""
        young = sorted((m for m in messages if m.hop_count < self.hop_threshold),
                       key=lambda m: m.hop_count)
        old = sorted((m for m in messages if m.hop_count >= self.hop_threshold),
                     key=lambda m: self.path_cost(m.destination))
        return young + old

    def on_update(self, now: float) -> None:
        for connection in self.connections():
            self.send_deliverable(connection)
            peer = connection.other(self.node)
            considered = self.considered_on(connection)
            pending = [m for m in self.buffer.messages()
                       if m.destination != peer.node_id
                       and m.message_id not in considered]
            if not pending:
                continue
            for message in self._transmission_order(pending):
                considered.add(message.message_id)
                if message.message_id in self._acked:
                    continue
                if self.peer_has(connection, message.message_id):
                    continue
                self.send(connection, message, copies=1, forwarding=False)
