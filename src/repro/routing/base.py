"""Router base class.

A :class:`Router` instance is attached to exactly one node.  The world calls
four entry points on it:

* :meth:`create_message` — a new application message originates here,
* :meth:`batch_changed_connections` / :meth:`changed_connection` — links
  to peers came up or went down (only for routers that listen, see
  :attr:`Router.link_listener`),
* :meth:`update` — one world tick (TTL expiry + protocol-specific sending),
* :meth:`receive_message` / :meth:`transfer_completed` /
  :meth:`transfer_aborted` — transfer plumbing.

Subclasses implement protocol behaviour by overriding the ``on_*`` hooks, and
use :meth:`send` to enqueue transfers on live connections.  Peer routers can
be inspected directly (summary-vector exchange is simulated as direct reads,
as in the ONE simulator), but must never be mutated except through the
documented exchange methods.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.net.buffer import BufferFullError
from repro.net.connection import Connection, Transfer
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.world.node import DTNNode
    from repro.world.world import World


class Router:
    """Base router: buffering, TTL expiry and transfer bookkeeping."""

    #: protocol name used by the registry, reports and benchmarks
    name = "base"

    #: Whether the world's routers sweep may skip this router's
    #: ``update`` tick while it is provably idle (see DESIGN.md, "The idle
    #: router contract").  A router is skip-safe when its ``on_update`` has
    #: no observable effect in the idle states the world skips: an empty
    #: buffer (with or without contacts, after the first post-link-up tick
    #: has run), or a non-empty buffer with no contacts and no TTL due.
    #: Routers that mutate per-tick state unconditionally in ``on_update``
    #: (PRoPHET's predictability aging is the one in-tree case — repeated
    #: ``gamma ** dt`` products are not float-associative with one catch-up
    #: ``gamma ** elapsed``) must set this ``False``; they are then ticked
    #: every update.
    idle_skip_safe = True

    #: Whether the struct-of-arrays routers sweep (``routing/soa.py``) may
    #: resolve this router's awake-but-empty ticks in batch instead of
    #: calling :meth:`update`.  Declaring ``True`` asserts: *an ``update``
    #: call with an empty buffer has no observable effect* — no stats, no
    #: sends, no per-contact state changes — so skipping it is invisible.
    #: Two tiers, selected by :attr:`batch_update_gated`:
    #:
    #: * stateless (``batch_update_gated = False``): the assertion holds
    #:   unconditionally, link events included (direct, epidemic, MaxProp —
    #:   their ``on_update`` early-outs before touching per-contact state);
    #: * gated (``batch_update_gated = True``): the empty update still
    #:   consumes per-contact evaluation gates (:meth:`is_first_evaluation`),
    #:   so it is a no-op only on event-free ticks after the router has run
    #:   at least once since each contact came up (first-contact,
    #:   spray-and-wait, EBR, EER, CR — the world executes every event tick,
    #:   which consumes the gates of all live contacts).
    #:
    #: Both tiers assert more for a *loaded* buffer: ``update`` has no
    #: observable effect unless the router saw a link event, its buffer
    #: changed since its last executed update, a TTL is due, or it (or a
    #: live peer) was just (re)attached — every buffered message was
    #: already decided on every live contact (``considered_on`` for the
    #: stateless tier, the consumed gate for the gated one, which must
    #: therefore guard every time-dependent read), and every deliverable
    #: one stays queued to its destination until a completion removes it
    #: from the buffer.  The sweep lets such rows sleep on a live link.
    #:
    #: Deliberately **not inherited**: a subclass must redeclare it (see
    #: ``__init_subclass__``), because any override of ``on_update`` /
    #: ``update`` can invalidate the no-op proof.
    supports_batch_update = False
    #: see :attr:`supports_batch_update`; consulted only where that is True
    batch_update_gated = False

    #: Whether the world hands this router its link events.  Derived, never
    #: declared: ``True`` exactly when the class overrides one of
    #: :data:`LINK_HOOKS`.  A router without a link hook has nothing to do
    #: on a link change (its per-contact state lives on the
    #: :class:`~repro.net.connection.Connection`, which starts empty), so
    #: the world skips its dispatch; its row still wakes in the routers
    #: sweep.
    link_listener = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "supports_batch_update" not in cls.__dict__:
            # batchability is a per-class proof, not an inheritable trait:
            # a subclass overriding on_update (e.g. a test double logging
            # tick times) silently falls back to the exact per-router loop
            cls.supports_batch_update = False
        cls.link_listener = any(getattr(cls, hook) is not getattr(Router, hook)
                                for hook in LINK_HOOKS)

    def __init__(self) -> None:
        self.node: Optional["DTNNode"] = None
        self.world: Optional["World"] = None
        #: message ids delivered to this node (it was the final destination)
        self._delivered_here: Dict[str, float] = {}

    # ------------------------------------------------------------------ wiring
    def attach(self, node: "DTNNode", world: "World") -> None:
        """Bind this router to *node* inside *world*."""
        if self.node is not None:
            raise RuntimeError("router is already attached to a node")
        self.node = node
        self.world = world
        node.set_router(self)
        self.on_attach()
        # keep the SoA router columns honest across mid-run router swaps:
        # worlds refresh the node's row (no-op before registration, and for
        # test doubles that stand in for a world)
        rebound = getattr(world, "router_rebound", None)
        if rebound is not None:
            rebound(node)

    def on_attach(self) -> None:
        """Hook invoked after :meth:`attach`; override to size per-network state."""

    # ------------------------------------------------------------- conveniences
    @property
    def now(self) -> float:
        """Current simulation time."""
        assert self.world is not None
        return self.world.simulator.now

    @property
    def stats(self):
        """The run's statistics collector."""
        assert self.world is not None
        return self.world.stats

    @property
    def buffer(self):
        """This node's message buffer."""
        assert self.node is not None
        return self.node.buffer

    @property
    def node_id(self) -> int:
        """This node's id."""
        assert self.node is not None
        return self.node.node_id

    def connections(self) -> List[Connection]:
        """Active connections of this node."""
        assert self.node is not None
        return list(self.node.connections.values())

    def peer_router(self, connection: Connection) -> "Router":
        """The router at the other end of *connection*."""
        assert self.node is not None
        peer = connection.other(self.node)
        assert peer.router is not None
        return peer.router

    # ----------------------------------------------------------------- queries
    def has_message(self, message_id: str) -> bool:
        """Whether a replica of *message_id* is currently buffered here."""
        return message_id in self.buffer

    def delivered_here(self, message_id: str) -> bool:
        """Whether this node (as destination) already received *message_id*."""
        return message_id in self._delivered_here

    def messages(self) -> List[Message]:
        """Snapshot of buffered replicas."""
        return self.buffer.messages()

    def peer_has(self, connection: Connection, message_id: str) -> bool:
        """Whether the peer already holds or already received *message_id*.

        This models the summary-vector exchange that real DTN protocols
        perform at contact time.
        """
        peer = self.peer_router(connection)
        return peer.has_message(message_id) or peer.delivered_here(message_id)

    def has_pending_transfer(self, message_id: str) -> bool:
        """Whether *message_id* is queued outbound on any of this node's links.

        Quota-splitting protocols check this before computing a new split so
        that two simultaneous contacts cannot both be handed replicas counted
        from the same (not yet decremented) quota.
        """
        assert self.node is not None
        return any(conn.is_transferring(message_id)
                   for conn in self.node.connections.values())

    def considered_on(self, connection: Connection) -> set:
        """The set of message ids already evaluated during this contact.

        One routing decision per message per contact, as in Algorithm 1/2
        of the paper, which runs "when ui meets uj".  The set lives on this
        node's side of *connection*, so it ends with the contact.  Flooding
        routers (epidemic, MaxProp) use it so a long-lived contact keeps
        replicating only *new* messages instead of rescanning the whole buffer
        every tick.
        """
        assert self.node is not None
        return connection.considered_by(self.node)

    def is_first_evaluation(self, connection: Connection) -> bool:
        """``True`` exactly once per contact, at the first tick after link-up.

        The paper's routing algorithms run "when ``u_i`` meets ``u_j``": the
        buffer is evaluated once per meeting, and messages created or received
        later in the same contact wait for the next meeting event.  Quota and
        utility protocols (Spray-and-*, EBR, EER, CR) gate their per-message
        decisions on this; deliverable messages are still sent every tick.
        The flag lives on this node's side of *connection*.
        """
        assert self.node is not None
        return connection.first_evaluation_by(self.node)

    # ----------------------------------------------------------- message entry
    def create_message(self, message: Message) -> bool:
        """Accept a locally generated message into the buffer."""
        if message.destination == self.node_id:
            # degenerate case: message for ourselves counts as delivered
            self._delivered_here[message.message_id] = self.now
            return True
        return self._store(message, source="origin")

    def receive_message(self, message: Message, from_node: "DTNNode") -> bool:
        """Handle a replica arriving over a completed transfer.

        Returns ``True`` if the replica was accepted (delivered or buffered).
        """
        if message.destination == self.node_id:
            first = message.message_id not in self._delivered_here
            if first:
                self._delivered_here[message.message_id] = self.now
                self.on_delivered(message, from_node)
            return True
        if self.has_message(message.message_id) or self.delivered_here(message.message_id):
            return False
        if not self._store(message, source="relay"):
            return False
        self.on_received(message, from_node)
        return True

    def _store(self, message: Message, source: str) -> bool:
        try:
            evicted = self.buffer.add(message)
        except BufferFullError:
            self.stats.message_dropped(message, self.node_id, self.now, "buffer")
            return False
        for victim in evicted:
            self.stats.message_dropped(victim, self.node_id, self.now, "buffer")
        return True

    # --------------------------------------------------------------- transfers
    def send(self, connection: Connection, message: Message, copies: int = 1,
             forwarding: bool = False) -> Optional[Transfer]:
        """Enqueue a transfer of *message* to the peer on *connection*.

        Silently refuses (returns ``None``) when the link is down or the
        message is already queued toward that peer, so protocol code can call
        it opportunistically every tick.
        """
        assert self.node is not None
        if not connection.is_up:
            return None
        peer = connection.other(self.node)
        if connection.is_transferring(message.message_id, peer.node_id):
            return None
        transfer = Transfer(message, self.node, peer, copies=copies,
                            forwarding=forwarding)
        connection.enqueue(transfer)
        self.stats.transfer_started()
        return transfer

    def transfer_completed(self, transfer: Transfer) -> None:
        """Sender-side bookkeeping after the peer accepted the replica."""
        message = self.buffer.get(transfer.message.message_id)
        if message is None:
            return
        if transfer.receiver.node_id == message.destination or transfer.forwarding:
            # the replica has left this node entirely
            self.buffer.remove(message.message_id)
        else:
            message.copies = max(1, message.copies - transfer.copies)
        self.on_transfer_completed(transfer)

    def transfer_aborted(self, transfer: Transfer) -> None:
        """Sender-side notification that a queued transfer was cut short."""
        self.on_transfer_aborted(transfer)

    # ------------------------------------------------------------------- ticks
    def update(self, now: float) -> None:
        """One world tick: expire TTLs, then run the protocol hook."""
        for expired in self.buffer.drop_expired(now):
            self.stats.message_dropped(expired, self.node_id, now, "expired")
        self.on_update(now)

    def changed_connection(self, connection: Connection, up: bool) -> None:
        """Link state change notification from the world."""
        assert self.node is not None
        peer = connection.other(self.node)
        if up:
            self.on_contact_up(connection, peer)
        else:
            self.on_contact_down(connection, peer)

    def batch_changed_connections(self, events: List[tuple]) -> None:
        """One tick's worth of link changes for this node, in one call.

        *events* is a list of ``(connection, up)`` pairs: this node's link
        tear-downs first, then its link establishments, each group in
        ascending ``(id, id)`` pair order (the world's sorted link diff).
        The default implementation dispatches to :meth:`changed_connection`
        per event; routers with per-contact setup costs can override this to
        amortize work across the batch.
        """
        for connection, up in events:
            self.changed_connection(connection, up)

    # -------------------------------------------------------------- common moves
    def send_deliverable(self, connection: Connection) -> int:
        """Send every buffered message whose destination is the connected peer.

        All protocols do this first; returns the number of transfers queued.
        Candidates come from the buffer's per-destination index, so a tick
        with no deliverable messages costs O(1) instead of a buffer scan.
        """
        assert self.node is not None
        peer = connection.other(self.node)
        candidates = self.buffer.messages_for_destination(peer.node_id)
        if not candidates:
            return 0
        peer_router = self.peer_router(connection)
        sent = 0
        for message in candidates:
            if peer_router.delivered_here(message.message_id):
                continue
            if self.send(connection, message, copies=message.copies, forwarding=True):
                sent += 1
        return sent

    # -------------------------------------------------------------------- hooks
    def on_contact_up(self, connection: Connection, peer: "DTNNode") -> None:
        """A link to *peer* just came up."""

    def on_contact_down(self, connection: Connection, peer: "DTNNode") -> None:
        """The link to *peer* just went down."""

    def on_update(self, now: float) -> None:
        """Per-tick protocol behaviour (after TTL expiry)."""

    def on_received(self, message: Message, from_node: "DTNNode") -> None:
        """A relayed replica was stored in the buffer."""

    def on_delivered(self, message: Message, from_node: "DTNNode") -> None:
        """A message destined to this node arrived (first time)."""

    def on_transfer_completed(self, transfer: Transfer) -> None:
        """A transfer this node sent completed and was accepted."""

    def on_transfer_aborted(self, transfer: Transfer) -> None:
        """A transfer this node sent was aborted by a link-down."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "detached" if self.node is None else f"node {self.node.node_id}"
        return f"<{type(self).__name__} ({self.name}) on {where}>"


#: the link-event entry points; overriding any makes a router a
#: :attr:`~Router.link_listener`
LINK_HOOKS = ("on_contact_up", "on_contact_down", "changed_connection",
              "batch_changed_connections")
