"""Bandwidth-limited connections between nodes in range.

A :class:`Connection` exists while two nodes are within radio range of each
other: the world builds a new one at every link-up and keeps it in its link
table, the one owner of the link's state (start time, bitrate, transfer
queue and each endpoint's per-contact routing state).  Routers enqueue
:class:`Transfer` objects on it; the world update loop calls
:meth:`Connection.advance` every step, which drains bytes at the link
bitrate and completes transfers in FIFO order (one in flight at a time, as in
the ONE simulator's default link model).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.world.node import DTNNode


class TransferState(enum.Enum):
    """Lifecycle of a queued message transfer."""

    PENDING = "pending"
    IN_PROGRESS = "in_progress"
    COMPLETED = "completed"
    ABORTED = "aborted"


class Transfer:
    """One message replica being copied from *sender* to *receiver*.

    Parameters
    ----------
    message:
        The sender's replica being transferred.
    sender, receiver:
        The two endpoint nodes.
    copies:
        Replica quota the receiver's copy will carry (1 for pure forwarding).
    forwarding:
        If ``True`` the sender relinquishes its replica entirely once the
        transfer completes (single-copy forwarding); if ``False`` the sender
        keeps ``message.copies - copies`` replicas (quota splitting).
    """

    __slots__ = ("message", "sender", "receiver", "copies", "forwarding",
                 "bytes_left", "state", "started_at", "completed_at")

    def __init__(self, message: Message, sender: "DTNNode", receiver: "DTNNode",
                 copies: int = 1, forwarding: bool = False) -> None:
        if copies < 1:
            raise ValueError(f"transfer must carry at least one copy, got {copies}")
        self.message = message
        self.sender = sender
        self.receiver = receiver
        self.copies = int(copies)
        self.forwarding = bool(forwarding)
        self.bytes_left = float(message.size)
        self.state = TransferState.PENDING
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Transfer({self.message.message_id!r} {self.sender.node_id}->"
                f"{self.receiver.node_id} copies={self.copies} {self.state.value})")


class Connection:
    """A live bidirectional link between two nodes.

    Parameters
    ----------
    node_a, node_b:
        Endpoints.
    bitrate:
        Link speed in bytes per second (the minimum of the two interfaces').
    established_at:
        Simulation time the nodes came into range.
    """

    def __init__(self, node_a: "DTNNode", node_b: "DTNNode", bitrate: float,
                 established_at: float) -> None:
        if bitrate <= 0:
            raise ValueError(f"bitrate must be positive, got {bitrate}")
        self.node_a = node_a
        self.node_b = node_b
        self.bitrate = float(bitrate)
        self.established_at = float(established_at)
        self.is_up = True
        self.torn_down_at: Optional[float] = None
        #: the transfer queue and its index, created by the first
        #: :meth:`enqueue` (most links never carry a transfer)
        self._queue: Optional[Deque[Transfer]] = None
        #: reference counts of queued message ids and (message id, receiver)
        #: pairs, kept in sync by enqueue/advance/tear_down so
        #: ``is_transferring`` is O(1) instead of a queue scan (routers call
        #: it once per candidate message per contact); empty whenever the
        #: queue is
        self._queued_ids: Optional[Dict[str, int]] = None
        self._queued_pairs: Optional[Dict[Tuple[str, int], int]] = None
        self.completed_transfers = 0
        self.aborted_transfers = 0
        # per-endpoint routing state of this contact (see
        # Router.considered_on / Router.is_first_evaluation): one lazily
        # created considered-id set per side, and a bit per side (1 = node
        # a, 2 = node b) recording its first evaluation
        self._considered_a: Optional[set] = None
        self._considered_b: Optional[set] = None
        self._evaluated = 0
        #: world-assigned monotonic establishment number; sorting live
        #: connections by it reproduces the world's link-table insertion
        #: order exactly (the transfer-phase processing order)
        self.established_seq = 0
        #: optional list the connection appends itself to when its queue goes
        #: empty -> non-empty (the world's O(active) transfer-phase feed)
        self.activity_sink: Optional[List["Connection"]] = None

    # ------------------------------------------------------------- endpoints
    @property
    def key(self) -> Tuple[int, int]:
        """The canonical ``(min_id, max_id)`` pair identifying the link."""
        a, b = self.node_a.node_id, self.node_b.node_id
        return (a, b) if a <= b else (b, a)

    def other(self, node: "DTNNode") -> "DTNNode":
        """Return the peer of *node* on this connection."""
        if node is self.node_a or node.node_id == self.node_a.node_id:
            return self.node_b
        if node is self.node_b or node.node_id == self.node_b.node_id:
            return self.node_a
        raise ValueError(f"node {node.node_id} is not an endpoint of {self!r}")

    def involves(self, node: "DTNNode") -> bool:
        """Whether *node* is one of the endpoints."""
        return node.node_id in (self.node_a.node_id, self.node_b.node_id)

    # ------------------------------------------------ per-contact routing state
    def _side_a(self, node: "DTNNode") -> bool:
        """Whether *node* is endpoint a (as :meth:`other` tells them apart)."""
        if node is self.node_a or node.node_id == self.node_a.node_id:
            return True
        if node is self.node_b or node.node_id == self.node_b.node_id:
            return False
        raise ValueError(f"node {node.node_id} is not an endpoint of {self!r}")

    def considered_by(self, node: "DTNNode") -> set:
        """*node*'s set of message ids already evaluated on this contact,
        created on first use."""
        if self._side_a(node):
            considered = self._considered_a
            if considered is None:
                considered = self._considered_a = set()
        else:
            considered = self._considered_b
            if considered is None:
                considered = self._considered_b = set()
        return considered

    def first_evaluation_by(self, node: "DTNNode") -> bool:
        """``True`` on *node*'s first call for this contact, then ``False``."""
        bit = 1 if self._side_a(node) else 2
        if self._evaluated & bit:
            return False
        self._evaluated |= bit
        return True

    def clear_side(self, node: "DTNNode") -> None:
        """Forget *node*'s per-contact routing state (its router changed)."""
        if self._side_a(node):
            self._considered_a = None
            self._evaluated &= ~1
        else:
            self._considered_b = None
            self._evaluated &= ~2

    # ------------------------------------------------------------- transfers
    @property
    def queued_transfers(self) -> List[Transfer]:
        """Snapshot of pending/in-progress transfers (FIFO order)."""
        return list(self._queue or ())

    def is_transferring(self, message_id: str, to_node_id: Optional[int] = None) -> bool:
        """Whether *message_id* is already queued (optionally to a given node).

        O(1): answered from the reference-count index maintained by
        ``enqueue``/``advance``/``tear_down``, not by scanning the queue.
        """
        if not self._queue:
            return False
        if to_node_id is None:
            return message_id in self._queued_ids
        return (message_id, to_node_id) in self._queued_pairs

    def _track(self, transfer: Transfer) -> None:
        message_id = transfer.message.message_id
        pair = (message_id, transfer.receiver.node_id)
        ids = self._queued_ids
        ids[message_id] = ids.get(message_id, 0) + 1
        pairs = self._queued_pairs
        pairs[pair] = pairs.get(pair, 0) + 1

    def _untrack(self, transfer: Transfer) -> None:
        message_id = transfer.message.message_id
        pair = (message_id, transfer.receiver.node_id)
        ids = self._queued_ids
        count = ids[message_id] - 1
        if count:
            ids[message_id] = count
        else:
            del ids[message_id]
        pairs = self._queued_pairs
        count = pairs[pair] - 1
        if count:
            pairs[pair] = count
        else:
            del pairs[pair]

    @property
    def has_queued(self) -> bool:
        """Whether any transfer is pending or in progress on this link."""
        return bool(self._queue)

    def enqueue(self, transfer: Transfer) -> Transfer:
        """Queue *transfer* for transmission.  Raises if the link is down."""
        if not self.is_up:
            raise ConnectionDownError("cannot enqueue a transfer on a torn-down link")
        if not (self.involves(transfer.sender) and self.involves(transfer.receiver)):
            raise ValueError("transfer endpoints do not match the connection")
        queue = self._queue
        if queue is None:
            queue = self._queue = deque()
            self._queued_ids = {}
            self._queued_pairs = {}
        if not queue and self.activity_sink is not None:
            self.activity_sink.append(self)
        queue.append(transfer)
        self._track(transfer)
        return transfer

    def advance(self, now: float, dt: float) -> List[Transfer]:
        """Progress transfers by *dt* seconds of link time.

        Multiple queued transfers may complete within one step if the link is
        fast relative to the step length.  Returns the transfers completed in
        this call (their ``state`` is already ``COMPLETED``); the caller (the
        world) performs the actual hand-off to the receiving router so that
        buffer admission and statistics stay in one place.
        """
        if not self.is_up or dt <= 0:
            return []
        budget = self.bitrate * dt
        completed: List[Transfer] = []
        while budget > 0 and self._queue:
            transfer = self._queue[0]
            if transfer.state is TransferState.PENDING:
                transfer.state = TransferState.IN_PROGRESS
                transfer.started_at = now
            moved = min(budget, transfer.bytes_left)
            transfer.bytes_left -= moved
            budget -= moved
            if transfer.bytes_left <= 1e-9:
                transfer.state = TransferState.COMPLETED
                transfer.completed_at = now
                self._queue.popleft()
                self._untrack(transfer)
                self.completed_transfers += 1
                completed.append(transfer)
            else:
                break
        return completed

    def tear_down(self, now: float) -> List[Transfer]:
        """Mark the link down and abort all queued transfers.

        Returns the aborted transfers so the world can notify routers/stats.
        A world running the columnar transfers phase detaches the connection
        from its :class:`~repro.net.engine.TransferEngine` first, so the
        head transfer carries its authoritative byte count.
        """
        self.is_up = False
        self.torn_down_at = float(now)
        if not self._queue:
            return []
        aborted = list(self._queue)
        for transfer in aborted:
            transfer.state = TransferState.ABORTED
            self.aborted_transfers += 1
        self._queue.clear()
        self._queued_ids.clear()
        self._queued_pairs.clear()
        return aborted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.is_up else "down"
        return (f"Connection({self.node_a.node_id}<->{self.node_b.node_id}, "
                f"{state}, queued={len(self._queue or ())})")


class ConnectionDownError(RuntimeError):
    """Raised when using a connection that has been torn down."""
