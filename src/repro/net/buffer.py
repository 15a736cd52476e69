"""Bounded message buffers with pluggable drop policies.

The paper's evaluation uses a 1 MB buffer per node with 25 KB messages, so
buffer pressure is real (at most 40 messages fit).  The default drop policy is
the ONE simulator's: drop the oldest-received message to make room, never the
incoming one if it cannot fit at all.

:class:`MessageBuffer` keeps eviction candidates in a maintained
lazy-deletion min-heap ordered by the drop-policy key, and expiry times in a
second min-heap, so :meth:`~MessageBuffer.add` pops victims in O(log n) each
instead of re-sorting the whole buffer, and
:meth:`~MessageBuffer.drop_expired` is O(1) when nothing expired instead of
scanning every stored replica on every router tick.  A per-destination index
makes ``messages_for_destination`` (the ``send_deliverable`` fast path)
O(matches).

Its naive specification is the original sort-per-add buffer,
:class:`repro.testing.reference.ReferenceMessageBuffer`.  Eviction order is
identical between the two: the heap carries an insertion sequence number as
tie-breaker, which reproduces the stable sort of the reference exactly.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.net.message import Message


class DropPolicy(enum.Enum):
    """Which stored message to evict when space is needed."""

    #: evict the replica that has been in the buffer the longest (ONE default)
    OLDEST_RECEIVED = "oldest_received"
    #: evict the replica whose bundle was created the longest ago
    OLDEST_CREATED = "oldest_created"
    #: evict the replica with the smallest residual TTL
    SHORTEST_TTL = "shortest_ttl"
    #: evict the largest replica first
    LARGEST = "largest"
    #: refuse to evict: incoming messages are rejected when full
    NO_DROP = "no_drop"


#: drop policy -> eviction priority key (smaller evicts first)
_POLICY_KEYS: Dict[DropPolicy, Callable[[Message], float]] = {
    DropPolicy.OLDEST_RECEIVED: lambda m: m.received_time,
    DropPolicy.OLDEST_CREATED: lambda m: m.creation_time,
    DropPolicy.SHORTEST_TTL: lambda m: m.expiry_time,
    DropPolicy.LARGEST: lambda m: -m.size,
}


class MessageBuffer:
    """A byte-bounded store of message replicas.

    Parameters
    ----------
    capacity:
        Capacity in bytes; ``float('inf')`` for unbounded buffers.
    drop_policy:
        Eviction policy applied by :meth:`add` when the incoming message does
        not fit.
    protected:
        Optional predicate; messages for which it returns ``True`` are never
        evicted to make room (used e.g. to protect messages this node
        originated).

    Attributes
    ----------
    full_sorts:
        Number of full-buffer sorts performed (stays 0 on the hot path; the
        legacy :meth:`_eviction_order` inspection helper is the only thing
        that increments it).
    heap_pops:
        Number of eviction/expiry heap pops performed (regression tests bound
        this to O(evictions), not O(n log n) per add).
    """

    __slots__ = ("capacity", "drop_policy", "protected", "_messages",
                 "_occupancy", "full_sorts", "heap_pops", "_seq", "_live_seq",
                 "_evict_heap", "_expiry_heap", "_by_destination",
                 "_mirror_store", "_mirror_row")

    def __init__(self, capacity: float = float("inf"),
                 drop_policy: DropPolicy = DropPolicy.OLDEST_RECEIVED,
                 protected: Optional[Callable[[Message], bool]] = None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.drop_policy = drop_policy
        self.protected = protected
        self._occupancy = 0
        # instrumentation (see class docstring)
        self.full_sorts = 0
        self.heap_pops = 0
        self._reset()
        # struct-of-arrays mirror binding (see repro.routing.soa): when a
        # world registers this buffer's node, every mutation marks the
        # node's row dirty so the sweep re-reads count/occupancy/next-expiry
        # exactly once; an unbound buffer stays inert
        self._mirror_store = None
        self._mirror_row = -1

    def _reset(self) -> None:
        # An empty buffer holds no containers (most nodes of a large world
        # never store a message): ``_messages`` and the indexes are ``None``
        # and the heaps the empty tuple until the first add creates them.
        self._messages: Optional[Dict[str, Message]] = None
        # lazy-deletion indexes: entries carry the sequence number that was
        # live when pushed; stale entries (removed or re-added messages) are
        # skipped at pop time
        self._seq = None
        self._live_seq: Optional[Dict[str, int]] = None
        self._evict_heap: Sequence[Tuple[float, int, str]] = ()
        self._expiry_heap: Sequence[Tuple[float, int, str]] = ()
        #: destination -> insertion-ordered {message_id: Message}
        self._by_destination: Optional[Dict[int, Dict[str, Message]]] = None

    def _create_containers(self) -> None:
        self._messages = {}
        self._seq = itertools.count()
        self._live_seq = {}
        self._evict_heap = []
        self._expiry_heap = []
        self._by_destination = {}

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self._messages or ())

    def __contains__(self, message_id: str) -> bool:
        return message_id in (self._messages or ())

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages())

    @property
    def occupancy(self) -> int:
        """Bytes currently stored."""
        return self._occupancy

    @property
    def free_space(self) -> float:
        """Bytes still available."""
        return self.capacity - self._occupancy

    @property
    def occupancy_ratio(self) -> float:
        """Fraction of the capacity in use (0 for unbounded empty buffers)."""
        if self.capacity == float("inf"):
            return 0.0
        return self._occupancy / self.capacity

    def get(self, message_id: str) -> Optional[Message]:
        """Return the stored replica with *message_id*, or ``None``."""
        messages = self._messages
        return messages.get(message_id) if messages else None

    def messages(self) -> List[Message]:
        """Snapshot list of stored replicas in insertion order."""
        return list(self._messages.values()) if self._messages else []

    def message_ids(self) -> List[str]:
        """Snapshot list of stored message identifiers."""
        return list(self._messages) if self._messages else []

    def messages_for_destination(self, destination: int) -> List[Message]:
        """Stored replicas destined to *destination*, in insertion order.

        Served from a maintained index: O(matches), not O(buffer).  This is
        the ``send_deliverable`` fast path that every protocol hits on every
        tick of every live connection.
        """
        if not self._by_destination:
            return []
        bucket = self._by_destination.get(int(destination))
        return list(bucket.values()) if bucket else []

    # --------------------------------------------------------------- mutation
    def _eviction_order(self) -> List[Message]:
        """Full eviction order (inspection/debugging only; sorts the buffer)."""
        self.full_sorts += 1
        key = _POLICY_KEYS.get(self.drop_policy)
        if key is None:
            return []
        msgs = [m for m in self.messages()
                if self.protected is None or not self.protected(m)]
        return sorted(msgs, key=key)

    def _index(self, message: Message) -> None:
        seq = next(self._seq)
        self._live_seq[message.message_id] = seq
        key = _POLICY_KEYS.get(self.drop_policy)
        if key is not None and self.capacity != float("inf"):
            # unbounded buffers never evict: no point growing the heap
            heapq.heappush(self._evict_heap, (key(message), seq, message.message_id))
        if message.expiry_time != float("inf"):
            heapq.heappush(self._expiry_heap,
                           (message.expiry_time, seq, message.message_id))
        self._by_destination.setdefault(
            message.destination, {})[message.message_id] = message

    def _compact_heaps(self) -> None:
        """Rebuild the lazy-deletion heaps once stale entries dominate.

        Stale entries (messages removed without eviction pressure) are
        normally discarded at pop time; a buffer with high turnover but
        little eviction would otherwise retain one tuple per message it ever
        stored.  Rebuilding from the live set keeps the original sequence
        numbers, so eviction order is unchanged.
        """
        live = self._live_seq
        if self._evict_heap and len(self._evict_heap) > 64 + 4 * len(live):
            key = _POLICY_KEYS[self.drop_policy]
            self._evict_heap = [(key(m), live[mid], mid)
                                for mid, m in self._messages.items()]
            heapq.heapify(self._evict_heap)
        if self._expiry_heap and len(self._expiry_heap) > 64 + 4 * len(live):
            self._expiry_heap = [(m.expiry_time, live[mid], mid)
                                 for mid, m in self._messages.items()
                                 if m.expiry_time != float("inf")]
            heapq.heapify(self._expiry_heap)

    def _pop_victim(self, stash: List[Tuple[float, int, str]]) -> Optional[Message]:
        """Next unprotected eviction victim, or ``None`` when exhausted.

        Stale heap entries (already removed, or superseded by a re-add) are
        skipped; protected entries are appended to *stash* and restored
        afterwards by :meth:`add`, preserving the heap for future evictions.
        """
        heap = self._evict_heap
        while heap:
            entry = heapq.heappop(heap)
            self.heap_pops += 1
            key, seq, message_id = entry
            if self._live_seq.get(message_id) != seq:
                continue  # stale: message removed or re-added since the push
            victim = self._messages[message_id]
            if self.protected is not None and self.protected(victim):
                stash.append(entry)
                continue
            return victim
        return None

    def add(self, message: Message) -> List[Message]:
        """Store *message*, evicting per the drop policy if needed.

        Returns
        -------
        list of Message
            The evicted messages (empty if none).  If the message cannot be
            stored even after evicting every unprotected message, it is *not*
            stored and ``BufferFullError`` is raised.
        """
        if message.message_id in self:
            raise ValueError(f"message {message.message_id!r} is already buffered")
        if message.size > self.capacity:
            raise BufferFullError(
                f"message of {message.size} B exceeds buffer capacity {self.capacity} B")
        evicted: List[Message] = []
        if message.size > self.free_space:
            if self.drop_policy is DropPolicy.NO_DROP:
                raise BufferFullError("buffer full and drop policy is NO_DROP")
            stash: List[Tuple[float, int, str]] = []
            try:
                while message.size > self.free_space:
                    victim = self._pop_victim(stash)
                    if victim is None:
                        break
                    self.remove(victim.message_id)
                    evicted.append(victim)
            finally:
                for entry in stash:
                    heapq.heappush(self._evict_heap, entry)
            if message.size > self.free_space:
                # restore nothing: evictions already happened, mirror ONE which
                # frees space before checking; but refuse the incoming message.
                raise BufferFullError(
                    "buffer cannot make enough room for incoming message")
        if self._messages is None:
            self._create_containers()
        self._messages[message.message_id] = message
        self._occupancy += message.size
        self._index(message)
        if self._mirror_store is not None:
            self._mirror_store.mark_dirty(self._mirror_row)
        return evicted

    def remove(self, message_id: str) -> Optional[Message]:
        """Remove and return the replica with *message_id* (or ``None``)."""
        if not self._messages:
            return None
        message = self._messages.pop(message_id, None)
        if message is not None:
            self._occupancy -= message.size
            self._live_seq.pop(message_id, None)
            bucket = self._by_destination.get(message.destination)
            if bucket is not None:
                bucket.pop(message_id, None)
                if not bucket:
                    del self._by_destination[message.destination]
            self._compact_heaps()
            if self._mirror_store is not None:
                self._mirror_store.mark_dirty(self._mirror_row)
        return message

    def drop_expired(self, now: float) -> List[Message]:
        """Remove and return every replica whose TTL elapsed by *now*.

        Pops the expiry heap instead of scanning the buffer: when nothing has
        expired (the overwhelmingly common tick) this is a single comparison.
        """
        expired: List[Message] = []
        heap = self._expiry_heap
        while heap and heap[0][0] <= now:
            expiry, seq, message_id = heapq.heappop(heap)
            self.heap_pops += 1
            if self._live_seq.get(message_id) != seq:
                continue  # stale entry
            message = self.remove(message_id)
            if message is not None:
                expired.append(message)
        return expired

    def next_expiry(self) -> float:
        """Earliest TTL deadline of any stored replica (``inf`` when none).

        This is the wake-up key the world's routers sweep consults: a
        router with buffered messages but no contacts needs its next
        ``update`` tick no earlier than this instant.  Stale heap tops
        (replicas removed without an expiry sweep) are purged on the way, so
        the returned deadline is exact — and purging keeps the lazy-deletion
        invariant: any entry this method pops would have been popped and
        discarded by the next :meth:`drop_expired` anyway.
        """
        heap = self._expiry_heap
        while heap:
            expiry, seq, message_id = heap[0]
            if self._live_seq.get(message_id) == seq:
                return expiry
            heapq.heappop(heap)
            self.heap_pops += 1
        return float("inf")

    def clear(self) -> None:
        """Drop everything."""
        self._occupancy = 0
        self._reset()
        if self._mirror_store is not None:
            self._mirror_store.mark_dirty(self._mirror_row)


class BufferFullError(RuntimeError):
    """Raised when a message cannot be stored even after eviction."""
