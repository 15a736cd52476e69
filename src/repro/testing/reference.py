"""The reference world: the naive executable specification.

The production :class:`~repro.world.world.World` tick is built from
machinery whose only job is speed — pooled connections, batched contact
statistics, the columnar :class:`~repro.net.engine.TransferEngine` and the
struct-of-arrays :class:`~repro.routing.soa.RouterStateStore` — and every
piece of it claims to leave the simulation's outcome unchanged.  This
module states what "unchanged" means by running the same four phases the
obvious way:

* ``move`` — every follower advances through the per-follower loop
  (:class:`ReferenceMovement`, the spec of the production
  :class:`~repro.mobility.engine.MovementEngine` kernel),
* ``connectivity`` — every link event is applied on its own: a fresh
  :class:`~repro.net.connection.Connection` per establishment and one
  ``contact_up`` / ``contact_down`` record per event, with links found by
  the single-threaded :class:`~repro.world.connectivity.KDTreeConnectivity`
  whatever the world size,
* ``transfers`` — every live link is scanned and advanced,
* ``routers`` — every router is ticked, every update.

The contact store runs the obvious way too: every contact-aware router
(EER, CR, EBR, PRoPHET, MaxProp, Spray-and-Focus) records its contacts in a
:class:`ContactHistoryReference` — the original dict-of-deques store, whose
array views are rebuilt from its deques on every call.  The production
Theorem 1/2/4 estimators run over those views, so a reference run checks
the ring-buffer storage of :class:`~repro.contacts.history.ContactHistory`
end to end.

:class:`ReferenceTick` is one mixin applied to both world flavours
(:class:`ReferenceWorld`, :class:`ReferenceTraceReplayWorld`).  Select it
with ``build_scenario(config, reference=True)`` or
``build_trace_world(..., reference=True)``; both import this module only
when asked, so it never enters the production import graph.  A reference
run and a production run of the same configuration must produce
byte-identical canonical reports (``tests/test_reference_tick.py``), and
the reference is the baseline of the world-tick and ``scenario_eer`` pairs
in ``repro bench``.

The production world's columnar stores are still constructed and
``add_nodes`` still registers every node in them, but the reference tick
never reads them: nothing here depends on their bookkeeping being right.

The module also holds the naive twins of single production components,
each the oracle of its parity tests: :class:`ReferenceMovement` (the
per-follower movement loop), :class:`BruteForceConnectivity` (the
O(n²) detector), :class:`ReferenceMessageBuffer` (the sort-per-add buffer)
and :func:`dijkstra_delays_reference` (the heap-based Dijkstra, spec of
the MEMD and MaxProp shortest-path kernel).

It holds the history-level estimator loops too, each one call of the
public per-pair functions of :mod:`repro.core.expectation` per peer:
:func:`expected_encounter_value_reference` (Theorem 1),
:func:`community_encounter_probability_reference` (Theorem 4),
:func:`build_delay_matrix_reference` (the Theorem 2 MD own row) and
:func:`contact_graph_from_history_reference` (the per-edge contact graph).
They are the spec the batch kernels are held to bit for bit by the parity
tests, and the baselines of the ``encounter_pipeline`` and
``community_detection`` pairs in ``repro bench``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (Callable, Deque, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

import networkx as nx
import numpy as np

from repro.contacts.md_matrix import _delay_matrix
from repro.contacts.memd import _validate
from repro.contacts.mi_matrix import MeetingIntervalMatrix
from repro.core.expectation import (OverduePolicy,
                                    conditional_encounter_probability,
                                    expected_meeting_delay, left_sum)
from repro.mobility.base import PathFollower
from repro.net.buffer import BufferFullError, DropPolicy
from repro.net.connection import Connection
from repro.net.message import Message
from repro.routing.active import ContactAwareRouter
from repro.traces.replay import TraceReplayWorld
from repro.world.connectivity import ConnectivityDetector, _empty_pairs
from repro.world.node import DTNNode
from repro.world.world import World

__all__ = ["ReferenceTick", "ReferenceWorld", "ReferenceTraceReplayWorld",
           "ReferenceMovement", "BruteForceConnectivity",
           "ContactHistoryReference", "ReferenceMessageBuffer",
           "dijkstra_delays_reference", "expected_encounter_value_reference",
           "community_encounter_probability_reference",
           "build_delay_matrix_reference",
           "contact_graph_from_history_reference"]


class ReferenceTick:
    """Mixin: replace a world's tick machinery with the naive specification.

    Must precede the world class in the bases so its methods win.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[call-arg]
        # no node is registered yet, so swapping the engine is safe
        self.movement = ReferenceMovement()

    def add_nodes(self, nodes: Iterable[DTNNode]) -> List[DTNNode]:
        nodes = super().add_nodes(nodes)  # type: ignore[misc]
        for node in nodes:
            router = node.router
            if isinstance(router, ContactAwareRouter):
                # attached but not yet run: the history is still empty
                router.history = ContactHistoryReference(router.node_id,
                                                         router.window_size)
        return nodes

    def _apply_link_changes(self, down_keys: List[Tuple[int, int]],
                            up_keys: List[Tuple[int, int]],
                            now: float) -> None:
        # same event order and router dispatch contract as the production
        # world: tear-downs then establishments, each in ascending pair
        # order, then one batch notification per router in ascending id order
        events_by_node: Dict[int, List[Tuple[Connection, bool]]] = {}
        for key in down_keys:
            event = (self._teardown_link(key, now), False)
            events_by_node.setdefault(key[0], []).append(event)
            events_by_node.setdefault(key[1], []).append(event)
        for key in up_keys:
            event = (self._establish_link(key, now), True)
            events_by_node.setdefault(key[0], []).append(event)
            events_by_node.setdefault(key[1], []).append(event)
        for node_id in sorted(events_by_node):
            router = self._nodes[node_id].router
            assert router is not None
            router.batch_changed_connections(events_by_node[node_id])

    def _establish_link(self, key: Tuple[int, int], now: float) -> Connection:
        node_a = self._nodes[key[0]]
        node_b = self._nodes[key[1]]
        connection = Connection(
            node_a, node_b, node_a.interface.link_bitrate(node_b.interface),
            now)
        self.stats.contact_up(node_a.node_id, node_b.node_id, now)
        self._connections[key] = connection
        node_a.connections[node_b.node_id] = connection
        node_b.connections[node_a.node_id] = connection
        return connection

    def _teardown_link(self, key: Tuple[int, int], now: float) -> Connection:
        connection = self._connections.pop(key)
        self._abort_transfers(connection, now)
        node_a = connection.node_a
        node_b = connection.node_b
        node_a.connections.pop(node_b.node_id, None)
        node_b.connections.pop(node_a.node_id, None)
        self.stats.contact_down(node_a.node_id, node_b.node_id, now)
        return connection

    def _advance_transfers(self, now: float, dt: float) -> None:
        for connection in list(self._connections.values()):
            for transfer in connection.advance(now, dt):
                self._complete_transfer(transfer, now)

    def _update_routers(self, now: float) -> None:
        for node in self._node_order:
            assert node.router is not None
            node.router.update(now)
        self.routers_ticked += len(self._node_order)
        self.stats.router_sweep(len(self._node_order), 0, 0)


class ReferenceWorld(ReferenceTick, World):
    """A geometric :class:`~repro.world.world.World` on the reference tick."""


class ReferenceTraceReplayWorld(ReferenceTick, TraceReplayWorld):
    """A :class:`~repro.traces.replay.TraceReplayWorld` on the reference tick."""


# ------------------------------------------------------ component twins
class ReferenceMovement:
    """The per-follower movement loop: ``move`` on every live follower.

    The executable spec of :class:`~repro.mobility.engine.MovementEngine`,
    with its :meth:`register_many` and :meth:`advance` interface.  It never
    attaches to a follower, so ``PathFollower.teleport`` has nothing to
    invalidate.
    """

    def __init__(self) -> None:
        self._followers: List[PathFollower] = []

    def register_many(self, followers: List[PathFollower]) -> int:
        start = len(self._followers)
        self._followers.extend(followers)
        return start

    def advance(self, dt: float, now: float) -> Tuple[int, int]:
        """Move every non-halted follower; returns ``(0, loop moves)``."""
        moved = 0
        for follower in self._followers:
            if not follower.halted:
                follower.move(dt, now)
                moved += 1
        return 0, moved


class BruteForceConnectivity(ConnectivityDetector):
    """Reference O(n²) detector: every pair checked (vectorised with NumPy)."""

    def update(self, positions: np.ndarray, ranges: np.ndarray) -> np.ndarray:
        n = len(positions)
        if n < 2:
            return _empty_pairs()
        ii, jj = np.triu_indices(n, k=1)
        delta = positions[ii] - positions[jj]
        limit = np.minimum(ranges[ii], ranges[jj])
        mask = (delta * delta).sum(axis=1) <= limit * limit
        # triu_indices is already in (i, j) lexicographic order with i < j
        return np.column_stack((ii[mask], jj[mask])).astype(np.int64)


class ContactHistoryReference:
    """The original dict-of-deques contact history.

    Semantically identical to :class:`~repro.contacts.history.ContactHistory`;
    the history of every contact-aware router in the reference world, the
    oracle of the property-based parity tests and the pure-Python baseline
    of the ``encounter_pipeline`` pair in ``repro bench``.  Its array views
    are built on demand from the deques and nothing is cached.
    """

    def __init__(self, owner_id: int, window_size: int = 20) -> None:
        if window_size < 1:
            raise ValueError("window_size must be at least 1")
        self.owner_id = int(owner_id)
        self.window_size = int(window_size)
        self.version = 0
        self._intervals: Dict[int, Deque[float]] = {}
        self._last_contact: Dict[int, float] = {}
        self._contact_counts: Dict[int, int] = {}

    # ---------------------------------------------------------------- record
    def record_contact(self, peer_id: int, now: float) -> Optional[float]:
        """Record a contact with *peer_id* starting at time *now*."""
        peer_id = int(peer_id)
        if peer_id == self.owner_id:
            raise ValueError("a node cannot record a contact with itself")
        if now < 0:
            raise ValueError("contact time must be non-negative")
        last = self._last_contact.get(peer_id)
        interval: Optional[float] = None
        if last is not None:
            if now < last:
                raise ValueError(
                    f"contact at t={now} precedes the last recorded contact at t={last}")
            interval = now - last
            window = self._intervals.setdefault(
                peer_id, deque(maxlen=self.window_size))
            window.append(interval)
        self._last_contact[peer_id] = float(now)
        self._contact_counts[peer_id] = self._contact_counts.get(peer_id, 0) + 1
        self.version += 1
        return interval

    # ----------------------------------------------------------------- query
    def peers(self) -> List[int]:
        """Peers this node has met at least once."""
        return list(self._last_contact)

    def has_met(self, peer_id: int) -> bool:
        """Whether the node has ever met *peer_id*."""
        return int(peer_id) in self._last_contact

    def contact_count(self, peer_id: int) -> int:
        """Number of contacts recorded with *peer_id*."""
        return self._contact_counts.get(int(peer_id), 0)

    def intervals(self, peer_id: int) -> List[float]:
        """The recorded meeting intervals with *peer_id* (may be empty)."""
        window = self._intervals.get(int(peer_id))
        return list(window) if window is not None else []

    def last_contact(self, peer_id: int) -> Optional[float]:
        """Start time of the most recent contact with *peer_id*, or ``None``."""
        return self._last_contact.get(int(peer_id))

    def elapsed_since(self, peer_id: int, now: float) -> Optional[float]:
        """Elapsed time since the last contact with *peer_id*, or ``None``."""
        last = self._last_contact.get(int(peer_id))
        if last is None:
            return None
        return max(0.0, now - last)

    def mean_interval(self, peer_id: int) -> Optional[float]:
        """Average recorded meeting interval with *peer_id*."""
        window = self._intervals.get(int(peer_id))
        if not window:
            return None
        return left_sum(window) / len(window)

    def total_intervals(self) -> int:
        """Total number of recorded intervals across all peers."""
        return sum(len(w) for w in self._intervals.values())

    def snapshot(self) -> Dict[int, List[float]]:
        """A copy of all windows (peer -> interval list), for inspection."""
        return {peer: list(window) for peer, window in self._intervals.items()}

    def contact_count_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(peer_ids, contact_counts)`` arrays (built on demand here).

        Interface parity with
        :meth:`~repro.contacts.history.ContactHistory.contact_count_arrays` so
        the graph builders accept either implementation; the reference store
        materializes fresh arrays from its dicts.
        """
        peers = np.fromiter(self._last_contact, dtype=np.int64,
                            count=len(self._last_contact))
        counts = np.fromiter((self._contact_counts[p] for p in peers),
                             dtype=np.int64, count=len(peers))
        return peers, counts

    def slot_of(self, peer_id: int) -> Optional[int]:
        """Row of *peer_id* in :meth:`interval_arrays` (first-met order)."""
        for slot, peer in enumerate(self._last_contact):
            if peer == int(peer_id):
                return slot
        return None

    def interval_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray]:
        """``(peer_ids, intervals, counts, last_contact)`` (built on demand).

        The same arrays as
        :meth:`~repro.contacts.history.ContactHistory.interval_arrays`, with
        every column at or past ``counts[row]`` zero, as there; fresh copies
        materialized from the deques.
        """
        peers = list(self._last_contact)
        intervals = np.zeros((len(peers), self.window_size), dtype=float)
        counts = np.zeros(len(peers), dtype=np.int64)
        for slot, peer in enumerate(peers):
            window = self._intervals.get(peer, ())
            counts[slot] = len(window)
            intervals[slot, :len(window)] = list(window)
        return (np.asarray(peers, dtype=np.int64), intervals, counts,
                np.asarray([self._last_contact[p] for p in peers],
                           dtype=float))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ContactHistoryReference(owner={self.owner_id}, "
                f"peers={len(self._last_contact)}, "
                f"intervals={self.total_intervals()})")


class ReferenceMessageBuffer:
    """The original sort-per-add message buffer.

    Behaviourally identical to :class:`~repro.net.buffer.MessageBuffer`
    (same evictions, same errors, same ordering); the oracle of the
    randomized parity tests and the baseline of the ``buffer_churn`` pair in
    ``repro bench``.
    """

    # same SoA mirror seam as MessageBuffer, so either implementation can
    # back a node without the store caring which one it is
    _mirror_store = None
    _mirror_row = -1

    def __init__(self, capacity: float = float("inf"),
                 drop_policy: DropPolicy = DropPolicy.OLDEST_RECEIVED,
                 protected: Optional[Callable[[Message], bool]] = None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.drop_policy = drop_policy
        self.protected = protected
        self._messages: Dict[str, Message] = {}
        self._occupancy = 0

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self._messages)

    def __contains__(self, message_id: str) -> bool:
        return message_id in self._messages

    def __iter__(self) -> Iterator[Message]:
        return iter(list(self._messages.values()))

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
        return self._messages.get(message_id)

    def messages(self) -> List[Message]:
        """Snapshot list of stored replicas in insertion order."""
        return list(self._messages.values())

    def message_ids(self) -> List[str]:
        """Snapshot list of stored message identifiers."""
        return list(self._messages.keys())

    def messages_for_destination(self, destination: int) -> List[Message]:
        """Stored replicas destined to *destination* (linear scan)."""
        destination = int(destination)
        return [m for m in self._messages.values()
                if m.destination == destination]

    # --------------------------------------------------------------- mutation
    def _eviction_order(self) -> List[Message]:
        msgs = [m for m in self._messages.values()
                if self.protected is None or not self.protected(m)]
        if self.drop_policy is DropPolicy.OLDEST_RECEIVED:
            return sorted(msgs, key=lambda m: m.received_time)
        if self.drop_policy is DropPolicy.OLDEST_CREATED:
            return sorted(msgs, key=lambda m: m.creation_time)
        if self.drop_policy is DropPolicy.SHORTEST_TTL:
            return sorted(msgs, key=lambda m: m.expiry_time)
        if self.drop_policy is DropPolicy.LARGEST:
            return sorted(msgs, key=lambda m: -m.size)
        return []

    def add(self, message: Message) -> List[Message]:
        """Store *message*, evicting per the drop policy if needed."""
        if message.message_id in self._messages:
            raise ValueError(f"message {message.message_id!r} is already buffered")
        if message.size > self.capacity:
            raise BufferFullError(
                f"message of {message.size} B exceeds buffer capacity {self.capacity} B")
        evicted: List[Message] = []
        if message.size > self.free_space:
            if self.drop_policy is DropPolicy.NO_DROP:
                raise BufferFullError("buffer full and drop policy is NO_DROP")
            for victim in self._eviction_order():
                if message.size <= self.free_space:
                    break
                self.remove(victim.message_id)
                evicted.append(victim)
            if message.size > self.free_space:
                raise BufferFullError(
                    "buffer cannot make enough room for incoming message")
        self._messages[message.message_id] = message
        self._occupancy += message.size
        if self._mirror_store is not None:
            self._mirror_store.mark_dirty(self._mirror_row)
        return evicted

    def remove(self, message_id: str) -> Optional[Message]:
        """Remove and return the replica with *message_id* (or ``None``)."""
        message = self._messages.pop(message_id, None)
        if message is not None:
            self._occupancy -= message.size
            if self._mirror_store is not None:
                self._mirror_store.mark_dirty(self._mirror_row)
        return message

    def drop_expired(self, now: float) -> List[Message]:
        """Remove and return every replica whose TTL elapsed by *now*."""
        expired = [m for m in self._messages.values() if m.is_expired(now)]
        for message in expired:
            self.remove(message.message_id)
        return expired

    def next_expiry(self) -> float:
        """Earliest TTL deadline of any stored replica (linear scan)."""
        if not self._messages:
            return float("inf")
        return min(m.expiry_time for m in self._messages.values())

    def clear(self) -> None:
        """Drop everything."""
        self._messages.clear()
        self._occupancy = 0
        if self._mirror_store is not None:
            self._mirror_store.mark_dirty(self._mirror_row)


# ------------------------------------------------------- estimator specs
def expected_encounter_value_reference(
        history, now: float, horizon: float,
        overdue_policy: OverduePolicy = OverduePolicy.REFRESH,
        peer_filter: Optional[np.ndarray] = None) -> float:
    """Theorem 1 peer by peer: the spec of
    :func:`~repro.core.expectation.expected_encounter_value`."""
    total = 0.0
    for peer in history.peers():
        if peer_filter is not None and not (
                0 <= peer < len(peer_filter) and peer_filter[peer]):
            continue
        total += conditional_encounter_probability(
            history.intervals(peer), history.elapsed_since(peer, now),
            horizon, overdue_policy)
    return total


def community_encounter_probability_reference(
        history, now: float, horizon: float, members: Iterable[int],
        overdue_policy: OverduePolicy = OverduePolicy.REFRESH) -> float:
    """Theorem 4 member by member: the spec of
    :func:`~repro.core.expectation.community_encounter_probability`."""
    miss = 1.0
    for member in members:
        if member == history.owner_id:
            continue
        elapsed = history.elapsed_since(member, now)
        if elapsed is None:
            continue
        p = conditional_encounter_probability(
            history.intervals(member), elapsed, horizon, overdue_policy)
        miss *= (1.0 - p)
    return 1.0 - miss


def build_delay_matrix_reference(
        history, mi: MeetingIntervalMatrix, now: float,
        overdue_policy: OverduePolicy = OverduePolicy.REFRESH,
        node_filter: Optional[np.ndarray] = None) -> np.ndarray:
    """The MD matrix with its own row filled peer by peer (Theorem 2): the
    spec of :func:`~repro.contacts.md_matrix.build_delay_matrix`."""
    n = mi.num_nodes
    if history.owner_id != mi.owner_id:
        raise ValueError("history and MI matrix belong to different nodes")
    own_row = np.full(n, np.inf)
    for peer in history.peers():
        if not 0 <= peer < n:
            continue
        emd = expected_meeting_delay(history.intervals(peer),
                                     history.elapsed_since(peer, now),
                                     overdue_policy)
        if emd is not None:
            own_row[peer] = emd
    return _delay_matrix(mi, own_row, node_filter)


def contact_graph_from_history_reference(histories: Iterable,
                                         min_contacts: int = 1) -> nx.Graph:
    """The aggregate contact graph edge by edge: the spec of
    :func:`~repro.community.graph.contact_graph_from_history`."""
    graph = nx.Graph()
    for history in histories:
        graph.add_node(history.owner_id)
        for peer in history.peers():
            count = history.contact_count(peer)
            if count < min_contacts:
                continue
            mean = history.mean_interval(peer)
            if graph.has_edge(history.owner_id, peer):
                # keep the larger count and the smaller mean: the sliding
                # windows may have trimmed the two sides differently
                existing = graph[history.owner_id][peer]
                existing["weight"] = max(existing["weight"], count)
                if mean is not None:
                    if existing.get("mean_interval") is None:
                        existing["mean_interval"] = mean
                    else:
                        existing["mean_interval"] = min(
                            existing["mean_interval"], mean)
            else:
                graph.add_edge(history.owner_id, peer, weight=count,
                               mean_interval=mean)
    return graph


def dijkstra_delays_reference(md: np.ndarray, source: int) -> np.ndarray:
    """Heap-based Dijkstra: the spec of the shortest-path kernel
    (:func:`~repro.contacts.paths.shortest_path_lengths`) and of
    :func:`~repro.contacts.memd.dijkstra_delays` in the tests."""
    md = _validate(md, source)
    n = md.shape[0]
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited = np.zeros(n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        for v in range(n):
            if v == u or visited[v]:
                continue
            w = md[u, v]
            if not np.isfinite(w):
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, int(v)))
    dist[source] = 0.0
    return dist
