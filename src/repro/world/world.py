"""The world update loop.

:class:`World` owns the nodes and, once per update interval (the paper's
``update interval`` setting), runs an explicit
:class:`~repro.world.pipeline.TickPipeline` of four named phases:

1. ``move`` — advance every node along its movement model (batched through
   :class:`~repro.mobility.engine.MovementEngine`: nodes inside a path
   segment or pause advance in one vectorized call, the rest through the
   per-follower loop),
2. ``connectivity`` — re-detect link pairs and raise link-up / link-down
   events,
3. ``transfers`` — progress in-flight transfers on every connection with
   queued transfers (one columnar sweep) and hand completed replicas to the
   receiving routers,
4. ``routers`` — run ``update`` on every router that is not provably idle,
   so it can expire TTLs and enqueue new transfers (one columnar sweep).

Each phase is wall-clock metered through the stats collector (see
``tick_phase_seconds``), which is how a run's telemetry attributes its
cost per stage.

The tick is kept allocation-free where it matters (see DESIGN.md): node
positions live in a single preallocated
:class:`~repro.world.positions.PositionStore` that movement mutates in
place, the connectivity detector is stateful and reuses its acceleration
structures across ticks, and link-up / link-down events are derived by
diffing sorted pair-code arrays instead of Python sets.

All statistics flow through a single :class:`~repro.metrics.collector.StatsCollector`.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.metrics.collector import StatsCollector
from repro.mobility.engine import MovementEngine
from repro.net.connection import Connection, Transfer
from repro.net.engine import TransferEngine
from repro.net.message import Message
from repro.routing.soa import RouterStateStore
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.world.connectivity import ConnectivityDetector, KDTreeConnectivity
from repro.world.node import DTNNode
from repro.world.pipeline import TickPhase, TickPipeline
from repro.world.positions import PositionStore

#: node ids are packed two-per-int64 for the sorted link diff
_MAX_NODE_ID = 2 ** 31 - 1
#: the unpacking operands, pre-typed (untyped Python ints cost every
#: small-array ufunc call a conversion)
_SHIFT = np.int64(32)
_MASK = np.int64(0xFFFFFFFF)


def _empty_codes() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _sorted_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a \\ b`` for sorted unique int arrays, without re-sorting.

    Equivalent to ``np.setdiff1d(a, b, assume_unique=True)`` but exploits
    that both inputs are already sorted (one ``searchsorted`` instead of a
    concatenate-and-sort), which the per-tick link diff calls twice.
    """
    if not len(a) or not len(b):
        return a
    idx = np.searchsorted(b, a)
    idx[idx == len(b)] = len(b) - 1
    return a[b[idx] != a]


def _pack_keys(keys: List[Tuple[int, int]]) -> np.ndarray:
    """Pack ``(id_lo, id_hi)`` key tuples into link codes (order kept: sorted
    keys pack to sorted codes)."""
    if not keys:
        return _empty_codes()
    pairs = np.array(keys, dtype=np.int64).reshape(len(keys), 2)
    return (pairs[:, 0] << 32) | pairs[:, 1]


def _bucket_events(buckets: Dict[int, List[Tuple[Connection, bool]]],
                   keys: List[Tuple[int, int]],
                   connections: List[Connection], downs: int) -> None:
    """Append ``(connection, up)`` to the bucket of both endpoints of every link.

    *keys* and *connections* list one diff's links, its *downs* tear-downs
    first, each group in ascending pair order.  Each bucket receives its
    events in that order.
    """
    bucket = buckets.setdefault
    for i, (a, b) in enumerate(keys):
        event = (connections[i], i >= downs)
        bucket(a, []).append(event)
        bucket(b, []).append(event)


def _decode_codes(codes: np.ndarray) -> List[Tuple[int, int]]:
    """Unpack sorted link codes into ascending ``(id_lo, id_hi)`` key tuples.

    Sorted codes unpack to keys in ascending pair order — the order the link
    dispatch contract requires.  The ``int64`` normalisation guarantees the
    ``tolist`` results are plain Python ints whatever the caller hands in:
    keys land in dicts holding up to 100k ids, where a stray ``np.int64``
    key would hash equal but cost an object per lookup.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if not len(codes):
        return []
    return list(zip((codes >> 32).tolist(), (codes & 0xFFFFFFFF).tolist()))


class World:
    """Container and update driver for a set of DTN nodes.

    The tick is the one production path described in DESIGN.md ("The world
    tick"): link diffs applied in bulk with batched contact statistics, the
    columnar :class:`~repro.net.engine.TransferEngine` transfers sweep and
    the struct-of-arrays :class:`~repro.routing.soa.RouterStateStore`
    routers sweep.  Its naive executable specification lives outside the
    production code, in :mod:`repro.testing.reference`.

    Parameters
    ----------
    simulator:
        The discrete-event engine the world schedules its update process on.
    update_interval:
        Seconds between world updates (the paper uses 0.1 s; the reproduction
        defaults to 1 s, see DESIGN.md).
    stats:
        Statistics collector; a fresh one is created if not supplied.
    detector:
        Connectivity detector implementation.
    """

    def __init__(self, simulator: Simulator, update_interval: float = 1.0,
                 stats: Optional[StatsCollector] = None,
                 detector: Optional[ConnectivityDetector] = None) -> None:
        if update_interval <= 0:
            raise ValueError("update_interval must be positive")
        self.simulator = simulator
        self.update_interval = float(update_interval)
        self.stats = stats if stats is not None else StatsCollector()
        self.detector = detector if detector is not None else KDTreeConnectivity()
        #: world-scoped shared services (e.g. the community provider all CR
        #: routers of this world consult); keyed by an arbitrary hashable
        self.services: Dict[object, object] = {}
        self._nodes: Dict[int, DTNNode] = {}
        self._node_order: List[DTNNode] = []
        self._positions = PositionStore()
        self.movement = MovementEngine(self._positions)
        self._connections: Dict[Tuple[int, int], Connection] = {}
        #: sorted int64 codes (id_lo << 32 | id_hi) of the live links
        self._link_codes = _empty_codes()
        self._conn_seq = 0
        #: connections whose queue went empty -> non-empty since the last
        #: transfers phase (fed by Connection.activity_sink)
        self._newly_active: List[Connection] = []
        #: columnar per-router state behind the routers phase (see
        #: repro.routing.soa)
        self.router_store = RouterStateStore()
        #: columnar in-flight transfer state behind the transfers phase; its
        #: rows are the set of connections holding queued transfers (see
        #: repro.net.engine)
        self.transfer_engine = TransferEngine()
        #: per-node caches rebuilt lazily after node registration
        self._ranges_cache: Optional[np.ndarray] = None
        self._ids_cache: Optional[np.ndarray] = None
        #: ``(ids in ascending order, their rows)``: the id -> row gather
        #: of the link diff
        self._id_index: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._id_tuple: Optional[Tuple[int, ...]] = None
        self._last_update = 0.0
        self.updates = 0
        #: the staged tick: every update runs these four phases in order,
        #: each metered into ``stats.tick_phase_seconds``
        self.pipeline = TickPipeline([
            TickPhase("move", self._phase_move),
            TickPhase("connectivity", self._phase_connectivity),
            TickPhase("transfers", self._phase_transfers),
            TickPhase("routers", self._phase_routers),
        ], stats=self.stats)
        self._process = PeriodicProcess(
            simulator, self.update_interval, self._update, priority=0)

    # ------------------------------------------------------------------ nodes
    def add_node(self, node: DTNNode) -> DTNNode:
        """Register *node* (its id must be unique) and return it.

        A one-element :meth:`add_nodes`.
        """
        self.add_nodes([node])
        return node

    def add_nodes(self, nodes: Iterable[DTNNode]) -> List[DTNNode]:
        """Register *nodes* in order (ids must be unique) and return them.

        Each node's path follower is re-bound onto this world's position
        store, so from here on the node moves by writing into its row of the
        world-wide position matrix.  The position store and the router store
        grow at most once per call.  Every node is validated before any is
        registered, so a rejected call leaves the world unchanged.
        """
        nodes = list(nodes)
        batch_ids = set()
        for node in nodes:
            node_id = node.node_id
            if node_id in self._nodes or node_id in batch_ids:
                raise ValueError(f"duplicate node id {node_id}")
            if node_id > _MAX_NODE_ID:
                raise ValueError(f"node id {node_id} exceeds {_MAX_NODE_ID}")
            if node.router is None:
                raise ValueError(f"node {node_id} has no router attached")
            batch_ids.add(node_id)
        positions = self._positions
        backing = positions.data
        start = positions.allocate(len(nodes))
        data = positions.data
        if data is not backing:
            # the store grew and reallocated: re-bind every existing follower
            # onto its (moved) row view
            for row, existing in enumerate(self._node_order):
                existing.follower.bind(data[row])
        for row, node in enumerate(nodes, start):
            # binding copies the follower's position into its new row
            node.follower.bind(data[row])
            self._nodes[node.node_id] = node
        self.movement.register_many([node.follower for node in nodes])
        self._node_order.extend(nodes)
        # SoA rows are appended in registration order, so store row index
        # == _node_order index == the serial loop's visit order
        self.router_store.register_many(nodes)
        self._ranges_cache = None
        self._ids_cache = None
        self._id_index = None
        self._id_tuple = None
        return nodes

    @property
    def nodes(self) -> List[DTNNode]:
        """All nodes in registration order."""
        return list(self._node_order)

    @property
    def num_nodes(self) -> int:
        """Number of registered nodes."""
        return len(self._node_order)

    def node_ids(self) -> List[int]:
        """All node ids in registration order."""
        return list(self.node_id_tuple)

    @property
    def node_id_tuple(self) -> Tuple[int, ...]:
        """All node ids in registration order, as one shared tuple.

        Built once per registration batch (traffic generators draw message
        endpoints from it for every created message).
        """
        if self._id_tuple is None:
            self._id_tuple = tuple(node.node_id for node in self._node_order)
        return self._id_tuple

    def get_node(self, node_id: int) -> DTNNode:
        """Look up a node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None

    def community_of(self, node_id: int) -> Optional[int]:
        """Community id of *node_id* (``None`` if unknown / not structured)."""
        node = self._nodes.get(node_id)
        return None if node is None else node.community

    def positions(self) -> np.ndarray:
        """``(n, 2)`` array of current node positions (registration order).

        This is a live, zero-copy view of the world's position store: it
        reflects movement as it happens and must not be mutated by callers.
        """
        return self._positions.view()

    def ranges(self) -> np.ndarray:
        """``(n,)`` array of per-node radio ranges (registration order).

        Cached: radios are assumed immutable for a node's lifetime
        (:class:`~repro.world.interface.Interface` is frozen, and swapping
        ``node.interface`` mid-run is unsupported — connectivity would keep
        using the range recorded at registration).
        """
        if self._ranges_cache is None or len(self._ranges_cache) != len(self._node_order):
            self._ranges_cache = np.array(
                [node.interface.transmit_range for node in self._node_order],
                dtype=float)
        return self._ranges_cache

    def _node_id_array(self) -> np.ndarray:
        if self._ids_cache is None or len(self._ids_cache) != len(self._node_order):
            self._ids_cache = np.array(
                [node.node_id for node in self._node_order], dtype=np.int64)
        return self._ids_cache

    def _rows_of(self, ids: np.ndarray) -> np.ndarray:
        """The rows (registration indices, == router store rows) of the
        registered node *ids* (any shape), through one gather over the
        id-sorted index (ids need not equal rows).

        Every id must be registered: the link diff passes only ids of this
        world's nodes, and a check would add three array calls to every
        tick's diff.
        """
        index = self._id_index
        if index is None:
            by_row = self._node_id_array()
            order = np.argsort(by_row, kind="stable")
            index = self._id_index = (by_row[order], order)
        sorted_ids, rows = index
        return rows[sorted_ids.searchsorted(ids)]

    # --------------------------------------------------------------- messages
    def create_message(self, source_id: int, message: Message) -> bool:
        """Inject an application message at its source node.

        Returns ``True`` if the source router accepted (buffered) it.
        """
        node = self.get_node(source_id)
        self.stats.message_created(message)
        assert node.router is not None
        return node.router.create_message(message)

    # ------------------------------------------------------------ connections
    @property
    def connections(self) -> List[Connection]:
        """All currently active connections."""
        return list(self._connections.values())

    def connection_between(self, a: int, b: int) -> Optional[Connection]:
        """The active connection between nodes *a* and *b*, if any."""
        return self._connections.get((min(a, b), max(a, b)))

    # ----------------------------------------------------------------- update
    def _update(self, simulator: Simulator) -> None:
        now = simulator.now
        dt = now - self._last_update
        self._last_update = now
        self.updates += 1
        if dt <= 0:
            return
        self.pipeline.run(now, dt)

    # one thin adapter per phase: the pipeline hands every stage the same
    # ``(now, dt)`` signature, subclass overrides of the underlying methods
    # (e.g. TraceReplayWorld._refresh_connectivity) keep working
    def _phase_move(self, now: float, dt: float) -> None:
        self._move_nodes(dt, now)

    def _phase_connectivity(self, now: float, dt: float) -> None:
        self._refresh_connectivity(now)

    def _phase_transfers(self, now: float, dt: float) -> None:
        self._advance_transfers(now, dt)

    def _phase_routers(self, now: float, dt: float) -> None:
        self._update_routers(now)

    def _move_nodes(self, dt: float, now: float) -> None:
        batched, loop = self.movement.advance(dt, now)
        self.stats.movement_split(batched, loop)

    def _refresh_connectivity(self, now: float) -> None:
        # sub-metered separately from the surrounding phase: the phase also
        # applies link events (world bookkeeping + router dispatch), and
        # ``connectivity.detect`` times the detector alone
        start = _perf_counter()
        index_pairs = self.detector.update(self.positions(), self.ranges())
        self.stats.tick_phase("connectivity.detect", _perf_counter() - start)
        if len(index_pairs):
            ids = self._node_id_array()
            a = ids[index_pairs[:, 0]]
            b = ids[index_pairs[:, 1]]
            codes = (np.minimum(a, b) << 32) | np.maximum(a, b)
            codes.sort()
        else:
            codes = _empty_codes()
        previous = self._link_codes
        if len(codes) == len(previous) and codes.tobytes() == previous.tobytes():
            return  # the same links as last tick: nothing to diff
        down_codes = _sorted_diff(previous, codes)
        up_codes = _sorted_diff(codes, previous)
        self._link_codes = codes
        self._apply_link_changes(down_codes, up_codes, now)

    def _apply_link_changes(self, down_codes: np.ndarray,
                            up_codes: np.ndarray, now: float) -> None:
        """Apply one tick's sorted link diff and notify listening routers.

        *down_codes* and *up_codes* are ascending link codes.  Phase 1
        performs the world-side bookkeeping in the deterministic event order
        (tear-downs in ascending pair order — aborting transfers and closing
        contacts — then establishments in ascending pair order); only the
        objects that change (connections, the link table, the endpoints'
        connection maps) are touched per link, and the router store takes
        the whole diff in bulk (:meth:`~repro.routing.soa.RouterStateStore.
        apply_link_diff`).  Phase 2 hands every endpoint whose router is a
        :attr:`~repro.routing.base.Router.link_listener` *all* of its link
        changes in one :meth:`~repro.routing.base.Router.
        batch_changed_connections` call, in ascending node-id order.
        Ascending dispatch preserves the contact-state exchange invariant
        (see :meth:`~repro.routing.active.ContactAwareRouter.
        is_exchange_initiator`): the larger-id endpoint of every new
        contact — the exchange initiator — is always notified after the
        smaller-id endpoint has folded the contact into its own state.
        """
        codes = (np.concatenate((down_codes, up_codes))
                 if len(down_codes) and len(up_codes)
                 else down_codes if len(down_codes) else up_codes)
        ids = np.empty((2, len(codes)), dtype=np.int64)
        np.right_shift(codes, _SHIFT, out=ids[0])
        np.bitwise_and(codes, _MASK, out=ids[1])
        store = self.router_store
        rows = self._rows_of(ids)
        downs = len(down_codes)
        keys = list(zip(*ids.tolist()))
        down_keys = keys[:downs]
        up_keys = keys[downs:]
        table = self._connections
        down_connections = []
        for key in down_keys:
            connection = table.pop(key)
            self._abort_transfers(connection, now)
            node_a = connection.node_a
            node_b = connection.node_b
            node_a.connections.pop(node_b.node_id, None)
            node_b.connections.pop(node_a.node_id, None)
            down_connections.append(connection)
        self.stats.contacts_closed(down_connections, now)
        nodes = self._nodes
        sink = self._newly_active
        seq = self._conn_seq
        up_connections = []
        for key in up_keys:
            node_a = nodes[key[0]]
            node_b = nodes[key[1]]
            connection = Connection(
                node_a, node_b, node_a.interface.link_bitrate(node_b.interface),
                now)
            seq += 1
            connection.established_seq = seq
            connection.activity_sink = sink
            table[key] = connection
            node_a.connections[key[1]] = connection
            node_b.connections[key[0]] = connection
            up_connections.append(connection)
        self._conn_seq = seq
        self.stats.contacts_opened(up_connections)
        # every endpoint wakes in the next routers phase (per-meeting
        # evaluation gates are consumed on that tick)
        store.apply_link_diff(rows, downs)
        events_by_node: Dict[int, List[Tuple[Connection, bool]]] = {}
        if store.listeners:
            # non-listeners in a mixed world are dropped at dispatch
            _bucket_events(events_by_node, keys,
                           down_connections + up_connections, downs)
        for node_id in sorted(events_by_node):
            router = nodes[node_id].router
            assert router is not None
            if router.link_listener:
                router.batch_changed_connections(events_by_node[node_id])

    def _abort_transfers(self, connection: Connection, now: float) -> None:
        """Tear *connection* down and report every transfer it aborted.

        The transfer engine lets go of the connection first, flushing the
        head transfer's authoritative byte count into the abort record.
        """
        self.transfer_engine.detach(connection)
        for transfer in connection.tear_down(now):
            self.stats.transfer_aborted(
                transfer.message, transfer.sender.node_id,
                transfer.receiver.node_id, now, transfer.bytes_left)
            assert transfer.sender.router is not None
            transfer.sender.router.transfer_aborted(transfer)

    def _link_up(self, key: Tuple[int, int], now: float) -> None:
        """Establish one link and notify both routers (single-event path)."""
        self._apply_link_changes(_empty_codes(), _pack_keys([key]), now)

    def _link_down(self, key: Tuple[int, int], now: float) -> None:
        """Tear down one link and notify both routers (single-event path)."""
        self._apply_link_changes(_pack_keys([key]), _empty_codes(), now)

    def _advance_transfers(self, now: float, dt: float) -> None:
        """Progress in-flight transfers on every connection that has any.

        O(connections with queued transfers), not O(live links): routers
        announce queue activity through ``Connection.activity_sink`` and the
        :class:`~repro.net.engine.TransferEngine` ingests the announcements,
        drains head-of-queue bytes in one vectorized sweep and replays only
        completed heads, in ascending ``established_seq`` order — the
        iteration order of the live-link table (dict insertion order ==
        establishment order, because a re-established key re-enters the
        table at the end with a fresh sequence number).
        """
        self.transfer_engine.sweep(self, now, dt)

    def _complete_transfer(self, transfer: Transfer, now: float) -> None:
        sender = transfer.sender
        receiver = transfer.receiver
        replica = transfer.message.replicate(transfer.copies, receiver.node_id, now)
        assert receiver.router is not None and sender.router is not None
        accepted = receiver.router.receive_message(replica, sender)
        final = replica.destination == receiver.node_id
        self.stats.message_relayed(replica, sender.node_id, receiver.node_id,
                                   now, transfer.copies, final)
        self.stats.transfer_completed(replica)
        # Only *accepted* arrivals at the destination count toward delivery
        # accounting; the collector dedupes repeat arrivals by message id
        # (first one is the delivery, later ones are duplicate_deliveries).
        if final and accepted:
            self.stats.message_delivered(replica, now)
        if accepted:
            sender.router.transfer_completed(transfer)

    def router_rebound(self, node: DTNNode) -> None:
        """Notification that a router was (re)attached to *node*.

        Called by :meth:`~repro.routing.base.Router.attach`; refreshes the
        node's SoA row so router-derived columns (skip safety, batch
        capability) never go stale across mid-run router swaps.  No-op when
        the node is not registered yet (the builders attach routers before
        ``add_nodes``).  The node's side of each live connection loses its
        per-contact routing state: the new router has evaluated nothing yet.
        """
        self.router_store.rebind(node)
        for connection in node.connections.values():
            connection.clear_side(node)

    def _update_routers(self, now: float) -> None:
        ticked, batched, skipped = self.router_store.sweep(self, now)
        self.stats.router_sweep(ticked, skipped, batched)

    # ------------------------------------------------------------ checkpoints
    def save_checkpoint(self, path: str, *, config=None, metadata=None):
        """Snapshot the full world state to *path* (see :mod:`repro.checkpoint`).

        Everything reachable from the world — simulator clock and event
        queue, RNG streams, routers, buffers, contact histories, community
        caches, live connections and the in-flight stats collector — is
        captured.  Returns the snapshot manifest.  Call at a tick boundary
        (i.e. not from inside a phase callback) so the restored run resumes
        on the exact event the original would have fired next.
        """
        from repro.checkpoint import save_checkpoint
        return save_checkpoint(self, path, config=config, metadata=metadata)

    @staticmethod
    def load_checkpoint(path: str) -> "World":
        """Restore a world (and its whole simulation) from a snapshot file.

        The returned world's ``simulator`` can simply ``run(until=...)``
        onward; resuming is byte-identical to never having stopped (pinned
        by :func:`repro.testing.assert_resume_equality`).  Use
        :func:`repro.checkpoint.load_checkpoint` instead when the manifest
        or the embedded scenario config is also needed.
        """
        from repro.checkpoint import load_checkpoint
        return load_checkpoint(path).world

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Pickling broke the one load-bearing aliasing relationship in the
        # graph: each follower's position was a row *view* of the position
        # matrix and came back as an independent copy.  Re-bind every
        # follower onto its row.  This is bit-exact — the copy holds the
        # same float64 patterns as the row.  The MovementEngine's fast-path
        # mirrors are plain arrays that round-trip as-is (they may be
        # *ahead* of the path scalars mid-flight, so they must not be
        # re-derived from the paths).
        for row, node in enumerate(self._node_order):
            node.follower.bind(self._positions.row(row))
        # Nodes pickle their connection maps empty (a node -> connection ->
        # peer node chain would make pickling recurse through the whole
        # contact graph).  The link table's order is establishment order,
        # so rebuilding from it gives every node its original dict order.
        nodes = self._nodes
        for (a, b), connection in self._connections.items():
            nodes[a].connections[b] = connection
            nodes[b].connections[a] = connection

    # ------------------------------------------------------------------ misc
    def stop(self) -> None:
        """Stop the periodic update process (used when tearing a world down)."""
        self._process.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"World({self.num_nodes} nodes, {len(self._connections)} links, "
                f"updates={self.updates})")
