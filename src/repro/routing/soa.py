"""Struct-of-arrays router state: the vectorized routers-phase sweep.

The naive routers phase (the reference tick in :mod:`repro.testing.
reference`) calls ``Router.update`` on every router, every tick — at 100k
nodes, where ~83% of routers are idle, almost all of those calls are
provable no-ops.  :class:`RouterStateStore` keeps the state that proves it
in columnar NumPy arrays (one row per node, registration order), so the
whole wake predicate is a handful of vectorized masks (DESIGN.md, "The idle
router contract"):

``awake``
    a router wakes on a link event this tick, when it opts out of skipping
    (``Router.idle_skip_safe`` False), when it holds messages and has a TTL
    due, when it holds messages and has live contacts — for the stateless
    tier (direct, epidemic) only if its buffer ``changed`` since the last
    sweep or its row is ``fresh`` — or when it is the endpoint of a
    connection with queued transfers; every other row is provably idle
    (``skipped``).
``noop``
    awake rows whose ``update`` call is *provably* without observable
    effect, resolved in batch (counted as ``routers_batched``) instead of
    executed.  The proof rests on the :attr:`~repro.routing.base.Router.
    supports_batch_update` contract: an empty-buffer update of a batchable
    router is a no-op — unconditionally for the stateless tier, and on
    event-free ticks once the per-contact gates are consumed for the gated
    tier (first-contact, spray-and-wait).  A freshly (re)attached router may
    still hold unconsumed gates or unscanned contacts, so its row carries a
    ``fresh`` bit that forces Python execution until its first real update.

Everything not provably a no-op runs through the exact per-router
``Router.update`` in ascending row (= registration) order, which is the
reference loop's iteration order — so the event stream, and therefore every
report byte, is identical to the reference.  Mid-sweep wakes are honoured
the same way the reference loop honours them: when an executed router enqueues
the first transfer onto a previously idle connection (announced through
``Connection.activity_sink``), any *later* row among the endpoints is woken
— classified as batched when its no-op proof holds, otherwise merged into
the execution order through a min-heap.

Synchronisation seams (no polling, no per-tick rebuild):

* buffers push a dirty-row mark on every mutation
  (``MessageBuffer._mirror_store``); dirty rows are re-read once at sweep
  start, which is exact because buffers are static between the transfers
  phase and the routers phase; they are also the sweep's ``changed``
  rows;
* live-connection counts are maintained incrementally by the world's
  ``_establish_link`` / ``_teardown_link``;
* router-derived columns (skip safety, batchability tier) refresh on
  ``Router.attach`` through ``World.router_rebound``.

The store pickles with the world and is covered by the resume-equality
contract (see ``repro.checkpoint``): its arrays, dirty set and row maps are
plain state, and the buffer mirrors survive the round trip because they are
ordinary attributes on the buffer objects.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.world.node import DTNNode
    from repro.world.world import World

__all__ = ["RouterStateStore"]

#: initial rows per column; doubled on demand
_INITIAL_CAPACITY = 64


def _router_flags(router) -> Tuple[bool, bool, bool]:
    """The router-derived columns: skip safety, batchability, gating."""
    return (bool(router.idle_skip_safe),
            bool(getattr(router, "supports_batch_update", False)),
            bool(getattr(router, "batch_update_gated", False)))


class RouterStateStore:
    """Columnar per-router state driving the vectorized routers phase.

    One row per registered node, in registration order — the same order the
    serial router loop iterates, which is what makes ascending-row execution
    of the non-batchable remainder bit-exact.
    """

    def __init__(self) -> None:
        #: node id -> row index
        self._row: Dict[int, int] = {}
        #: row index -> node (same objects the world owns)
        self._nodes: List["DTNNode"] = []
        capacity = _INITIAL_CAPACITY
        #: buffered replica count (mirrors ``len(node.buffer)``)
        self._count = np.zeros(capacity, dtype=np.int64)
        #: buffered bytes (mirrors ``node.buffer.occupancy``)
        self._occupancy = np.zeros(capacity, dtype=np.int64)
        #: earliest TTL deadline of any buffered replica (inf when empty)
        self._expiry = np.full(capacity, np.inf)
        #: live connection count (maintained by the world's link bookkeeping)
        self._conns = np.zeros(capacity, dtype=np.int32)
        #: Router.idle_skip_safe
        self._idle_safe = np.ones(capacity, dtype=bool)
        #: Router.supports_batch_update
        self._batchable = np.zeros(capacity, dtype=bool)
        #: Router.batch_update_gated (meaningful only where batchable)
        self._gated = np.zeros(capacity, dtype=bool)
        #: row has never executed a Python update since its router was
        #: (re)attached: per-contact gates may be unconsumed and live
        #: contacts unscanned, so neither the gated no-op proof nor the
        #: stateless sleep on a live link applies yet
        self._fresh = np.zeros(capacity, dtype=bool)
        #: rows whose buffer mutated since the last sweep refresh
        self._dirty: set = set()

    def __len__(self) -> int:
        return len(self._nodes)

    # ---------------------------------------------------------- registration
    def _grow(self, rows: int) -> None:
        """Make every column hold at least *rows* rows (at least doubling)."""
        capacity = max(rows, 2 * len(self._count), _INITIAL_CAPACITY)
        for name in ("_count", "_occupancy", "_expiry", "_conns",
                     "_idle_safe", "_batchable", "_gated", "_fresh"):
            old = getattr(self, name)
            grown = np.zeros(capacity, dtype=old.dtype)
            if name == "_expiry":
                grown[:] = np.inf
            elif name == "_idle_safe":
                grown[:] = True
            grown[:len(old)] = old
            setattr(self, name, grown)

    def register(self, node: "DTNNode") -> int:
        """Add *node* as the next row; returns its row index."""
        return self.register_many([node])

    def register_many(self, nodes: List["DTNNode"]) -> int:
        """Add *nodes* as the next rows, in order; returns the first row.

        Binds each buffer's dirty-mark mirror and fills every column with
        one slice assignment; the columns grow at most once.
        """
        row_of = self._row
        start = len(self._nodes)
        end = start + len(nodes)
        ids = {node.node_id for node in nodes}
        if len(ids) != len(nodes) or not ids.isdisjoint(row_of):
            raise ValueError("a node is registered twice")
        if end > len(self._count):
            self._grow(end)
        buffers = []
        flags = []
        for row, node in enumerate(nodes, start):
            row_of[node.node_id] = row
            buffer = node.buffer
            buffer._mirror_store = self
            buffer._mirror_row = row
            stored = len(buffer)
            buffers.append((stored, buffer.occupancy,
                            buffer.next_expiry() if stored else np.inf,
                            len(node.connections)))
            flags.append(_router_flags(node.router))
        self._nodes.extend(nodes)
        if nodes:
            rows = slice(start, end)
            (self._count[rows], self._occupancy[rows], self._expiry[rows],
             self._conns[rows]) = zip(*buffers)
            (self._idle_safe[rows], self._batchable[rows],
             self._gated[rows]) = zip(*flags)
            self._fresh[rows] = True
        return start

    def _refresh_router(self, row: int, router) -> None:
        (self._idle_safe[row], self._batchable[row],
         self._gated[row]) = _router_flags(router)
        self._fresh[row] = True

    def rebind(self, node: "DTNNode") -> None:
        """Refresh router-derived columns after a router (re)attach.

        No-op for unregistered nodes: the scenario builders attach routers
        *before* ``World.add_nodes`` registers the row, and an unregistered
        node that reuses a registered id must not touch that node's row.
        """
        row = self._row.get(node.node_id)
        if row is not None and self._nodes[row] is node:
            self._refresh_router(row, node.router)

    # -------------------------------------------------------------- sync seams
    def mark_dirty(self, row: int) -> None:
        """Buffer mutation hook: re-read this row's buffer columns next sweep."""
        self._dirty.add(row)

    def link_delta(self, id_a: int, id_b: int, delta: int) -> None:
        """Apply a live-connection count change to both endpoints."""
        row = self._row.get(id_a)
        if row is not None:
            self._conns[row] += delta
        row = self._row.get(id_b)
        if row is not None:
            self._conns[row] += delta

    def _refresh_dirty(self) -> List[int]:
        """Re-read the dirty rows' buffer columns and clear the dirty set.

        Returns this sweep's ``changed`` rows: those whose buffer mutated
        since the previous refresh (a sparse mask; usually a handful).
        """
        changed = list(self._dirty)
        if not changed:
            return changed
        nodes = self._nodes
        count = self._count
        occupancy = self._occupancy
        expiry = self._expiry
        for row in changed:
            buffer = nodes[row].buffer
            stored = len(buffer)
            count[row] = stored
            occupancy[row] = buffer.occupancy
            expiry[row] = buffer.next_expiry() if stored else np.inf
        self._dirty.clear()
        return changed

    # -------------------------------------------------------------- the sweep
    def sweep(self, world: "World", now: float) -> Tuple[int, int, int]:
        """Run one routers phase; returns ``(ticked, batched, skipped)``.

        ``ticked`` rows executed a real ``Router.update``; ``batched`` rows
        were awake but resolved as provable no-ops by the masks; ``skipped``
        rows were provably idle under the wake predicate.  The three always sum
        to the node count.
        """
        n = len(self._nodes)
        if n == 0:
            return 0, 0, 0
        changed = self._refresh_dirty()
        count = self._count[:n]
        expiry = self._expiry[:n]
        conns = self._conns[:n]
        idle_safe = self._idle_safe[:n]
        batchable = self._batchable[:n]
        gated = self._gated[:n]
        fresh = self._fresh[:n]
        empty = count == 0

        event = np.zeros(n, dtype=bool)
        if world._router_events:
            row_of = self._row
            for node_id in world._router_events:
                row = row_of.get(node_id)
                if row is not None:
                    event[row] = True

        # endpoints of connections with queued transfers: the serial
        # predicate's defensive wake for empty-buffer routers.  Every such
        # connection holds a transfer-engine row (up with a non-empty queue
        # by invariant) or announced itself through activity_sink since the
        # transfers phase, so this is the complete set — stale announcements
        # are filtered exactly like the engine's ingest filters them.
        queued = np.zeros(n, dtype=bool)
        newly = world._newly_active
        row_of = self._row
        engine = world.transfer_engine
        busy = engine.connections() if len(engine) else []
        busy += [c for c in newly if c.is_up and c.has_queued]
        for connection in busy:
            row = row_of.get(connection.node_a.node_id)
            if row is not None:
                queued[row] = True
            row = row_of.get(connection.node_b.node_id)
            if row is not None:
                queued[row] = True

        # a loaded stateless row (batchable, not gated) on a live link
        # sleeps unless it is fresh or its buffer changed: its last executed
        # update already decided every buffered message on every live
        # contact (link events and due TTLs wake it separately)
        awake = (event | ~idle_safe
                 | (~empty & (((conns > 0) & (gated | ~batchable | fresh))
                              | (expiry <= now)))
                 | (empty & queued))
        for row in changed:
            if count[row] and conns[row]:
                awake[row] = True
        # the no-op proof: stateless batchable rows need only an empty
        # buffer; gated rows additionally need an event-free tick and
        # consumed gates (~fresh)
        noop = awake & empty & batchable & (~gated | (~event & ~fresh))
        batched = int(np.count_nonzero(noop))
        run_rows = np.flatnonzero(awake & ~noop).tolist()

        nodes = self._nodes
        ticked = 0
        late: List[int] = []
        run_idx = 0
        run_len = len(run_rows)
        seen_newly = len(newly)
        while run_idx < run_len or late:
            if late and (run_idx >= run_len or late[0] < run_rows[run_idx]):
                row = heapq.heappop(late)
            else:
                row = run_rows[run_idx]
                run_idx += 1
            node = nodes[row]
            assert node.router is not None
            node.router.update(now)
            fresh[row] = False
            ticked += 1
            if len(newly) != seen_newly:
                # this router enqueued the first transfer(s) onto previously
                # idle connection(s): later rows among the endpoints wake,
                # exactly as the serial loop would observe when it reaches
                # them (earlier rows were already decided and stay decided)
                for connection in newly[seen_newly:]:
                    for endpoint in (connection.node_a, connection.node_b):
                        other = row_of.get(endpoint.node_id)
                        if other is None or other <= row or awake[other]:
                            continue
                        if count[other] != 0:
                            # loaded rows wake on contacts/TTL only: a
                            # loaded non-stateless endpoint of a live link
                            # is awake already, and a sleeping stateless
                            # one checks only transfers queued toward its
                            # peer, which the peer's enqueue does not add
                            continue
                        awake[other] = True
                        if batchable[other] and (
                                not gated[other] or not fresh[other]):
                            batched += 1
                        else:
                            heapq.heappush(late, other)
                seen_newly = len(newly)
        return ticked, batched, n - ticked - batched
