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
    due, when it holds messages and has live contacts — for the batchable
    tiers only if its buffer ``changed`` since the last sweep or its row is
    ``fresh`` — or when it is the endpoint of a connection with queued
    transfers; every other row is provably idle (``skipped``).
``noop``
    awake rows whose ``update`` call is *provably* without observable
    effect, resolved in batch (counted as ``routers_batched``) instead of
    executed.  The proof rests on the :attr:`~repro.routing.base.Router.
    supports_batch_update` contract: an empty-buffer update of a batchable
    router is a no-op — unconditionally for the stateless tier, and on
    event-free ticks once the per-contact gates are consumed for the gated
    tier.  A freshly (re)attached router — or the live peer of one — may
    still hold unconsumed gates or unscanned contacts, so its row carries a
    ``fresh`` bit that forces Python execution until its next real update.

Everything not provably a no-op runs through the exact per-router
``Router.update`` in ascending row (= registration) order, which is the
reference loop's iteration order — so the event stream, and therefore every
report byte, is identical to the reference.  Mid-sweep wakes are honoured
the same way the reference loop honours them: when an executed router enqueues
the first transfer onto a previously idle connection (announced through
``Connection.activity_sink``), any *later* row among the endpoints is woken
— classified as batched when its no-op proof holds, otherwise merged into
the execution order through a min-heap.

A quiet tick never builds a mask.  The store keeps three summaries of its
columns — the number of rows that opt out of skipping, the number of loaded
rows on a live link that are not batchable or are fresh (the rows the
``awake`` term wakes with no event), and a lower bound on the earliest TTL
deadline — kept by registration, rebinds and every full sweep, which
re-derives the second from the mask it builds anyway.  When they are zero,
zero and in the future, and the tick brought no link event, no buffer
change and no transfer activity, no row can be awake and the sweep returns
at once.

Synchronisation seams (no polling, no per-tick rebuild):

* buffers push a dirty-row mark on every mutation
  (``MessageBuffer._mirror_store``); dirty rows are re-read once at sweep
  start, which is exact because buffers are static between the transfers
  phase and the routers phase; they are also the sweep's ``changed``
  rows;
* the world hands every tick's link diff over in bulk
  (:meth:`RouterStateStore.apply_link_diff`): one ``np.add.at`` per side
  of the diff on the live-connection counts, and the diff's endpoint rows
  become the sweep's ``event`` rows;
* router-derived columns (skip safety, batchability tier, link listening)
  refresh on ``Router.attach`` through ``World.router_rebound``.

The store pickles with the world and is covered by the resume-equality
contract (see ``repro.checkpoint``): its arrays, dirty set and row maps are
plain state, the quiet-tick summaries and the id index are re-derived on
restore, and the buffer mirrors survive the round trip because they are
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

#: the empty event-row set (never written to)
_NO_ROWS = np.empty(0, dtype=np.int64)
#: a live-connection count step, typed like the column (an untyped Python
#: int costs ``ufunc.at`` a conversion per call)
_ONE = np.int32(1)


def _router_flags(router) -> Tuple[bool, bool, bool, bool]:
    """The router-derived columns: skip safety, batchability, gating and
    link listening."""
    return (bool(router.idle_skip_safe),
            bool(getattr(router, "supports_batch_update", False)),
            bool(getattr(router, "batch_update_gated", False)),
            bool(getattr(router, "link_listener", True)))


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
        #: Router.link_listener: the world dispatches link events to the row
        self._listens = np.zeros(capacity, dtype=bool)
        #: row has never executed a Python update since its router, or the
        #: router of a live peer, was (re)attached: per-contact gates may be
        #: unconsumed and live contacts unscanned, so neither the gated
        #: no-op proof nor the batchable sleep on a live link applies yet
        self._fresh = np.zeros(capacity, dtype=bool)
        #: rows whose buffer mutated since the last sweep refresh
        self._dirty: set = set()
        #: endpoint rows of the link events since the last sweep (a wake
        #: condition; repeats allowed)
        self._event_rows = _NO_ROWS
        #: quiet-tick summary: rows whose router opts out of skipping
        self._unsafe = 0
        #: quiet-tick summary: rows of _forced_mask
        self._forced = 0
        #: quiet-tick summary: a lower bound on the earliest buffered TTL
        #: deadline (lowered as refreshed rows report earlier deadlines,
        #: recomputed by the full sweep once it has passed)
        self._next_due = np.inf
        #: rows whose router listens to link events (none spares the link
        #: dispatch its event buckets)
        self.listeners = 0

    # ---------------------------------------------------------- summaries
    # Derived from the columns and never pickled (``__setstate__``
    # re-derives them).  Registration and rebinds keep them exact, and so
    # does every full sweep: it re-reads the dirty rows (lowering
    # ``_next_due``), re-derives ``_forced`` from its mask and clears fresh
    # bits.  Link diffs leave ``_forced`` stale until that next full
    # sweep, which a link change always forces (see ``apply_link_diff``).
    _SUMMARIES = ("_unsafe", "_forced", "_next_due", "listeners")

    def _forced_mask(self, rows: slice) -> np.ndarray:
        """Loaded rows on a live link that wake with no event: not batchable,
        or fresh."""
        return ((self._count[rows] > 0) & (self._conns[rows] > 0)
                & (~self._batchable[rows] | self._fresh[rows]))

    def _forces(self, row: int) -> bool:
        """One row of :meth:`_forced_mask`."""
        return bool(self._count[row] and self._conns[row]
                    and (self._fresh[row] or not self._batchable[row]))

    def _derive_summaries(self) -> None:
        """Recompute every summary from the columns."""
        rows = slice(0, len(self._nodes))
        self._unsafe = int(np.count_nonzero(~self._idle_safe[rows]))
        self.listeners = int(np.count_nonzero(self._listens[rows]))
        self._forced = int(np.count_nonzero(self._forced_mask(rows)))
        self._next_due = (float(self._expiry[rows].min()) if self._nodes
                          else np.inf)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._SUMMARIES:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derive_summaries()

    def __len__(self) -> int:
        return len(self._nodes)

    # ---------------------------------------------------------- registration
    def _grow(self, rows: int) -> None:
        """Make every column hold at least *rows* rows (at least doubling)."""
        capacity = max(rows, 2 * len(self._count), _INITIAL_CAPACITY)
        for name in ("_count", "_expiry", "_conns", "_idle_safe",
                     "_batchable", "_gated", "_listens", "_fresh"):
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
        forced = 0
        next_due = self._next_due
        for row, node in enumerate(nodes, start):
            row_of[node.node_id] = row
            buffer = node.buffer
            buffer._mirror_store = self
            buffer._mirror_row = row
            stored = len(buffer)
            due = buffer.next_expiry() if stored else np.inf
            live = len(node.connections)
            buffers.append((stored, due, live))
            flags.append(_router_flags(node.router))
            # every new row is fresh: loaded and live is forced
            if stored and live:
                forced += 1
            if due < next_due:
                next_due = due
        self._nodes.extend(nodes)
        if nodes:
            rows = slice(start, end)
            (self._count[rows], self._expiry[rows],
             self._conns[rows]) = zip(*buffers)
            (self._idle_safe[rows], self._batchable[rows],
             self._gated[rows], self._listens[rows]) = zip(*flags)
            self._fresh[rows] = True
            self._unsafe += len(nodes) - int(
                np.count_nonzero(self._idle_safe[rows]))
            self.listeners += int(np.count_nonzero(self._listens[rows]))
            self._forced += forced
            self._next_due = next_due
        return start

    def _mark_fresh(self, row: int) -> None:
        forced = self._forces(row)
        self._fresh[row] = True
        self._forced += self._forces(row) - forced

    def _refresh_router(self, row: int, router) -> None:
        forced = self._forces(row)
        unsafe = not self._idle_safe[row]
        listens = self._listens[row]
        (self._idle_safe[row], self._batchable[row], self._gated[row],
         self._listens[row]) = _router_flags(router)
        self._fresh[row] = True
        self._unsafe += (not self._idle_safe[row]) - unsafe
        self.listeners += int(self._listens[row]) - int(listens)
        self._forced += self._forces(row) - forced

    def rebind(self, node: "DTNNode") -> None:
        """Refresh router-derived columns after a router (re)attach.

        The rows of the node's live peers turn fresh too: their routers
        skip the per-contact evaluation of a peer running another protocol
        (EER, CR and EBR evaluate only their own kind), so the gate of
        that contact may be unconsumed, and the new router's
        ``delivered_here`` set is new to their deliverable offers.

        No-op for unregistered nodes: the scenario builders attach routers
        *before* ``World.add_nodes`` registers the row, and an unregistered
        node that reuses a registered id must not touch that node's row.
        """
        row = self._row.get(node.node_id)
        if row is not None and self._nodes[row] is node:
            self._refresh_router(row, node.router)
            for peer_id in node.connections:
                peer_row = self._row.get(peer_id)
                if peer_row is not None:
                    self._mark_fresh(peer_row)

    # -------------------------------------------------------------- sync seams
    def mark_dirty(self, row: int) -> None:
        """Buffer mutation hook: re-read this row's buffer columns next sweep."""
        self._dirty.add(row)

    def apply_link_diff(self, rows: np.ndarray, downs: int) -> None:
        """Book one link diff: *rows* holds the ``(2, k)`` endpoint rows of
        its links, the first *downs* of them torn down, the rest new.

        Moves the live-connection counts with one ``np.add.at`` per side of
        the diff and adds every endpoint to the next sweep's event rows.
        Leaves ``_forced`` stale: the event rows force the next sweep onto
        the full path, which re-derives it before anything reads it.
        """
        if downs:
            np.subtract.at(self._conns, rows[:, :downs], _ONE)
        if downs < rows.shape[1]:
            np.add.at(self._conns, rows[:, downs:], _ONE)
        endpoints = rows.ravel()
        self._event_rows = (np.concatenate((self._event_rows, endpoints))
                            if len(self._event_rows) else endpoints)

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
        expiry = self._expiry
        next_due = self._next_due
        for row in changed:
            buffer = nodes[row].buffer
            stored = len(buffer)
            count[row] = stored
            if stored:
                due = buffer.next_expiry()
                expiry[row] = due
                if due < next_due:
                    next_due = due
            else:
                expiry[row] = np.inf
        self._next_due = next_due
        self._dirty.clear()
        return changed

    # -------------------------------------------------------------- the sweep
    def quiet(self, world: "World", now: float) -> bool:
        """Whether no row can wake this tick: an O(1) test of the summaries.

        True only when the tick brought no link event and no buffer change,
        no connection holds or announced queued transfers, no row is forced
        awake (opted out of skipping, or loaded on a live link while not
        batchable or fresh) and no buffered TTL is due.  Every term of the
        ``awake`` mask is then false on every row.
        """
        return (not len(self._event_rows) and not self._dirty
                and not self._unsafe and not self._forced
                and self._next_due > now
                and not world._newly_active and not len(world.transfer_engine))

    def _wake_masks(self, world: "World", now: float,
                    changed: List[int]) -> Tuple[np.ndarray, np.ndarray]:
        """The ``awake`` and ``noop`` masks over the registered rows.

        Also re-derives ``_forced`` from the forced rows' mask it builds.
        """
        n = len(self._nodes)
        rows = slice(0, n)
        empty = self._count[rows] == 0
        batchable = self._batchable[rows]
        gated = self._gated[rows]

        event = np.zeros(n, dtype=bool)
        if len(self._event_rows):
            event[self._event_rows] = True

        # endpoints of connections with queued transfers: the serial
        # predicate's defensive wake for empty-buffer routers.  Every such
        # connection holds a transfer-engine row (up with a non-empty queue
        # by invariant; the engine keeps its endpoint rows) or announced
        # itself through activity_sink since the transfers phase, so this is
        # the complete set — stale announcements are filtered exactly like
        # the engine's ingest filters them.
        queued = np.zeros(n, dtype=bool)
        if len(world.transfer_engine):
            for endpoints in world.transfer_engine.endpoint_rows():
                queued[endpoints] = True
        row_of = self._row
        for connection in world._newly_active:
            if connection.is_up and connection.has_queued:
                queued[row_of[connection.node_a.node_id]] = True
                queued[row_of[connection.node_b.node_id]] = True

        # a loaded batchable row on a live link sleeps unless it is fresh or
        # its buffer changed: its last executed update already decided every
        # buffered message on every live contact, per contact or through
        # the consumed gate (link events and due TTLs wake it separately)
        forced = self._forced_mask(rows)
        self._forced = int(np.count_nonzero(forced))
        awake = (event | ~self._idle_safe[rows] | forced
                 | (~empty & (self._expiry[rows] <= now))
                 | (empty & queued))
        count = self._count
        conns = self._conns
        for row in changed:
            if count[row] and conns[row]:
                awake[row] = True
        # the no-op proof: stateless batchable rows need only an empty
        # buffer; gated rows additionally need an event-free tick and
        # consumed gates (~fresh)
        noop = awake & empty & batchable & (
            ~gated | (~event & ~self._fresh[rows]))
        return awake, noop

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
        if self.quiet(world, now):
            return 0, 0, n
        changed = self._refresh_dirty()
        if self._next_due <= now:
            # the bound may be stale (an earlier deadline left the buffer):
            # tighten it so the following quiet ticks can pass the guard
            self._next_due = float(self._expiry[:n].min())
        awake, noop = self._wake_masks(world, now, changed)
        self._event_rows = _NO_ROWS
        batched = int(np.count_nonzero(noop))
        run_rows = np.flatnonzero(awake & ~noop).tolist()

        count = self._count
        conns = self._conns
        batchable = self._batchable
        gated = self._gated
        fresh = self._fresh
        row_of = self._row
        newly = world._newly_active
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
            if fresh[row]:
                fresh[row] = False
                if count[row] and conns[row] and batchable[row]:
                    self._forced -= 1
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
                            # loaded non-batchable endpoint of a live link
                            # is awake already, and a sleeping batchable
                            # one only re-offers transfers queued toward
                            # its peers, which the peer's enqueue does not
                            # add
                            continue
                        awake[other] = True
                        if batchable[other] and (
                                not gated[other] or not fresh[other]):
                            batched += 1
                        else:
                            heapq.heappush(late, other)
                seen_newly = len(newly)
        return ticked, batched, n - ticked - batched
