"""Columnar in-flight transfer state: the vectorized transfers-phase sweep.

The naive transfers phase (the reference tick in :mod:`repro.testing.
reference`) scans every live link and drains bytes through per-object Python
(``Connection.advance``): a method call, a deque peek and a handful of float
ops per link per tick.  Under traffic load — the ``rwp-10k-traffic``
workload keeps thousands of links busy at once — that loop *is* the
transfers phase.

:class:`TransferEngine` moves the per-link accounting into struct-of-arrays
columns, one row per connection that currently holds queued transfers:

``bytes_left``
    remaining bytes of the head-of-queue transfer (the only transfer the
    FIFO link model ever drains),
``bitrate``
    the link speed fixed at establishment,
``seq``
    the connection's ``established_seq`` (the historical processing order),
``row_a`` / ``row_b``
    the endpoints' rows in the world's router store, filled at attach (the
    routers sweep wakes the endpoints of busy connections from them).

The sweep is then one vectorized subtraction::

    remaining = bytes_left - bitrate * dt
    done      = remaining <= 1e-9      # the reference loop's epsilon

Rows whose head did **not** complete take the pure-array path — and the
subtraction is the *identical* IEEE-754 operation the reference loop
performs (``moved = min(budget, bytes_left)`` equals ``budget`` there, so
``bytes_left -= moved`` is the same float subtract).  Rows whose head *did*
complete fall back to an exact replay: the head transfer's pre-sweep byte
count is restored and ``Connection.advance`` — the unchanged reference
drain — runs for just that connection, handling multi-transfer completion,
state transitions and leftover budget bit-for-bit.  Completed rows are
replayed in ascending ``established_seq`` order, so completion dispatch
(router hand-off, first-accepted-arrival dedupe, every stats record) happens
in the reference tick's iteration order and reports are byte-identical to
the reference's.

Synchronisation is push-seam, mirroring ``RouterStateStore`` (no polling):

* a connection announces its queue going empty -> non-empty through
  ``Connection.activity_sink`` (the world's ``_newly_active`` feed); the sweep
  ingests those rows first,
* the world calls :meth:`TransferEngine.detach` before it tears a
  connection down, which flushes the head's authoritative byte count back into the ``Transfer``
  object *before* the abort list is built (stats record ``bytes_left``),
* the sweep itself removes rows whose queue drained.

Between sweeps the engine's column — not the head ``Transfer`` object — is
authoritative for the head's remaining bytes; every seam that hands the
object back to Python (tear-down, replay) flushes first.  No transfer is
ever enqueued *during* the transfers phase (sends happen in router hooks),
so the row set only shrinks mid-sweep.

The engine pickles with the world (rows, columns and the fresh-head list
are plain state keyed by ``established_seq``, which survives a round trip
unlike object ids) and is covered by the resume-equality contract — see
``repro.checkpoint``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, TYPE_CHECKING

import numpy as np

from repro.net.connection import Connection, TransferState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.world.world import World

__all__ = ["TransferEngine"]

#: initial rows per column; doubled on demand
_INITIAL_CAPACITY = 64

#: the reference loop's completion epsilon (Connection.advance)
_EPSILON = 1e-9


class TransferEngine:
    """Columnar per-connection state driving the vectorized transfers phase.

    One row per connection holding queued transfers, keyed by
    ``established_seq`` (world-assigned, unique per establishment, and
    stable across a checkpoint round trip, unlike object ids).
    """

    def __init__(self) -> None:
        #: established_seq -> row index
        self._row: Dict[int, int] = {}
        #: row index -> connection (the same objects the world owns)
        self._conns: List[Connection] = []
        capacity = _INITIAL_CAPACITY
        #: remaining bytes of the head-of-queue transfer (authoritative
        #: between sweeps; flushed into the Transfer object on detach/replay)
        self._bytes_left = np.zeros(capacity)
        #: link bytes per second, fixed at establishment
        self._bitrate = np.zeros(capacity)
        #: the row's established_seq (int64 copy of the dict key, for the
        #: seq-ordered completion replay)
        self._seq = np.zeros(capacity, dtype=np.int64)
        #: router-store rows of the connection's node_a and node_b
        self._row_a = np.zeros(capacity, dtype=np.int64)
        self._row_b = np.zeros(capacity, dtype=np.int64)
        #: sequence numbers whose head transfer is still PENDING and must be
        #: marked IN_PROGRESS at the start of the next sweep — exactly when
        #: the reference loop's next ``advance`` call would mark it
        self._fresh: List[int] = []
        #: lifetime counters (observability; not part of canonical reports)
        self.rows_attached = 0
        self.rows_completed = 0

    def __len__(self) -> int:
        """Number of active rows == connections with queued transfers."""
        return len(self._conns)

    def connections(self) -> List[Connection]:
        """The connections currently holding rows (arbitrary order).

        Every returned connection is up and has queued transfers — rows are
        removed eagerly on tear-down and drain — so callers evaluating wake
        predicates (the SoA router sweep) need no stale-entry filtering.
        """
        return list(self._conns)

    def endpoint_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Router-store rows of the busy connections' ``node_a`` and
        ``node_b`` endpoints (views, one entry per active row)."""
        n = len(self._conns)
        return self._row_a[:n], self._row_b[:n]

    def head_bytes_left(self, connection: Connection) -> float:
        """Authoritative remaining bytes of *connection*'s head transfer.

        Raises ``KeyError`` when the connection holds no row.
        """
        return float(self._bytes_left[self._row[connection.established_seq]])

    # ------------------------------------------------------------- row seams
    def _grow(self) -> None:
        capacity = max(2 * len(self._bytes_left), _INITIAL_CAPACITY)
        for name in ("_bytes_left", "_bitrate", "_seq", "_row_a", "_row_b"):
            old = getattr(self, name)
            grown = np.zeros(capacity, dtype=old.dtype)
            grown[:len(old)] = old
            setattr(self, name, grown)

    def _attach(self, connection: Connection,
                store_rows: Dict[int, int]) -> None:
        """Add a row for *connection* (its queue is non-empty); *store_rows*
        maps node ids to router-store rows."""
        row = len(self._conns)
        if row == len(self._bytes_left):
            self._grow()
        seq = connection.established_seq
        queue = connection._queue
        self._conns.append(connection)
        self._row[seq] = row
        self._bytes_left[row] = queue[0].bytes_left
        self._bitrate[row] = connection.bitrate
        self._seq[row] = seq
        self._row_a[row] = store_rows[connection.node_a.node_id]
        self._row_b[row] = store_rows[connection.node_b.node_id]
        self._fresh.append(seq)
        self.rows_attached += 1

    def _remove_row(self, row: int) -> None:
        """Swap-remove *row*, keeping the columns dense."""
        last = len(self._conns) - 1
        seq = int(self._seq[row])
        if row != last:
            self._conns[row] = self._conns[last]
            self._bytes_left[row] = self._bytes_left[last]
            self._bitrate[row] = self._bitrate[last]
            self._seq[row] = self._seq[last]
            self._row_a[row] = self._row_a[last]
            self._row_b[row] = self._row_b[last]
            self._row[int(self._seq[row])] = row
        self._conns.pop()
        del self._row[seq]

    def detach(self, connection: Connection) -> None:
        """Tear-down seam: flush the head's bytes and drop the row.

        Called by the world *before* ``Connection.tear_down`` drains the
        queue, so the aborted head ``Transfer`` carries the authoritative
        remaining byte count into the stats record.  No-op when the
        connection holds no row (nothing was queued).
        """
        row = self._row.get(connection.established_seq)
        if row is None:
            return
        queue = connection._queue
        if queue:
            queue[0].bytes_left = float(self._bytes_left[row])
        self._remove_row(row)

    def _reload(self, connection: Connection) -> None:
        """Refresh *connection*'s row from its queue after a replay."""
        seq = connection.established_seq
        row = self._row[seq]
        queue = connection._queue
        if queue:
            head = queue[0]
            self._bytes_left[row] = head.bytes_left
            if head.state is TransferState.PENDING:
                # the replay's budget ran out exactly at a completion
                # boundary: the reference loop leaves the next head PENDING
                # and marks it on the *next* tick's advance call
                self._fresh.append(seq)
        else:
            self._remove_row(row)

    # -------------------------------------------------------------- the sweep
    def sweep(self, world: "World", now: float, dt: float) -> None:
        """Run one transfers phase: ingest, subtract, replay completions."""
        pending = world._newly_active
        if pending:
            row_of = self._row
            store_rows = world.router_store._row
            for connection in pending:
                # stale announcements: torn down or drained since the
                # enqueue, or re-announced while already holding a row
                if (connection.is_up and connection.has_queued
                        and connection.established_seq not in row_of):
                    self._attach(connection, store_rows)
            pending.clear()
        n = len(self._conns)
        if n == 0 or dt <= 0:
            return
        if self._fresh:
            for seq in self._fresh:
                row = self._row.get(seq)
                if row is None:
                    continue
                head = self._conns[row]._queue[0]
                if head.state is TransferState.PENDING:
                    head.state = TransferState.IN_PROGRESS
                    head.started_at = now
            self._fresh = []
        bytes_left = self._bytes_left[:n]
        remaining = bytes_left - self._bitrate[:n] * dt
        done_rows = np.flatnonzero(remaining <= _EPSILON)
        if not len(done_rows):
            bytes_left[:] = remaining
            return
        # save the pre-sweep head bytes of every completed row *before* the
        # columns are overwritten: the replay must restore the exact value
        # (re-deriving it as ``remaining + budget`` would not be FP-exact)
        entries = sorted(
            (int(self._seq[row]), float(bytes_left[row])) for row in done_rows)
        bytes_left[:] = remaining
        row_of = self._row
        conns = self._conns
        complete = world._complete_transfer
        for seq, head_bytes in entries:
            # ascending established_seq == the historical live-table
            # iteration order == the reference loop's dispatch order
            connection = conns[row_of[seq]]
            connection._queue[0].bytes_left = head_bytes
            for transfer in connection.advance(now, dt):
                complete(transfer, now)
            self.rows_completed += 1
            self._reload(connection)
