"""Event-driven statistics collector.

The world, connections and routers report to a single :class:`StatsCollector`
instance per simulation run.  It keeps the running aggregates needed by the
paper's three metrics and, unless ``keep_records=False``, raw event records
(see :mod:`repro.metrics.events`).

Records are stored column-wise: per-event *fields* are appended to growable
NumPy column stores (:mod:`repro.metrics.columns`).  The ``*_records``
properties materialize dataclass lists on demand, so million-event sweeps
never allocate an object per relay, and the analysis layer can read whole
columns without touching records.  Aggregates and derived metrics never
depend on whether records are kept.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

from repro.metrics.columns import ColumnTable
from repro.metrics.events import (
    ContactRecord,
    MessageCreated,
    MessageDelivered,
    MessageDropped,
    MessageRelayed,
    TransferAborted,
)
from repro.net.message import Message


#: column layouts per event type, in dataclass-field order
_TABLE_SPECS = {
    "created": ((("message_id", "object"), ("source", "i8"),
                 ("destination", "i8"), ("size", "i8"), ("time", "f8"),
                 ("copies", "i8")), MessageCreated),
    "relayed": ((("message_id", "object"), ("from_node", "i8"),
                 ("to_node", "i8"), ("time", "f8"), ("copies", "i8"),
                 ("final_delivery", "?")), MessageRelayed),
    "delivered": ((("message_id", "object"), ("source", "i8"),
                   ("destination", "i8"), ("created_at", "f8"),
                   ("delivered_at", "f8"), ("hop_count", "i8")),
                  MessageDelivered),
    "dropped": ((("message_id", "object"), ("node", "i8"), ("time", "f8"),
                 ("reason", "object")), MessageDropped),
    "aborted": ((("message_id", "object"), ("from_node", "i8"),
                 ("to_node", "i8"), ("time", "f8"), ("bytes_left", "f8")),
                TransferAborted),
    "contacts": ((("node_a", "i8"), ("node_b", "i8"), ("start", "f8"),
                  ("end", "f8")), ContactRecord),
}


class StatsCollector:
    """Accumulates simulation statistics.

    The collector is deliberately passive: it never mutates simulation state,
    and all of its record-keeping is O(1) per event, so it can stay enabled
    for benchmark runs.

    Parameters
    ----------
    keep_records:
        ``False`` disables per-event records entirely (aggregates are always
        kept).
    """

    def __init__(self, keep_records: bool = True) -> None:
        #: event type -> column store; empty when records are off
        self._tables: Dict[str, ColumnTable] = {}
        if keep_records:
            self._tables = {name: ColumnTable(fields, record_type)
                            for name, (fields, record_type) in
                            _TABLE_SPECS.items()}

        # aggregates
        self.created = 0
        self.relayed = 0
        self.delivered = 0
        self.duplicate_deliveries = 0
        self.dropped = 0
        self.expired = 0
        self.aborted = 0
        self.transfers_started = 0
        # transfers-phase outcome counters (deterministic, part of canonical
        # reports): completed replica transfers and the payload bytes they
        # moved.  transfers_completed tracks `relayed` today but is kept as
        # its own counter so the transfers phase stays auditable if relay
        # accounting ever diverges (e.g. control-plane transfers)
        self.transfers_completed = 0
        self.bytes_delivered = 0
        self.contacts = 0
        self.control_rows_exchanged = 0
        self.control_bytes_exchanged = 0
        self.control_exchanges = 0
        # community-detection compute overhead (CR's detected modes; all zero
        # for oracle mode and every non-community protocol)
        self.community_detections = 0
        self.community_detection_seconds = 0.0
        self.community_reassignments = 0
        # per-phase wall time of the world tick pipeline (phase name ->
        # accumulated seconds / sample count); machine-specific, kept out of
        # the deterministic metric comparisons
        self.tick_phase_seconds: Dict[str, float] = {}
        self.tick_phase_samples: Dict[str, int] = {}
        # routers-phase outcome split (see World._update_routers): real
        # Router.update calls run, provably idle routers skipped, and awake
        # no-ops the SoA sweep resolved in batch.  Mode-dependent meters
        # like the phase timings, excluded from deterministic comparisons
        self.routers_ticked = 0
        self.routers_skipped = 0
        self.routers_batched = 0
        # move-phase split (see MovementEngine.advance): node-ticks the batch
        # kernel advanced vs node-ticks that ran PathFollower.move.  Telemetry
        # like the routers split: the reference world moves every node
        # through the loop
        self.moves_batched = 0
        self.moves_loop = 0
        # knowledge-layer split: shortest-path kernel runs (MEMD recomputes
        # plus MaxProp path-cost recomputes) and MEMD lookups served from the
        # delay-vector cache.  Telemetry like the splits above
        self.kernel_runs = 0
        self.memd_hits = 0
        self.latency_sum = 0.0
        self.hop_count_sum = 0

        self._creation_time: Dict[str, float] = {}
        self._delivered_ids: Dict[str, float] = {}
        self._open_contacts: Dict[tuple, float] = {}
        self._per_node_drops: Dict[int, int] = defaultdict(int)

    @property
    def keep_records(self) -> bool:
        """Whether per-event records are kept.

        Read-only: record keeping was historically toggled by assigning this
        flag, which would now silently do nothing — choose at construction
        time instead (``StatsCollector(keep_records=...)``).
        """
        return bool(self._tables)

    # ------------------------------------------------------------ record views
    def _records(self, name: str) -> list:
        table = self._tables.get(name)
        return [] if table is None else table.materialize()

    @property
    def created_records(self) -> List[MessageCreated]:
        """Recorded :class:`MessageCreated` events (materialized on demand)."""
        return self._records("created")

    @property
    def relayed_records(self) -> List[MessageRelayed]:
        """Recorded :class:`MessageRelayed` events (materialized on demand)."""
        return self._records("relayed")

    @property
    def delivered_records(self) -> List[MessageDelivered]:
        """Recorded :class:`MessageDelivered` events (materialized on demand)."""
        return self._records("delivered")

    @property
    def dropped_records(self) -> List[MessageDropped]:
        """Recorded :class:`MessageDropped` events (materialized on demand)."""
        return self._records("dropped")

    @property
    def aborted_records(self) -> List[TransferAborted]:
        """Recorded :class:`TransferAborted` events (materialized on demand)."""
        return self._records("aborted")

    @property
    def contact_records(self) -> List[ContactRecord]:
        """Recorded :class:`ContactRecord` events (materialized on demand)."""
        return self._records("contacts")

    def record_columns(self, name: str) -> Dict[str, np.ndarray]:
        """Raw column arrays for one event type (records must be kept).

        *name* is one of ``created``, ``relayed``, ``delivered``,
        ``dropped``, ``aborted``, ``contacts``.
        """
        table = self._tables.get(name)
        if table is None:
            raise RuntimeError(
                "record_columns requires keep_records=True")
        return table.columns()

    def record_storage_bytes(self) -> int:
        """Approximate bytes retained by the per-event column stores.

        Counts the column buffers; string payloads are excluded since
        message-id objects are shared with the live messages.  0 when
        records are off.
        """
        import sys as _sys

        total = 0
        for table in self._tables.values():
            for column in table._columns:
                if isinstance(column, list):
                    total += _sys.getsizeof(column)
                else:
                    total += column._data.nbytes
        return total

    def delivered_latencies(self) -> np.ndarray:
        """End-to-end latencies of first deliveries, as one array.

        Reads the column store directly (no record materialization); empty
        when records are off.
        """
        table = self._tables.get("delivered")
        if table is None:
            return np.empty(0, dtype=float)
        return table.column("delivered_at") - table.column("created_at")

    # ----------------------------------------------------------- message life
    def message_created(self, message: Message) -> None:
        """Record a bundle entering the network."""
        self.created += 1
        self._creation_time[message.message_id] = message.creation_time
        table = self._tables.get("created")
        if table is not None:
            table.append(
                message.message_id, message.source, message.destination,
                message.size, message.creation_time, message.copies)

    def transfer_started(self) -> None:
        """Record a transfer being enqueued on a connection."""
        self.transfers_started += 1

    def transfer_completed(self, message: Message) -> None:
        """Record a transfer draining to completion (payload fully moved)."""
        self.transfers_completed += 1
        self.bytes_delivered += int(message.size)

    @property
    def transfers_aborted(self) -> int:
        """Alias of ``aborted`` under the transfers-phase naming."""
        return self.aborted

    def message_relayed(self, message: Message, from_node: int, to_node: int,
                        time: float, copies: int, final_delivery: bool) -> None:
        """Record a completed replica transfer (the goodput denominator)."""
        self.relayed += 1
        table = self._tables.get("relayed")
        if table is not None:
            table.append(
                message.message_id, from_node, to_node, time, copies,
                final_delivery)

    def message_delivered(self, message: Message, time: float) -> bool:
        """Record an arrival at the destination.

        Returns ``True`` if this was the first delivery of the bundle (only
        first deliveries count toward the delivery ratio and latency).
        """
        if message.message_id in self._delivered_ids:
            self.duplicate_deliveries += 1
            return False
        self._delivered_ids[message.message_id] = time
        self.delivered += 1
        created_at = self._creation_time.get(message.message_id, message.creation_time)
        latency = time - created_at
        self.latency_sum += latency
        self.hop_count_sum += message.hop_count
        table = self._tables.get("delivered")
        if table is not None:
            table.append(
                message.message_id, message.source, message.destination,
                created_at, time, message.hop_count)
        return True

    def message_dropped(self, message: Message, node: int, time: float,
                        reason: str) -> None:
        """Record a replica leaving a buffer without being forwarded."""
        self.dropped += 1
        if reason == "expired":
            self.expired += 1
        self._per_node_drops[node] += 1
        table = self._tables.get("dropped")
        if table is not None:
            table.append(message.message_id, node, time, reason)

    def transfer_aborted(self, message: Message, from_node: int, to_node: int,
                         time: float, bytes_left: float) -> None:
        """Record a transfer interrupted by a link tear-down."""
        self.aborted += 1
        table = self._tables.get("aborted")
        if table is not None:
            table.append(
                message.message_id, from_node, to_node, time, bytes_left)

    # --------------------------------------------------------------- contacts
    def contact_up(self, node_a: int, node_b: int, time: float) -> None:
        """Record a link coming up between two nodes."""
        key = (min(node_a, node_b), max(node_a, node_b))
        self._open_contacts[key] = time
        self.contacts += 1

    def contact_down(self, node_a: int, node_b: int, time: float) -> None:
        """Record a link going down; closes the matching open contact."""
        key = (min(node_a, node_b), max(node_a, node_b))
        start = self._open_contacts.pop(key, None)
        if start is None:
            return
        table = self._tables.get("contacts")
        if table is not None:
            table.append(key[0], key[1], start, time)

    def contact_up_batch(self, keys: List[tuple], time: float) -> None:
        """Record one tick's batch of link-ups (already canonical pairs).

        *keys* are ``(id_lo, id_hi)`` tuples in the world's sorted event
        order.  Equivalent to calling :meth:`contact_up` per pair; the batch
        form exists so the world's link bookkeeping makes one collector call
        per tick instead of one per link.
        """
        open_contacts = self._open_contacts
        for key in keys:
            open_contacts[key] = time
        self.contacts += len(keys)

    def contact_down_batch(self, keys: List[tuple], time: float) -> None:
        """Record one tick's batch of link-downs (already canonical pairs).

        Equivalent to calling :meth:`contact_down` per pair in order —
        unmatched pairs are skipped the same way — but the surviving records
        land in the column store via one vectorized ``extend`` per column
        instead of a per-event append.
        """
        open_contacts = self._open_contacts
        table = self._tables.get("contacts")
        if table is None:
            for key in keys:
                open_contacts.pop(key, None)
            return
        closed: List[tuple] = []
        starts: List[float] = []
        for key in keys:
            start = open_contacts.pop(key, None)
            if start is not None:
                closed.append(key)
                starts.append(start)
        if closed:
            table.extend([key[0] for key in closed], [key[1] for key in closed],
                         starts, [time] * len(closed))

    # ---------------------------------------------------------------- control
    def control_exchange(self, rows: int, size_bytes: int = 0) -> None:
        """Record routing-state exchange overhead (MI rows, delivery tables, ...)."""
        self.control_exchanges += 1
        self.control_rows_exchanged += rows
        self.control_bytes_exchanged += size_bytes

    def community_detection(self, seconds: float, reassigned: int = 0) -> None:
        """Record one online community-detection run.

        Parameters
        ----------
        seconds:
            Wall-clock cost of the detection (compute overhead; kept separate
            from the message-count metrics so checksum comparisons can ignore
            it).
        reassigned:
            How many nodes changed community relative to the previous
            assignment.
        """
        self.community_detections += 1
        self.community_detection_seconds += float(seconds)
        self.community_reassignments += int(reassigned)

    def tick_phase(self, name: str, seconds: float) -> None:
        """Record one wall-clock sample of a world tick-pipeline phase.

        Called once per phase per world update by
        :class:`~repro.world.pipeline.TickPipeline`.  Accumulated seconds are
        compute *observability* (like :meth:`community_detection`'s seconds):
        they feed the phase-time reporting and the world-tick benchmarks, and
        are excluded from deterministic result comparisons.
        """
        self.tick_phase_seconds[name] = (
            self.tick_phase_seconds.get(name, 0.0) + float(seconds))
        self.tick_phase_samples[name] = self.tick_phase_samples.get(name, 0) + 1

    def router_sweep(self, ticked: int, skipped: int, batched: int = 0) -> None:
        """Record one routers-phase outcome split.

        Called once per world update by the routers phase; the three counts
        sum to the node count per tick.  Observability like
        :meth:`tick_phase` — the split differs between the production and
        the reference tick, so it is excluded from result comparisons.
        """
        self.routers_ticked += int(ticked)
        self.routers_skipped += int(skipped)
        self.routers_batched += int(batched)

    def movement_split(self, batched: int, loop: int) -> None:
        """Record one move-phase split: kernel moves and loop moves.

        Called once per world update by the move phase; excluded from
        result comparisons like :meth:`router_sweep`.
        """
        self.moves_batched += batched
        self.moves_loop += loop

    def knowledge_kernel_run(self) -> None:
        """Record one shortest-path kernel run (a MaxProp path-cost recompute).

        Excluded from result comparisons like :meth:`router_sweep`.
        """
        self.kernel_runs += 1

    def memd_lookup(self, recomputed: bool) -> None:
        """Record one MEMD lookup: a kernel run if *recomputed*, else a cache hit."""
        if recomputed:
            self.kernel_runs += 1
        else:
            self.memd_hits += 1

    # ------------------------------------------------------------------ query
    def is_delivered(self, message_id: str) -> bool:
        """Whether the bundle has reached its destination at least once."""
        return message_id in self._delivered_ids

    def delivery_time(self, message_id: str) -> Optional[float]:
        """First delivery time of the bundle, or ``None``."""
        return self._delivered_ids.get(message_id)

    def per_node_drops(self) -> Dict[int, int]:
        """Mapping node id -> number of replicas dropped at that node."""
        return dict(self._per_node_drops)

    # -------------------------------------------------------------- metrics
    @property
    def delivery_ratio(self) -> float:
        """Delivered bundles / created bundles (0 when nothing was created)."""
        if self.created == 0:
            return 0.0
        return self.delivered / self.created

    @property
    def average_latency(self) -> float:
        """Mean end-to-end delay of first deliveries (0 when none)."""
        if self.delivered == 0:
            return 0.0
        return self.latency_sum / self.delivered

    @property
    def goodput(self) -> float:
        """Delivered bundles / relayed replicas (the paper's goodput)."""
        if self.relayed == 0:
            return 0.0
        return self.delivered / self.relayed

    @property
    def overhead_ratio(self) -> float:
        """(relayed - delivered) / delivered — the ONE simulator's overhead."""
        if self.delivered == 0:
            return float("inf") if self.relayed > 0 else 0.0
        return (self.relayed - self.delivered) / self.delivered

    @property
    def average_hop_count(self) -> float:
        """Mean hop count over first deliveries."""
        if self.delivered == 0:
            return 0.0
        return self.hop_count_sum / self.delivered
