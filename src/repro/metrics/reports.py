"""Per-run summary reports.

A :class:`SimulationReport` is a plain, serialisable snapshot of everything a
benchmark or experiment needs from a finished run: the paper's three metrics
plus the bookkeeping used in the ablations (overhead ratio, control-plane
exchange volume, drops, contacts).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, asdict
from typing import Dict, Optional

import numpy as np

from repro.metrics.collector import StatsCollector


@dataclass
class SimulationReport:
    """Summary of one simulation run."""

    protocol: str
    num_nodes: int
    sim_time: float
    seed: int

    created: int
    delivered: int
    relayed: int
    dropped: int
    expired: int
    aborted: int
    contacts: int

    delivery_ratio: float
    average_latency: float
    goodput: float
    overhead_ratio: float
    average_hop_count: float

    control_rows_exchanged: int
    control_bytes_exchanged: int

    # transfers-phase outcome counters.  Deterministic (identical on the
    # production and the reference tick), so they stay in the canonical
    # serialisation, unlike the routers split below
    transfers_completed: int = 0
    transfers_aborted: int = 0
    bytes_delivered: int = 0

    # online community-detection compute overhead (zero outside CR's
    # detected modes); seconds are wall-clock and therefore machine-specific,
    # so — like the phase timings — they are excluded from the canonical
    # serialisation
    community_detections: int = 0
    community_detection_seconds: float = 0.0
    community_reassignments: int = 0

    # routers-phase outcome split: Router.update calls run / provably idle
    # skipped / awake no-ops resolved in batch by the SoA sweep.  The split
    # differs between the production and the reference tick, so — like the
    # phase timings — it is excluded from the canonical serialisation.
    routers_ticked: int = 0
    routers_skipped: int = 0
    routers_batched: int = 0

    # move-phase split: node-ticks the batch movement kernel advanced /
    # node-ticks that ran the per-follower loop.  The reference world moves
    # everything through the loop, so the split is excluded from the
    # canonical serialisation like the routers split.
    moves_batched: int = 0
    moves_loop: int = 0

    # knowledge-layer split: shortest-path kernel runs (MEMD recomputes
    # plus MaxProp path-cost recomputes) and MEMD cache hits.  Cache
    # behaviour is an implementation detail, not an outcome, so the split is
    # excluded from the canonical serialisation like the move-phase split.
    kernel_runs: int = 0
    memd_hits: int = 0

    latency_percentiles: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    # accumulated wall-clock seconds per world tick-pipeline phase
    # (move/connectivity/transfers/routers).  Machine- and run-specific, so
    # excluded from the canonical serialisation by default: two runs of the
    # same seed must serialise byte-identically whatever hardware (or phase
    # implementation — serial vs sharded) produced them.
    tick_phase_seconds: Dict[str, float] = field(default_factory=dict)
    # per-phase sample counts (one per executed tick); paired with the
    # seconds above this yields phase throughput in ticks/s.  Excluded from
    # the canonical serialisation for the same reason.
    tick_phase_samples: Dict[str, int] = field(default_factory=dict)

    def as_dict(self, include_timings: bool = False) -> Dict[str, object]:
        """Return a plain-dict representation (JSON-friendly).

        ``include_timings`` keeps the wall-clock fields
        (``tick_phase_seconds`` / ``tick_phase_samples``,
        ``community_detection_seconds``), the routers-phase, move-phase and
        knowledge-layer splits in the payload; the default drops them, so the
        payload is the canonical outcome: it compares byte-for-byte across
        machines, runs and the production and reference worlds.
        """
        payload = asdict(self)
        if not include_timings:
            payload.pop("community_detection_seconds")
            payload.pop("tick_phase_seconds")
            payload.pop("tick_phase_samples")
            payload.pop("routers_ticked")
            payload.pop("routers_skipped")
            payload.pop("routers_batched")
            payload.pop("moves_batched")
            payload.pop("moves_loop")
            payload.pop("kernel_runs")
            payload.pop("memd_hits")
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimulationReport":
        """Rebuild a report from an :meth:`as_dict` payload.

        Accepts both the canonical payload (timings dropped — what the
        results store persists) and the ``include_timings=True`` form;
        missing fields fall back to their dataclass defaults, so payloads
        written before a field existed still load.

        ``from_dict(json.loads(json.dumps(report.as_dict())))`` reproduces
        the canonical payload byte for byte — floats survive a JSON round
        trip exactly — which is what makes store-served sweep results
        byte-identical to freshly simulated ones.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"report payload has unknown fields: {sorted(unknown)}")
        return cls(**{key: value for key, value in payload.items()})

    def phase_ticks_per_second(self) -> Dict[str, float]:
        """Per-phase throughput (ticks per wall-second), from the timings."""
        rates: Dict[str, float] = {}
        for name, seconds in self.tick_phase_seconds.items():
            samples = self.tick_phase_samples.get(name, 0)
            if samples and seconds > 0:
                rates[name] = samples / seconds
        return rates

    def metric(self, name: str) -> float:
        """Look up a metric by name (``delivery_ratio``/``latency``/``goodput``...)."""
        aliases = {
            "latency": "average_latency",
            "hops": "average_hop_count",
            "overhead": "overhead_ratio",
        }
        name = aliases.get(name, name)
        if hasattr(self, name):
            return float(getattr(self, name))
        if name in self.extra:
            return float(self.extra[name])
        raise KeyError(f"unknown metric {name!r}")


def _latency_percentiles(collector: StatsCollector) -> Dict[str, float]:
    arr = collector.delivered_latencies()
    if not arr.size:
        return {}
    return {
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }


def build_report(collector: StatsCollector, *, protocol: str, num_nodes: int,
                 sim_time: float, seed: int,
                 extra: Optional[Dict[str, float]] = None) -> SimulationReport:
    """Assemble a :class:`SimulationReport` from a finished run's collector."""
    return SimulationReport(
        protocol=protocol,
        num_nodes=num_nodes,
        sim_time=sim_time,
        seed=seed,
        created=collector.created,
        delivered=collector.delivered,
        relayed=collector.relayed,
        dropped=collector.dropped,
        expired=collector.expired,
        aborted=collector.aborted,
        contacts=collector.contacts,
        delivery_ratio=collector.delivery_ratio,
        average_latency=collector.average_latency,
        goodput=collector.goodput,
        overhead_ratio=collector.overhead_ratio,
        average_hop_count=collector.average_hop_count,
        control_rows_exchanged=collector.control_rows_exchanged,
        control_bytes_exchanged=collector.control_bytes_exchanged,
        transfers_completed=collector.transfers_completed,
        transfers_aborted=collector.transfers_aborted,
        bytes_delivered=collector.bytes_delivered,
        community_detections=collector.community_detections,
        community_detection_seconds=collector.community_detection_seconds,
        community_reassignments=collector.community_reassignments,
        routers_ticked=collector.routers_ticked,
        routers_skipped=collector.routers_skipped,
        routers_batched=collector.routers_batched,
        moves_batched=collector.moves_batched,
        moves_loop=collector.moves_loop,
        kernel_runs=collector.kernel_runs,
        memd_hits=collector.memd_hits,
        latency_percentiles=_latency_percentiles(collector),
        extra=dict(extra or {}),
        tick_phase_seconds=dict(collector.tick_phase_seconds),
        tick_phase_samples=dict(collector.tick_phase_samples),
    )
