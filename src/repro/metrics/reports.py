"""Per-run summary reports.

A :class:`SimulationReport` is a plain, serialisable snapshot of everything a
benchmark or experiment needs from a finished run: the paper's three metrics
plus the bookkeeping used in the ablations (overhead ratio, control-plane
exchange volume, drops, contacts).  Those fields are the run's canonical
*outcome*; the collector's telemetry meters ride alongside in one
``telemetry`` mapping that no canonical serialisation sees.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, asdict
from typing import Dict, Optional

import numpy as np

from repro.metrics.collector import TELEMETRY_METERS, StatsCollector


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

    # transfers-phase outcome counters
    transfers_completed: int = 0
    transfers_aborted: int = 0
    bytes_delivered: int = 0

    # online community detection (zero outside CR's detected modes); its
    # compute seconds are telemetry
    community_detections: int = 0
    community_reassignments: int = 0

    latency_percentiles: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    #: the run's telemetry meters (``StatsCollector.telemetry()``): wall
    #: clock and execution-mode counters, never part of the outcome, so
    #: they take no part in ``==``, :meth:`as_dict` or the canonical bytes.
    #: Each meter also reads as an attribute (``report.routers_ticked``).
    telemetry: Dict[str, object] = field(default_factory=dict,
                                         compare=False)

    def __getattr__(self, name: str) -> object:
        # only reached when normal lookup fails; reads ``__dict__`` directly
        # so a half-built instance (unpickling, copy) raises AttributeError
        telemetry = self.__dict__.get("telemetry")
        if telemetry is not None and name in telemetry:
            return telemetry[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def as_dict(self) -> Dict[str, object]:
        """The canonical outcome as a plain dict (JSON-friendly).

        Every field but :attr:`telemetry`: the payload compares
        byte-for-byte across machines, runs and the production and
        reference worlds.
        """
        payload = asdict(self)
        del payload["telemetry"]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimulationReport":
        """Rebuild a report from an :meth:`as_dict` payload.

        The payload may carry a ``"telemetry"`` mapping too (the
        ``repro run --json`` form); missing fields fall back to their
        dataclass defaults, so payloads written before a field existed
        still load.

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
        return cls(**payload)

    def metric(self, name: str) -> float:
        """Look up a metric by name (``delivery_ratio``/``latency``/``goodput``...).

        Telemetry meters count too; a report rebuilt from its canonical
        payload carries none, and reads each scalar meter as 0.
        """
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
        if name in TELEMETRY_METERS:
            return 0.0
        raise KeyError(f"unknown metric {name!r}")


def canonical_report_json(report: SimulationReport) -> str:
    """The canonical JSON form of a report: its outcome with sorted keys.

    The one canonical serialisation: the results store persists these
    bytes, the golden-digest lockfile hashes them, and two runs are
    behaviourally identical iff they are equal.  Round-trips exactly
    through :meth:`SimulationReport.from_dict`.
    """
    return json.dumps(report.as_dict(), sort_keys=True)


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
        community_reassignments=collector.community_reassignments,
        latency_percentiles=_latency_percentiles(collector),
        extra=dict(extra or {}),
        telemetry=collector.telemetry(),
    )
