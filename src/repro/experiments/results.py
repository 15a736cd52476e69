"""The experiment-layer result types and their shared contract.

:class:`AveragedResult` (what :func:`~repro.experiments.runner.run_averaged`
returns) and :class:`SweepPoint` (the cell type of
:func:`~repro.experiments.sweep.sweep`) share one convention, used by the
``repro.api`` facade and the results store alike:

* ``as_dict()`` — a JSON-friendly summary whose floats round-trip exactly,
* ``identity_keys()`` — the results-store identity
  ``(scenario_name, protocol, seed, config_hash)`` of every underlying run
  (empty when the originating :class:`ScenarioConfig` is unknown, e.g. for
  hand-assembled results).

Import both from :mod:`repro.experiments` (or :mod:`repro.api`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.scenario import ScenarioConfig
from repro.metrics.collector import TELEMETRY_METERS
from repro.metrics.reports import SimulationReport

#: one results-store identity: (scenario_name, protocol, seed, config_hash)
IdentityKey = Tuple[str, str, int, str]


@dataclass
class AveragedResult:
    """Mean metrics over several seeds of the same scenario."""

    protocol: str
    num_nodes: int
    seeds: List[int]
    reports: List[SimulationReport] = field(default_factory=list)
    #: the scenario the reports came from (seed field irrelevant — each
    #: report pins its own); optional so hand-assembled results still work
    config: Optional[ScenarioConfig] = None

    def metered_reports(self) -> List[SimulationReport]:
        """The reports that carry telemetry: the freshly simulated runs (a
        report served from a results store carries none)."""
        return [report for report in self.reports if report.telemetry]

    def _values(self, metric: str) -> List[float]:
        """*metric* of every run that measured it: a telemetry meter counts
        only the :meth:`metered_reports` (0 when there are none)."""
        reports = self.reports
        if metric in TELEMETRY_METERS:
            reports = self.metered_reports()
            if not reports:
                return [0.0]
        return [report.metric(metric) for report in reports]

    def mean(self, metric: str) -> float:
        """Mean of *metric* over the seed runs (see :meth:`_values`)."""
        finite = [v for v in self._values(metric) if np.isfinite(v)]
        if not finite:
            return float("nan")
        return float(np.mean(finite))

    def std(self, metric: str) -> float:
        """Sample standard deviation of *metric* over the seed runs."""
        values = self._values(metric)
        finite = [v for v in values if np.isfinite(v)]
        if len(finite) < 2:
            return 0.0
        return float(np.std(finite, ddof=1))

    def identity_keys(self) -> List[IdentityKey]:
        """Results-store identity of every seed run (see the module docs)."""
        if self.config is None:
            return []
        return [self.config.with_overrides(seed=seed).identity_key()
                for seed in self.seeds]

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly summary (means of the headline metrics)."""
        return {
            "protocol": self.protocol,
            "num_nodes": self.num_nodes,
            "seeds": list(self.seeds),
            "delivery_ratio": self.mean("delivery_ratio"),
            "latency": self.mean("average_latency"),
            "goodput": self.mean("goodput"),
            "overhead_ratio": self.mean("overhead_ratio"),
            "control_rows_exchanged": self.mean("control_rows_exchanged"),
            "community_detections": self.mean("community_detections"),
            "community_detection_seconds": self.mean("community_detection_seconds"),
        }


@dataclass
class SweepPoint:
    """One grid point of a sweep with its averaged result."""

    overrides: Dict[str, object]
    result: AveragedResult

    def value(self, metric: str) -> float:
        """Mean metric value at this point."""
        return self.result.mean(metric)

    def identity_keys(self) -> List[IdentityKey]:
        """Results-store identity of every run behind this point."""
        return self.result.identity_keys()

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly summary: the overrides plus the averaged summary."""
        return {
            "overrides": dict(self.overrides),
            "summary": self.result.as_dict(),
        }
