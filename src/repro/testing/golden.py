"""Golden digests: the committed behavioural lockfile of the simulator.

Every cell of the grid below — each catalog scenario, under each headline
protocol, at two seeds, over a short horizon — is run once and reduced to
two SHA-256 digests: one of the scenario's :meth:`~repro.experiments.
scenario.ScenarioConfig.config_hash` basis and one of the run's
:func:`~repro.testing.canonical_report_bytes`.  ``tests/golden_digests.json``
holds them; ``tests/test_golden_digests.py`` recomputes every cell and
requires a byte-for-byte match.

The lockfile is what proves a refactor kept the simulation's behaviour:
a change that moves any routing decision, transfer completion, contact
count or float anywhere in a report changes a digest.  Regenerate it with
``scripts/record_golden_digests.py`` only when a behaviour change is
intended, and say so in the change description.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.testing import canonical_report_bytes, run_report

__all__ = ["HEADLINE_PROTOCOLS", "SEEDS", "GoldenCell", "golden_cells",
           "portable_config_hash", "cell_digests", "catalog_config_hashes",
           "compute_golden_digests", "GOLDEN_PATH"]

#: the protocols the paper compares (EER, CR against MaxProp, EBR and
#: Spray-and-Wait) plus epidemic, the flooding upper bound
HEADLINE_PROTOCOLS = ("eer", "cr", "maxprop", "ebr", "spray-and-wait",
                      "epidemic")
SEEDS = (1, 2)
#: simulated seconds per cell: long enough for contacts, transfers and
#: deliveries in every scenario, short enough that the grid stays cheap
HORIZON = 200.0
#: per-scenario overrides on top of the horizon.  The paper scenario ticks
#: every 0.1 s, so a shorter horizon still covers more ticks; the city-scale
#: scenarios shrink to at most a thousand nodes (the population is part of
#: the cell key)
SCENARIO_OVERRIDES: Dict[str, Dict[str, object]] = {
    "paper": {"sim_time": 60.0},
    "rwp-10k": {"num_nodes": 200},
    "rwp-10k-traffic": {"num_nodes": 200},
    "rwp-100k": {"num_nodes": 1000},
}

#: the committed lockfile, relative to the repository root
GOLDEN_PATH = os.path.join("tests", "golden_digests.json")


@dataclass(frozen=True)
class GoldenCell:
    """One (scenario, protocol, seed) cell of the lockfile grid."""

    scenario: str
    protocol: str
    seed: int
    overrides: Mapping[str, object] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """``scenario[@field=value...]/protocol/seed=N`` (sim_time omitted:
        every cell runs a short horizon, recorded in the entry)."""
        shrink = "".join(f"@{name}={self.overrides[name]}"
                         for name in sorted(self.overrides)
                         if name != "sim_time")
        return f"{self.scenario}{shrink}/{self.protocol}/seed={self.seed}"

    def config(self):
        """The cell's :class:`~repro.experiments.scenario.ScenarioConfig`."""
        from repro.experiments.catalog import make_scenario
        return make_scenario(self.scenario, dict(self.overrides),
                             protocol=self.protocol, seed=self.seed)


def golden_cells() -> List[GoldenCell]:
    """The full lockfile grid, in key order."""
    from repro.experiments.catalog import available_scenarios
    cells = []
    for scenario in available_scenarios():
        overrides = {"sim_time": HORIZON}
        overrides.update(SCENARIO_OVERRIDES.get(scenario, {}))
        for protocol in HEADLINE_PROTOCOLS:
            for seed in SEEDS:
                cells.append(GoldenCell(scenario, protocol, seed, overrides))
    return sorted(cells, key=lambda cell: cell.key)


def portable_config_hash(config) -> str:
    """``config.config_hash()`` with bundled trace paths made relative.

    File-backed catalog scenarios store the absolute path of their bundled
    trace, which depends on where the repository is checked out; hashing
    the path relative to the bundled-trace directory keeps the lockfile
    valid on every machine while every other field hashes as-is.
    """
    from repro.experiments.catalog import TRACE_DATA_DIR
    path = config.trace_path
    if path is not None and os.path.isabs(path):
        relative = os.path.relpath(path, TRACE_DATA_DIR)
        if not relative.startswith(os.pardir):
            config = config.with_overrides(trace_path=relative)
    return config.config_hash()


def cell_digests(cell: GoldenCell, *,
                 reference: bool = False) -> Dict[str, object]:
    """Run *cell* (optionally on the reference tick) and return its
    lockfile entry."""
    config = cell.config()
    report = run_report(config, reference=reference)
    return {
        "sim_time": config.sim_time,
        "config_hash": portable_config_hash(config),
        "report_sha256": hashlib.sha256(
            canonical_report_bytes(report)).hexdigest(),
    }


def catalog_config_hashes() -> Dict[str, str]:
    """Each catalog scenario's own (un-overridden) portable config hash."""
    from repro.experiments.catalog import available_scenarios, make_scenario
    return {name: portable_config_hash(make_scenario(name))
            for name in available_scenarios()}


def compute_golden_digests() -> Dict[str, Dict[str, object]]:
    """The whole lockfile: catalog config hashes plus every cell's entry
    (keyed by :attr:`GoldenCell.key`)."""
    return {
        "catalog": catalog_config_hashes(),
        "cells": {cell.key: cell_digests(cell) for cell in golden_cells()},
    }
