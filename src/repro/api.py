"""The stable public API facade.

``repro.api`` is the blessed import surface for driving experiments from
Python: one module, a handful of entry points, stable across refactors of
the packages underneath.  Everything here follows one result-type
convention — :class:`AveragedResult` and :class:`SweepPoint` share the
``as_dict()``/``identity_keys()`` contract (see
:mod:`repro.experiments.results`), and every entry point accepts an optional
results store for exact dedupe and crash-resumable grids.

    from repro import api

    config = api.ScenarioConfig.bench_scale(protocol="eer", num_nodes=40)
    report = api.run(config)                        # one simulation
    result = api.run_averaged(config, seeds=[1, 2]) # averaged over seeds

    with api.open_store("results.sqlite") as store:
        points = api.sweep(config, {"message_copies": [4, 8, 12]},
                           seeds=[1, 2], store=store)   # resumable
        fig = api.figure("fig3", seeds=[1, 2], store=store)

The result types live in :mod:`repro.experiments.results`; import them
from here or from :mod:`repro.experiments`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.backend import (
    BackendLike,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.experiments.catalog import available_scenarios, make_scenario
from repro.experiments.figures import (
    FIGURE_NAMES,
    FigureResult,
    figure,
    figure_set,
)
from repro.experiments.results import AveragedResult, SweepPoint
from repro.experiments.runner import run_averaged, run_many_averaged, run_scenario
from repro.experiments.scenario import (
    MobilityKind,
    ScenarioConfig,
    apply_overrides,
)
from repro.experiments.sweep import sweep, sweep_grid
from repro.metrics.reports import SimulationReport
from repro.store import ResultsStore, open_store, serve


def run(config: ScenarioConfig, *, store: Optional[ResultsStore] = None
        ) -> SimulationReport:
    """Run one fully-specified scenario and return its report.

    With a *store*, a run whose identity key is already recorded is served
    from it (no simulation); a fresh run is appended before returning —
    stored and fresh reports are byte-identical in their canonical form.
    """
    if store is not None:
        cached = store.get(config)
        if cached is not None:
            return cached
    report = run_scenario(config)
    if store is not None:
        store.put(config, report)
    return report


__all__ = [
    # the blessed entry points
    "run",
    "run_averaged",
    "run_many_averaged",
    "sweep",
    "sweep_grid",
    "figure",
    "figure_set",
    "open_store",
    "serve",
    # the types they take and return
    "ScenarioConfig",
    "MobilityKind",
    "SimulationReport",
    "AveragedResult",
    "SweepPoint",
    "FigureResult",
    "ResultsStore",
    # catalog + composition helpers
    "available_scenarios",
    "make_scenario",
    "apply_overrides",
    "FIGURE_NAMES",
    # execution backends
    "BackendLike",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
]
