"""Parameter sweeps.

A sweep runs a base scenario once per point of a parameter grid (optionally
crossed with several seeds) and returns the per-point averaged results.  This
is the workhorse behind every figure driver in
:mod:`repro.experiments.figures`.

Given a :class:`repro.store.ResultsStore`, a sweep becomes a resumable job:
cells already in the store are served without simulating, and every freshly
computed cell is appended the moment it finishes — so an interrupted
thousand-cell grid reruns only its missing cells, and the merged results are
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.backend import BackendLike
from repro.experiments.results import SweepPoint as _SweepPoint
from repro.experiments.runner import ProgressCallback, run_many_averaged
from repro.experiments.scenario import ScenarioConfig, apply_overrides


def sweep_grid(base: ScenarioConfig, grid: Mapping[str, Sequence[object]]
               ) -> List[Dict[str, object]]:
    """The override mapping of every grid cell, in row-major order.

    This is the (deterministic) cell enumeration :func:`sweep` runs;
    exposing it lets callers (the serve mode, tests) reason about a grid —
    count cells, compute identity keys — without running anything.
    """
    if not grid:
        raise ValueError("sweep grid is empty")
    keys = list(grid)
    return [dict(zip(keys, combination))
            for combination in itertools.product(*(grid[key] for key in keys))]


def sweep(base: ScenarioConfig, grid: Mapping[str, Sequence[object]],
          seeds: Sequence[int] = (1,),
          backend: BackendLike = None, *, store=None,
          progress: Optional[ProgressCallback] = None) -> List[_SweepPoint]:
    """Run *base* across the Cartesian product of *grid*.

    Parameters
    ----------
    base:
        Scenario every point starts from.
    grid:
        Mapping of field name -> sequence of values.  Keys prefixed with
        ``router.`` are routed into ``router_params`` (e.g. ``router.alpha``).
    seeds:
        Seeds to average over at every point.
    backend:
        Execution backend; every grid point × seed fans out in a single
        batch, so with a process pool the whole sweep parallelises.
    store:
        Optional :class:`repro.store.ResultsStore`: cells found in it are
        not simulated, fresh cells are appended as they complete (see
        :func:`repro.experiments.runner.run_many_averaged`).
    progress:
        Optional per-cell progress callback (forwarded to the runner).

    Returns
    -------
    list of SweepPoint
        In the grid's row-major order (identical for every backend and for
        any cached/computed split).
    """
    all_overrides = sweep_grid(base, grid)
    configs = [apply_overrides(base, overrides)
               for overrides in all_overrides]
    results = run_many_averaged(configs, seeds, backend=backend, store=store,
                                progress=progress)
    return [_SweepPoint(overrides=overrides, result=result)
            for overrides, result in zip(all_overrides, results)]
