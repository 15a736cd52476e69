"""Running scenarios and averaging over seeds.

Seed replicates (and, for the figure drivers, whole grids of scenario
points) fan out through an :class:`~repro.experiments.backend.ExecutionBackend`.
Results are merged in seed order regardless of completion order, so a run
with :class:`~repro.experiments.backend.ProcessPoolBackend` produces results
identical to the serial backend.
"""

from __future__ import annotations

import math
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.backend import BackendLike, resolve_backend
from repro.experiments.builder import build_scenario
from repro.experiments.results import AveragedResult as _AveragedResult
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.collector import StatsCollector
from repro.metrics.reports import SimulationReport, build_report

#: progress callback: receives one dict per resolved cell (see
#: run_many_averaged's ``progress`` parameter)
ProgressCallback = Callable[[Dict[str, object]], None]


def finalize_report(stats: StatsCollector,
                    config: ScenarioConfig) -> SimulationReport:
    """Summarise a finished (or resumed-and-finished) run's collector.

    This is the one report-construction path shared by straight-through
    runs, checkpointed runs and resumed runs — the resume-equality contract
    (docs/checkpointing.md) compares its canonical output byte for byte.
    """
    extra = {
        "alpha": float(config.router_params.get("alpha", float("nan")))
        if "alpha" in config.router_params else float("nan"),
        "copies": float(config.message_copies),
        "ttl": float(config.message_ttl),
        "buffer": float(config.buffer_capacity),
    }
    return build_report(stats, protocol=config.protocol,
                        num_nodes=config.num_nodes, sim_time=config.sim_time,
                        seed=config.seed, extra=extra)


def run_scenario(config: ScenarioConfig) -> SimulationReport:
    """Build, run and summarise one scenario."""
    built = build_scenario(config)
    try:
        built.run()
    finally:
        built.world.stop()
    return finalize_report(built.stats, config)


def _drive_with_checkpoints(world, config: ScenarioConfig, every: float,
                            directory: str, written: List[str]) -> None:
    """Run *world* to the horizon, snapshotting at every ``every`` boundary.

    The run is split into ``run(until=boundary)`` segments; a split run is
    event-identical to one uninterrupted ``run`` (events exactly at a
    boundary fire before the segment returns, later ones after), so the
    snapshots observe exactly the state a straight-through run would have
    had at those times.  A snapshot is also written at the horizon, so a
    finished run always leaves a warm world to fork sweeps from.
    """
    simulator = world.simulator
    end = float(config.sim_time)
    if every <= 0:
        raise ValueError("checkpoint interval must be positive")
    while simulator.now < end:
        boundary = (math.floor(simulator.now / every) + 1) * every
        simulator.run(until=min(end, boundary))
        path = os.path.join(
            directory,
            f"{config.name}-seed{config.seed}-t{simulator.now:g}.ckpt")
        world.save_checkpoint(path, config=config)
        written.append(path)


def run_scenario_checkpointed(
        config: ScenarioConfig, every: float,
        directory: str = ".") -> Tuple[SimulationReport, List[str]]:
    """Run one scenario, writing a snapshot every ``every`` sim-seconds.

    Returns the (unchanged — see :func:`finalize_report`) report plus the
    snapshot paths written, in chronological order.
    """
    built = build_scenario(config)
    written: List[str] = []
    try:
        _drive_with_checkpoints(built.world, config, every, directory, written)
    finally:
        built.world.stop()
    return finalize_report(built.stats, config), written


def resume_scenario(
        path: str, *, sim_time: Optional[float] = None,
        checkpoint_every: Optional[float] = None,
        checkpoint_dir: str = ".",
) -> Tuple[SimulationReport, ScenarioConfig, List[str]]:
    """Resume a snapshot to its (or an extended/shortened) horizon.

    Parameters
    ----------
    path:
        A snapshot written by :func:`run_scenario_checkpointed` /
        ``World.save_checkpoint`` *with an embedded config*.
    sim_time:
        Optional replacement horizon (must not precede the snapshot time).
        This is the only safe post-hoc override: everything else — protocol,
        traffic, topology — is baked into the serialized world.
    checkpoint_every / checkpoint_dir:
        Keep snapshotting the resumed run at this cadence.

    Returns ``(report, config, written_paths)`` where *config* is the
    embedded scenario (horizon-adjusted when *sim_time* is given).
    """
    from repro.checkpoint import CheckpointError, load_checkpoint

    restored = load_checkpoint(path)
    world = restored.world
    config = restored.config
    if config is None:
        raise CheckpointError(
            f"snapshot {path!r} has no embedded scenario config; save it "
            "with config= (the CLI does) to make it resumable")
    if sim_time is not None:
        if float(sim_time) < restored.sim_now:
            raise ValueError(
                f"sim_time={sim_time:g} precedes the snapshot time "
                f"t={restored.sim_now:g}; a snapshot only runs forward")
        config = config.with_overrides(sim_time=float(sim_time))
        world.simulator.end_time = float(sim_time)
    written: List[str] = []
    try:
        if checkpoint_every:
            _drive_with_checkpoints(world, config, checkpoint_every,
                                    checkpoint_dir, written)
        else:
            world.simulator.run(until=config.sim_time)
    finally:
        world.stop()
    return finalize_report(world.stats, config), config, written


def _timed_run(config: ScenarioConfig) -> Tuple[SimulationReport, float]:
    """Picklable top-level wrapper: one run plus its wall-clock seconds.

    The elapsed time is store provenance only — the report is untouched, so
    stored and fresh results stay byte-identical.
    """
    start = time.perf_counter()
    report = run_scenario(config)
    return report, time.perf_counter() - start


def _progress_event(status: str, index: int, total: int,
                    config: ScenarioConfig) -> Dict[str, object]:
    return {
        "event": "cell",
        "status": status,
        "index": index,
        "total": total,
        "scenario": config.name,
        "protocol": config.protocol,
        "seed": config.seed,
        "config_hash": config.config_hash(),
    }


def _run_with_store(run_configs: Sequence[ScenarioConfig], executor, store,
                    progress: Optional[ProgressCallback]
                    ) -> List[SimulationReport]:
    """Resolve every run config through *store*, computing only the misses.

    Cached cells load without simulating; missing cells fan out over
    *executor* and are persisted **as each one completes** (the incremental
    :meth:`~repro.experiments.backend.ExecutionBackend.imap` seam), so an
    interrupted sweep resumes from exactly the cells it finished.
    """
    total = len(run_configs)
    reports: List[Optional[SimulationReport]] = store.get_many(run_configs)
    missing = [i for i, report in enumerate(reports) if report is None]
    if progress is not None:
        for index, report in enumerate(reports):
            if report is not None:
                progress(_progress_event("cached", index, total,
                                         run_configs[index]))
    outcomes = executor.imap(_timed_run, [run_configs[i] for i in missing])
    for index, (report, elapsed) in zip(missing, outcomes):
        store.put(run_configs[index], report, wall_seconds=elapsed)
        reports[index] = report
        if progress is not None:
            progress(_progress_event("computed", index, total,
                                     run_configs[index]))
    return reports  # type: ignore[return-value]


def run_averaged(config: ScenarioConfig, seeds: Sequence[int],
                 backend: BackendLike = None, *, store=None,
                 progress: Optional[ProgressCallback] = None
                 ) -> _AveragedResult:
    """Run *config* once per seed and collect the reports.

    The paper averages every plotted point over 10 simulation runs; the
    benchmark harness defaults to fewer seeds (see the benchmark modules).
    Seed runs are independent, so they fan out across *backend*; the report
    list is merged in seed order regardless of completion order.  With a
    *store*, already-recorded seeds are served from it instead of rerunning
    (see :func:`run_many_averaged`).
    """
    return run_many_averaged([config], seeds, backend=backend, store=store,
                             progress=progress)[0]


def run_many_averaged(configs: Sequence[ScenarioConfig], seeds: Sequence[int],
                      backend: BackendLike = None, *, store=None,
                      progress: Optional[ProgressCallback] = None
                      ) -> List[_AveragedResult]:
    """Run every config × seed combination and average per config.

    This is the fan-out point for the figure drivers and sweeps: the full
    ``len(configs) * len(seeds)`` grid of runs is handed to *backend* in one
    order-preserving :meth:`~repro.experiments.backend.ExecutionBackend.map`
    call, then regrouped into one :class:`AveragedResult` per config, in
    config order with reports in seed order — deterministic by construction.

    Parameters
    ----------
    configs, seeds, backend:
        As before (the grid is ``configs × seeds``).
    store:
        Optional :class:`repro.store.ResultsStore`.  Every cell already in
        the store is loaded instead of simulated (exact dedupe on the
        canonical identity key); every freshly computed cell is appended the
        moment it finishes, so an interrupted grid resumes for free.  Stored
        and fresh reports are byte-identical in their canonical form, so the
        merged results do not depend on which cells were cached.
    progress:
        Optional callable receiving one dict per resolved cell
        (``status`` ``"cached"``/``"computed"``, grid ``index``/``total``
        and the cell identity); the CLI streams these as progress lines.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    seed_list = [int(seed) for seed in seeds]
    executor = resolve_backend(backend)
    run_configs = [config.with_overrides(seed=seed)
                   for config in configs for seed in seed_list]
    try:
        if store is None:
            reports = executor.map(run_scenario, run_configs)
        else:
            reports = _run_with_store(run_configs, executor, store, progress)
    finally:
        if executor is not backend:
            # we resolved a name/None into a fresh backend: release its
            # workers here instead of leaking them to the garbage collector
            executor.close()
    results: List[_AveragedResult] = []
    for index, config in enumerate(configs):
        chunk = reports[index * len(seed_list):(index + 1) * len(seed_list)]
        results.append(_AveragedResult(
            protocol=config.protocol, num_nodes=config.num_nodes,
            seeds=list(seed_list), reports=list(chunk), config=config))
    return results
