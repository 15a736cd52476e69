"""The benchmark's workloads: each one maps a seed to the cells a run simulates.

A *cell* is one scenario configuration driven end to end through the public
path (``build_scenario`` -> ``BuiltScenario.run`` -> ``finalize_report``);
every cell counts as one operation.  Each workload is sized so that a
different layer of the simulator does most of the work (the reasons are
in ``BENCHMARK.json``, the measured phase shares in ``rationale.json``).

This module imports nothing from ``repro`` at import time, so the driver can
read the workload names and cell counts without the package on its path.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: the Figure 2 protocols simulated by ``fig2-slice``, in run order
FIG2_PROTOCOLS: Tuple[str, ...] = ("eer", "cr", "maxprop", "ebr",
                                   "spray-and-wait")
#: seeds averaged per protocol, as a figure point averages several runs.
#: With one seed per protocol, ``wall_s`` spread by 14 % (1 000 s horizon)
#: to 20 % (500 s) from seed to seed, because the EER, CR and MaxProp cells'
#: cost follows the contact graph.  Five consecutive seeds
#: ``5 * seed .. 5 * seed + 4`` cut that to about 7 %.
FIG2_SEEDS = 5

#: workload name -> cell names, in the order a run simulates them
WORKLOAD_CELLS: Dict[str, Tuple[str, ...]] = {
    "fig2-slice": tuple(f"{protocol}#{k}" for protocol in FIG2_PROTOCOLS
                        for k in range(FIG2_SEEDS)),
    "paper-eer-40": ("eer",),
    "traffic-10k": ("epidemic",),
    "city-100k": ("direct",),
}

#: ``build_scenario`` calls per cell whose median is the cell's ``setup_s``
#: (several where set-up takes milliseconds, one for the 100k-node world).
#: ``paper-eer-40`` has one 11 ms build; the median of 9 still moved by up
#: to 50 % between repetitions on a noisy host, so it takes 31.
SETUP_BUILDS: Dict[str, int] = {
    "fig2-slice": 5,
    "paper-eer-40": 31,
    "traffic-10k": 3,
    "city-100k": 1,
}

#: the knowledge-layer call counts every traced run checks: those a workload
#: lists in EXPECTED_NONZERO must be non-zero, the others must be 0
KNOWLEDGE_COUNTS = ("memd.dijkstra_calls", "maxprop.path_cost_calls")
EXPECTED_NONZERO: Dict[str, Tuple[str, ...]] = {
    "fig2-slice": KNOWLEDGE_COUNTS,
    "paper-eer-40": ("memd.dijkstra_calls",),
    "traffic-10k": (),
    "city-100k": (),
}

#: run sizes: "full" is the measured benchmark, "smoke" the self-test size
SCALES = ("full", "smoke")

#: per workload and scale, the overrides that size a cell
_SIZES = {
    "fig2-slice": {"full": {"num_nodes": 80, "sim_time": 500.0},
                   "smoke": {"num_nodes": 20, "sim_time": 300.0}},
    "paper-eer-40": {"full": {"num_nodes": 40, "sim_time": 2500.0},
                     "smoke": {"num_nodes": 40, "sim_time": 600.0}},
    "traffic-10k": {"full": {"sim_time": 300.0},
                    "smoke": {"num_nodes": 800, "sim_time": 30.0}},
    "city-100k": {"full": {"sim_time": 4.0},
                  "smoke": {"num_nodes": 3000, "sim_time": 4.0}},
}


def cells(workload: str, seed: int, scale: str = "full") -> List[Tuple[str, object]]:
    """The ``(cell name, ScenarioConfig)`` pairs of one run of *workload*."""
    from repro.experiments.catalog import make_scenario
    from repro.experiments.scenario import ScenarioConfig

    if workload not in WORKLOAD_CELLS:
        raise ValueError(f"unknown workload {workload!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    size = _SIZES[workload][scale]
    if workload == "fig2-slice":
        # the grid ``repro figure`` runs: bench scale, lambda = 10 for
        # every protocol, each protocol's seeds in order
        return [(f"{protocol}#{k}", ScenarioConfig.bench_scale(
                    protocol=protocol, seed=FIG2_SEEDS * seed + k,
                    message_copies=10, **size))
                for protocol in FIG2_PROTOCOLS for k in range(FIG2_SEEDS)]
    if workload == "paper-eer-40":
        # the paper's own settings (0.1 s ticks on the bus map)
        return [("eer", ScenarioConfig.paper_scale(
                    protocol="eer", seed=seed, **size))]
    if workload == "traffic-10k":
        return [("epidemic", make_scenario("rwp-10k-traffic", seed=seed,
                                           **size))]
    return [("direct", make_scenario("rwp-100k", seed=seed, **size))]


def warmup_cells(workload: str) -> List[object]:
    """Tiny configs of the same kinds as *workload*'s cells.

    Running them once before timing finishes every lazy import and one-time
    module set-up, so the timed cells measure simulation work only.
    """
    return [config.with_overrides(num_nodes=8, sim_time=20.0)
            for _, config in cells(workload, seed=1, scale="smoke")]
