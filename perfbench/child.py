"""One measured run of one workload, in a fresh process.

``run.py`` starts this script once per repetition.  It imports everything,
finishes lazy set-up on tiny warm-up configs, then drives every cell of the
workload through the public path a ``repro run``/``repro figure`` user goes
through::

    build_scenario(config) -> BuiltScenario.run() -> finalize_report(...)

``setup_s`` is the ``build_scenario`` call, ``wall_s`` runs from that call
to ``finalize_report`` returning; both are summed over cells.  Each cell's
canonical digest (SHA-256 of ``repro.testing.canonical_report_bytes``) is
reported for the driver to check.  With ``--trace 1`` the per-layer hooks of
``tracer.py`` are installed after the warm-up and the spans are written to
``--spans-out``.  The last stdout line is one JSON object.

Usage (normally via ``run.py``), from the repository root::

    python3 perfbench/child.py --workload fig2-slice --seed 1
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

# the checkout's own sources, never an installed copy
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy  # noqa: E402,F401  (imported before any timer starts)

from repro.experiments.builder import build_scenario  # noqa: E402
from repro.experiments.runner import finalize_report, run_scenario  # noqa: E402
from repro.testing import canonical_report_bytes  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def digest(report) -> str:
    """SHA-256 of the report's canonical bytes (timings excluded)."""
    return hashlib.sha256(canonical_report_bytes(report)).hexdigest()


def consistency_error(report):
    """Why *report* is internally inconsistent, or ``None`` if it is not."""
    created, delivered = report.created, report.delivered
    if not 0 <= delivered <= created:
        return f"delivered={delivered} outside [0, created={created}]"
    expected = delivered / created if created else 0.0
    if report.delivery_ratio != expected:
        return (f"delivery_ratio={report.delivery_ratio!r} != "
                f"delivered/created={expected!r}")
    return None


def time_build(config) -> float:
    """Seconds one untimed-run ``build_scenario`` of *config* takes."""
    gc.collect()
    start = time.perf_counter()
    built = build_scenario(config)
    elapsed = time.perf_counter() - start
    built.world.stop()
    return elapsed


def measure_cell(config, tracer, cell_index, builds=1):
    """Build, run and summarise one cell; returns (report, timings).

    ``setup_s`` is the median of *builds* ``build_scenario`` calls (the
    last one is the build that runs), which steadies the millisecond-scale
    set-up of small worlds.
    """
    setups = [time_build(config) for _ in range(builds - 1)]
    gc.collect()
    start = time.perf_counter()
    built = build_scenario(config)
    built_at = time.perf_counter()
    if tracer is not None:
        tracer.attach(built.world, cell_index)
    try:
        built.run()
    finally:
        built.world.stop()
    ran_at = time.perf_counter()
    report = finalize_report(built.stats, config)
    end = time.perf_counter()
    setups.append(built_at - start)
    return report, {"setup_s": statistics.median(setups),
                    "wall_s": end - start,
                    "run_s": ran_at - built_at, "finalize_s": end - ran_at}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOAD_CELLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=workloads.SCALES)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--builds", type=int, default=1,
                        help="build_scenario calls per cell; setup_s is "
                             "their median")
    parser.add_argument("--spans-out", default=None,
                        help="write the traced run's spans here (.npz)")
    args = parser.parse_args(argv)

    for config in workloads.warmup_cells(args.workload):
        run_scenario(config)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install_module_hooks()

    cells = []
    reports = []
    run_s = finalize_s = 0.0
    for index, (name, config) in enumerate(
            workloads.cells(args.workload, args.seed, args.scale)):
        try:
            report, timings = measure_cell(config, tracer, index,
                                           builds=args.builds)
        except Exception:  # a failed cell is a failed operation, not a crash
            cells.append({"cell": name, "error": traceback.format_exc()})
            continue
        reports.append(report)
        run_s += timings["run_s"]
        finalize_s += timings["finalize_s"]
        cells.append({"cell": name, "digest": digest(report),
                      "inconsistent": consistency_error(report),
                      "setup_s": timings["setup_s"],
                      "wall_s": timings["wall_s"]})
        del report
    result = {"cells": cells,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(reports, run_s, finalize_s)
        result["shares"] = tracer.phase_shares(run_s)
        if args.spans_out:
            tracer.save(args.spans_out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
