"""The repository benchmark: end-to-end DTN workloads timed in fresh processes.

Run from the repository root::

    python3 perfbench/run.py --workload fig2-slice --seed 1 --seconds 20 --trace 0

The driver runs one simulation at a time (a closed loop), each repetition
in a fresh ``child.py`` process, until ``--seconds`` of measuring is spent
(at least ``MIN_REPS`` repetitions).  Every simulated cell is one
operation; it fails if it raises, or if its canonical report digest differs
from the one recorded in ``digests.json`` for that seed (seeds without a
recorded digest get a report self-consistency check instead).  A missing
``digests.json`` is an error, not a licence to skip the digest checks.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions.  ``--trace 1`` runs one untraced and one traced repetition,
requires identical digests from both, checks the knowledge-layer call-count
expectations, writes the spans to ``.perfbench_out/`` and reports the
per-layer metrics.  The last stdout line is the JSON result; a run that
cannot produce one (no sources, a crashed or timed-out child) exits
non-zero without printing it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: end-to-end metric -> unit (every workload, ``--trace 0``)
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit (every workload, ``--trace 1``)
PER_LAYER: Dict[str, str] = {
    "world.add_node_s": "s",
    "mobility.advance_s": "s",
    "mobility.tick_ms_p50": "ms",
    "mobility.tick_ms_p99": "ms",
    "connectivity.detect_s": "s",
    "connectivity.detect_ms_p99": "ms",
    "connectivity.links_s": "s",
    "connectivity.link_ups": "count",
    "transfers.phase_s": "s",
    "transfers.completed": "count",
    "transfers.aborted": "count",
    "routers.phase_s": "s",
    "routers.tick_ms_p50": "ms",
    "routers.tick_ms_p99": "ms",
    "routers.self_s": "s",
    "routers.ticked": "count",
    "routers.batched": "count",
    "routers.skipped": "count",
    "memd.lookups": "count",
    "memd.dijkstra_calls": "count",
    "memd.dijkstra_s": "s",
    "memd.hit_ratio": "ratio",
    "expectation.eev_calls": "count",
    "expectation.eev_s": "s",
    "maxprop.path_cost_calls": "count",
    "maxprop.path_cost_s": "s",
    "sim.ticks": "count",
    "sim.loop_s": "s",
    "reports.finalize_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: repetitions every untraced run makes, however long they take
MIN_REPS = 2
#: the whole run ends within this many seconds, children included (a run
#: must exit within 180 s)
DEADLINE_S = 170.0
#: the largest ``--seconds`` accepted: half the deadline, which leaves the
#: other half for the repetition in flight when the budget runs out
MAX_SECONDS = DEADLINE_S / 2
#: one thread per BLAS/OpenMP pool: with the sharded detector's one worker
#: per CPU, the thread count never exceeds the core count
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class RunError(Exception):
    """The run could not produce a result (no sources, a child crashed)."""


def load_digests() -> Dict:
    """Recorded digests: ``{scale: {workload: {seed: {cell: sha256}}}}``."""
    with DIGESTS.open() as handle:
        return json.load(handle)


def run_child(args, deadline: float, trace: bool, builds: int,
              spans_out: Optional[Path] = None) -> Dict:
    """One repetition in a fresh process; returns the child's JSON result."""
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", args.scale, "--trace", "1" if trace else "0",
               "--builds", str(builds)]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    env = dict(os.environ, **THREAD_PINS)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before a repetition could start")
    try:
        done = subprocess.run(command, cwd=str(ROOT), env=env,
                              stdout=subprocess.PIPE, timeout=remaining,
                              check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child
        raise RunError(f"repetition exceeded the {DEADLINE_S:.0f} s budget")
    lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"child exited with code {done.returncode}")
    return json.loads(lines[-1])


def total(result: Dict, key: str) -> float:
    """*key* summed over one repetition's cells (failed cells count 0)."""
    return sum(cell.get(key, 0.0) for cell in result["cells"])


def check_cells(result: Dict, expected: Dict[str, str],
                problems: List[str]) -> int:
    """Count the failed cells of one repetition, noting why each failed."""
    failed = 0
    for cell in result["cells"]:
        name = cell["cell"]
        if "error" in cell:
            problems.append(f"{name}: raised\n{cell['error']}")
        elif name in expected and cell["digest"] != expected[name]:
            problems.append(f"{name}: digest {cell['digest'][:16]} != "
                            f"recorded {expected[name][:16]}")
        elif name not in expected and cell["inconsistent"]:
            problems.append(f"{name}: inconsistent report: "
                            f"{cell['inconsistent']}")
        else:
            continue
        failed += 1
    return failed


def measure(args, expected: Dict[str, str], start: float) -> Dict:
    """Untraced repetitions until ``--seconds`` is spent; medians of each."""
    deadline = start + DEADLINE_S
    builds = workloads.SETUP_BUILDS[args.workload]
    results, durations, problems = [], [], []
    failed = 0
    while True:
        began = time.monotonic()
        result = run_child(args, deadline, trace=False, builds=builds)
        durations.append(time.monotonic() - began)
        failed += check_cells(result, expected, problems)
        results.append(result)
        print(json.dumps({"rep": len(results), "seconds": durations[-1],
                          "peak_rss_mb": result["peak_rss_mb"],
                          "cells": {c["cell"]: [c.get("setup_s"), c.get("wall_s")]
                                    for c in result["cells"]}}),
              file=sys.stderr)
        spent = time.monotonic() - start
        if (len(results) >= MIN_REPS
                and spent + statistics.median(durations) > args.seconds):
            break
    per_rep = {
        "wall_s": [total(r, "wall_s") for r in results],
        "setup_s": [total(r, "setup_s") for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    return {"attempted": sum(len(r["cells"]) for r in results),
            "failed": failed, "problems": problems,
            "metrics": {name: statistics.median(values)
                        for name, values in per_rep.items()},
            "reps": len(results)}


def measure_traced(args, expected: Dict[str, str], start: float) -> Dict:
    """One untraced and one traced repetition; the per-layer metrics.

    Both build each cell once, so ``trace.overhead_ratio`` compares like
    with like (it comes from this single pair of repetitions).
    """
    deadline = start + DEADLINE_S
    problems: List[str] = []
    plain = run_child(args, deadline, trace=False, builds=1)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-{args.scale}-seed{args.seed}.npz"
    traced = run_child(args, deadline, trace=True, builds=1, spans_out=spans)
    failed = (check_cells(plain, expected, problems)
              + check_cells(traced, expected, problems))
    plain_digests = [c.get("digest") for c in plain["cells"]]
    traced_digests = [c.get("digest") for c in traced["cells"]]
    if plain_digests != traced_digests:
        problems.append("tracing perturbed the simulation: traced digests "
                        f"{traced_digests} != untraced {plain_digests}")
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = (total(traced, "wall_s")
                                      / total(plain, "wall_s"))
    for name in workloads.KNOWLEDGE_COUNTS:
        if (layers[name] > 0) != (name in workloads.EXPECTED_NONZERO[args.workload]):
            problems.append(f"{name}={layers[name]} contradicts the "
                            f"{args.workload} workload's protocols")
    return {"attempted": len(plain["cells"]) + len(traced["cells"]),
            "failed": failed, "problems": problems, "metrics": layers,
            "shares": traced["shares"], "reps": 2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOAD_CELLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=workloads.SCALES,
                        help="'smoke' shrinks every cell (self-tests)")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS:.0f}]: a run "
                     f"must end within {DEADLINE_S:.0f} s")

    start = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        recorded = load_digests()
    except (OSError, ValueError) as error:
        print(f"error: cannot read the recorded digests: {error}",
              file=sys.stderr)
        return 2
    expected = (recorded.get(args.scale, {})
                .get(args.workload, {}).get(str(args.seed), {}))
    try:
        outcome = (measure_traced if args.trace else measure)(
            args, expected, start)
    except RunError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for problem in outcome["problems"]:
        print(f"FAILED {args.workload} seed {args.seed}: {problem}",
              file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"{args.workload} seed {args.seed}: {outcome['reps']} repetitions, "
          f"digests {'recorded' if expected else 'not recorded (consistency check)'}",
          file=sys.stderr)
    result = {
        "correct": outcome["failed"] == 0 and not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    if args.trace:
        print(json.dumps({"phase_shares": outcome["shares"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
