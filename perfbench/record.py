"""Record the benchmark's expected digests and measured phase shares.

Run from the repository root::

    python3 perfbench/record.py --seeds 1-20          # digests.json
    python3 perfbench/record.py --shares              # rationale.json

``digests.json`` holds the canonical report digest of every cell of every
workload for each recorded seed; ``run.py`` fails a cell whose digest
differs.  Re-record only in a change that explains why the simulation's
outcome changed.  ``rationale.json`` holds the phase shares of each
workload's traced run (seed 1); with the reasons in ``BENCHMARK.json``,
later performance work can name the workload that exercises its layer and
the one that bypasses it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads
from run import HERE, ROOT, THREAD_PINS, total


def child(workload: str, seed: int, trace: bool) -> dict:
    """One child run of *workload*, built as ``run.py`` builds it."""
    builds = 1 if trace else workloads.SETUP_BUILDS[workload]
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "1" if trace else "0",
               "--builds", str(builds)]
    done = subprocess.run(command, cwd=str(ROOT), check=True,
                          stdout=subprocess.PIPE,
                          env=dict(os.environ, **THREAD_PINS))
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def parse_seeds(text: str) -> list:
    """``"1-4,9"`` -> ``[1, 2, 3, 4, 9]``."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=None,
                        help="record digests for these seeds, e.g. 1-20")
    parser.add_argument("--shares", action="store_true",
                        help="record the traced phase shares (seed 1)")
    parser.add_argument("--workload", action="append", default=None,
                        choices=sorted(workloads.WORKLOAD_CELLS))
    args = parser.parse_args(argv)
    names = args.workload or list(workloads.WORKLOAD_CELLS)

    if args.seeds:
        path = HERE / "digests.json"
        recorded = json.loads(path.read_text()) if path.exists() else {}
        full = recorded.setdefault("full", {})
        for name in names:
            for seed in args.seeds:
                result = child(name, seed, trace=False)
                cells = {}
                for cell in result["cells"]:
                    if "error" in cell or cell["inconsistent"]:
                        raise SystemExit(f"{name} seed {seed}: {cell}")
                    cells[cell["cell"]] = cell["digest"]
                full.setdefault(name, {})[str(seed)] = cells
                print(f"{name} seed {seed}: {len(cells)} cells", flush=True)
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    if args.shares:
        path = HERE / "rationale.json"
        rationale = json.loads(path.read_text()) if path.exists() else {}
        for name in names:
            plain = child(name, 1, trace=False)
            traced = child(name, 1, trace=True)
            layers = traced["layers"]
            rationale[name] = {
                "setup_share_of_wall": round(
                    total(plain, "setup_s") / total(plain, "wall_s"), 3),
                "run_phase_shares": traced["shares"],
                "memd_dijkstra_calls": layers["memd.dijkstra_calls"],
                "maxprop_path_cost_calls": layers["maxprop.path_cost_calls"],
                "transfers_completed": layers["transfers.completed"],
                "ticks": layers["sim.ticks"],
            }
            print(f"{name}: {rationale[name]}", flush=True)
        path.write_text(json.dumps(rationale, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
