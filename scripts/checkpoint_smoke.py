#!/usr/bin/env python
"""CI checkpoint smoke: snapshot a large run, resume it in a fresh process.

Drives the resume-equality contract at the scale tentpole: run the
``rwp-100k`` catalog scenario (shortened) straight through, run it again with
a checkpoint at the cut point, resume that snapshot in a *fresh interpreter*
(the cross-process restore users actually rely on), and require the resumed
canonical report bytes to equal the straight run's.  Writes a JSON artifact
with the live links at the snapshot, the snapshot size (total and per
node), the save and restore times and the equality verdict; exits non-zero
on mismatch.

Usage (CI)::

    python scripts/checkpoint_smoke.py --scenario rwp-100k --sim-time 15 \
        --checkpoint-at 8 --output checkpoint_smoke.json

The ``--resume-report`` mode is the internal child entry point: it loads the
snapshot, runs it to the horizon and prints one JSON object holding the
restore time and the canonical report.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.builder import build_scenario  # noqa: E402
from repro.experiments.catalog import make_scenario  # noqa: E402
from repro.experiments.runner import finalize_report, run_scenario  # noqa: E402
from repro.testing import canonical_report_bytes  # noqa: E402


def build_config(args):
    return make_scenario(args.scenario, {"sim_time": args.sim_time,
                                         "seed": args.seed})


def resume_report(args) -> int:
    """Child mode: restore the snapshot, finish the run, print the report."""
    from repro.checkpoint import load_checkpoint

    started = time.perf_counter()
    restored = load_checkpoint(args.resume_report)
    restore_seconds = time.perf_counter() - started
    world = restored.world
    try:
        world.simulator.run(until=restored.config.sim_time)
        payload = canonical_report_bytes(
            finalize_report(world.stats, restored.config))
    finally:
        world.stop()
    sys.stdout.write(json.dumps({"restore_seconds": restore_seconds,
                                 "report": payload.decode("utf-8")}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="rwp-100k")
    parser.add_argument("--sim-time", type=float, default=15.0)
    parser.add_argument("--checkpoint-at", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--output", default="checkpoint_smoke.json")
    parser.add_argument("--resume-report", metavar="SNAPSHOT",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.resume_report:
        return resume_report(args)

    config = build_config(args)
    print(f"[smoke] straight run: {config.name} to t={config.sim_time:g}",
          flush=True)
    started = time.perf_counter()
    straight = canonical_report_bytes(run_scenario(config))
    straight_seconds = time.perf_counter() - started

    print(f"[smoke] checkpointed run: snapshot at t={args.checkpoint_at:g}",
          flush=True)
    snapshot_path = Path(args.output).resolve().parent / "smoke.ckpt"
    built = build_scenario(config)
    try:
        built.simulator.run(until=args.checkpoint_at)
        live_links = len(built.world.connections)
        started = time.perf_counter()
        built.world.save_checkpoint(str(snapshot_path), config=config)
        save_seconds = time.perf_counter() - started
    finally:
        built.world.stop()
    snapshot_bytes = snapshot_path.stat().st_size
    print(f"[smoke] snapshot: {snapshot_bytes / 1e6:.1f} MB", flush=True)

    print("[smoke] resuming in a fresh process", flush=True)
    started = time.perf_counter()
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--resume-report", str(snapshot_path)],
        capture_output=True, text=True)
    resume_seconds = time.perf_counter() - started
    if child.returncode != 0:
        print(child.stderr, file=sys.stderr)
        print("[smoke] FAIL: resume process crashed", file=sys.stderr)
        return 1
    child_result = json.loads(child.stdout)
    resumed = child_result["report"].encode("utf-8")

    equal = resumed == straight
    artifact = {
        "scenario": config.name,
        "num_nodes": config.num_nodes,
        "sim_time": config.sim_time,
        "checkpoint_at": args.checkpoint_at,
        "seed": config.seed,
        "live_links": live_links,
        "snapshot_bytes": snapshot_bytes,
        "snapshot_bytes_per_node": round(snapshot_bytes / config.num_nodes, 1),
        "straight_run_seconds": round(straight_seconds, 3),
        "save_seconds": round(save_seconds, 3),
        "restore_seconds": round(child_result["restore_seconds"], 3),
        "fresh_process_resume_seconds": round(resume_seconds, 3),
        "resume_equal": equal,
    }
    Path(args.output).write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"[smoke] artifact -> {args.output}: "
          f"{json.dumps(artifact, indent=2)}", flush=True)
    if not equal:
        print("[smoke] FAIL: resumed report diverged from the straight run",
              file=sys.stderr)
        return 1
    print("[smoke] OK: resumed report is byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
