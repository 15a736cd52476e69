#!/usr/bin/env python3
"""Pair the repository benchmark on a change and its base, and judge it.

For every workload ``BENCHMARK.json`` declares, runs::

    python3 <side>/perfbench/run.py --workload W --seed S --seconds T --trace 0

on both checkouts in interleaved pairs: each pair runs the base and the head
back to back on its own seed (1, 2, ...), and the side that runs first
alternates from pair to pair.  ``T`` is the benchmark's ``run_seconds``.
Each end-to-end metric is then judged against its ``BENCHMARK.json`` bound:

* a run that printed no result, reads ``correct: false`` or has
  ``failed > 0`` fails the comparison: a digest that differs from
  ``perfbench/digests.json`` is a behaviour change, not a timing;
* a head median worse than the base median by more than the bound fails
  the comparison when every head run also reads worse than every base run;
* a median worse than the bound whose runs overlap the base runs is
  ``unresolved``: the spread between runs is wider than the bound, and the
  pairs cannot tell a regression from noise.

Writes the whole table (every run and every verdict, and for each side its
path relative to the working directory, its commit and whether its tree is
dirty) as one JSON file, which a change that claims a gain commits as its
``BENCH_PR<k>.json``, and exits 1 when the comparison fails.  Nothing under
``perfbench/`` is imported: each side runs its own benchmark code in a
fresh process.

Usage::

    python3 scripts/perfbench_pairs.py --base ../base --head . \
        --pairs 5 --output BENCH_ci.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: a perfbench run ends within 170 s; one that outlives this is a failure
RUN_TIMEOUT_S = 300


def load_benchmark(path: Path = ROOT / "BENCHMARK.json") -> Dict:
    """The workload names, the end-to-end metrics with their bounds and
    the run length, as ``BENCHMARK.json`` declares them."""
    with path.open() as handle:
        declared = json.load(handle)
    return {"workloads": [entry["name"] for entry in declared["workloads"]],
            "metrics": declared["end_to_end"],
            "seconds": declared["run_seconds"]}


def run_side(side: Path, workload: str, seed: int,
             seconds: float) -> Optional[Dict]:
    """One perfbench run on checkout *side*: its JSON result, or ``None``
    when it printed none (a crash, a missing source tree, a timeout)."""
    command = [sys.executable, str(side / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(command, cwd=str(side), stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None
    lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def run_failure(result: Optional[Dict]) -> Optional[str]:
    """Why a run failed, or ``None`` for a correct run."""
    if result is None:
        return "printed no result"
    if not result["correct"] or result["failed"] > 0:
        return (f"correct={result['correct']}, failed {result['failed']} "
                f"of {result['attempted']} operations")
    return None


def judge(base: List[Optional[Dict]], head: List[Optional[Dict]],
          metrics: List[Dict]) -> Dict:
    """The verdict on one workload's pairs; *metrics* are the
    ``BENCHMARK.json`` ``end_to_end`` entries.

    A metric reads ``regressed`` when the head median is worse than the
    base median by more than its bound and every head run is worse than
    every base run, ``unresolved`` when the median is worse by more than
    the bound but the runs overlap, and ``ok`` otherwise.  The workload
    fails on any failed run or any regressed metric.
    """
    failures = [f"{side} run {index + 1}: {reason}"
                for side, runs in (("base", base), ("head", head))
                for index, reason in enumerate(map(run_failure, runs))
                if reason is not None]
    verdicts = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        before = [r["metrics"][name]["value"] for r in base if r is not None]
        after = [r["metrics"][name]["value"] for r in head if r is not None]
        if not before or not after:
            continue
        base_median = statistics.median(before)
        head_median = statistics.median(after)
        change = ((head_median - base_median) / base_median if base_median
                  else 0.0 if head_median == base_median else float("inf"))
        worse_by = change if lower else -change
        separated = (min(after) > max(before) if lower
                     else max(after) < min(before))
        verdict = ("ok" if worse_by <= metric["bound"]
                   else "regressed" if separated else "unresolved")
        verdicts[name] = {"unit": metric["unit"], "bound": metric["bound"],
                          "base_median": base_median,
                          "head_median": head_median, "change": change,
                          "verdict": verdict}
    failed = bool(failures) or any(entry["verdict"] == "regressed"
                                   for entry in verdicts.values())
    return {"failures": failures, "metrics": verdicts,
            "verdict": "fail" if failed else "pass"}


def _git(side: Path, *args: str) -> Optional[str]:
    done = subprocess.run(["git", "-C", str(side), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          check=False)
    return done.stdout.decode().strip() if done.returncode == 0 else None


def provenance(side: Path) -> Dict:
    """Where checkout *side* is, relative to the working directory, the
    commit it has checked out and whether its tree differs from that commit
    (``git status --porcelain``); the last two are ``None`` outside git."""
    revision = _git(side, "rev-parse", "HEAD")
    status = _git(side, "status", "--porcelain") if revision else None
    return {"path": os.path.relpath(side), "revision": revision,
            "dirty": None if status is None else bool(status)}


def format_table(table: Dict) -> str:
    """The judged metrics, one line per workload and metric."""
    lines = [f"{'workload':<14}{'metric':<13}{'base':>10}{'head':>10}"
             f"{'change':>9}{'bound':>7}  verdict"]
    for workload, entry in table["workloads"].items():
        for name, metric in entry["metrics"].items():
            lines.append(
                f"{workload:<14}{name:<13}{metric['base_median']:>10.3f}"
                f"{metric['head_median']:>10.3f}{metric['change']:>+9.1%}"
                f"{metric['bound']:>7.0%}  {metric['verdict']}")
        lines.extend(f"{workload:<14}FAILED {failure}"
                     for failure in entry["failures"])
    lines.append(f"verdict: {table['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout of the base commit")
    parser.add_argument("--head", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=5,
                        help="pairs per workload, one seed each (default: 5)")
    parser.add_argument("--output", type=Path, required=True,
                        help="where to write the JSON table")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = load_benchmark()
    base, head = args.base.resolve(), args.head.resolve()
    table = {"base": provenance(base), "head": provenance(head),
             "pairs": args.pairs, "seconds": benchmark["seconds"],
             "python": platform.python_version(), "workloads": {}}
    checkouts = {"base": base, "head": head}
    for workload in benchmark["workloads"]:
        runs: Dict[str, List[Optional[Dict]]] = {"base": [], "head": []}
        seeds = list(range(1, args.pairs + 1))
        for index, seed in enumerate(seeds):
            for side in ("base", "head") if index % 2 == 0 else ("head", "base"):
                result = run_side(checkouts[side], workload, seed,
                                  benchmark["seconds"])
                runs[side].append(result)
                print(f"{workload} seed {seed} {side}: "
                      f"{run_failure(result) or result['metrics']}",
                      file=sys.stderr)
        table["workloads"][workload] = {
            "seeds": seeds, **runs,
            **judge(runs["base"], runs["head"], benchmark["metrics"])}
    table["verdict"] = ("fail" if any(entry["verdict"] == "fail"
                                      for entry in table["workloads"].values())
                        else "pass")
    args.output.write_text(json.dumps(table, indent=2) + "\n")
    print(format_table(table))
    return 1 if table["verdict"] == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
