"""Self-tests of the benchmark, at smoke size (about a minute in total).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

They drive ``run.py`` exactly as a benchmark run does, only with every cell
shrunk (``--scale smoke``), and check that every metric ``BENCHMARK.json``
declares is emitted with its unit, that the traced run's call-count and
digest checks pass, that a wrong expected digest is reported as a failed
operation, and that a directory without the sources or without the recorded
digests yields no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench_out"


def copy_benchmark(dest, with_sources):
    """A fresh checkout-like copy of the benchmark in *dest*."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        (dest / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return dest


def bench(*args, cwd=ROOT):
    """Run the benchmark command with *args*; (exit code, stdout lines)."""
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args], cwd=str(cwd),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180)
    return done.returncode, done.stdout.decode().strip().splitlines()


def smoke(workload, trace, cwd=ROOT):
    code, lines = bench("--workload", workload, "--seed", "1",
                        "--seconds", "1", "--trace", str(trace),
                        "--scale", "smoke", cwd=cwd)
    assert code == 0
    return json.loads(lines[-1])


def test_spec_matches_driver():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOAD_CELLS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.WORKLOAD_CELLS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric(workload, trace, section):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # correct also covers the traced run's checks: identical traced and
    # untraced digests, and the knowledge-layer call-count expectations
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2 * len(workloads.WORKLOAD_CELLS[workload])
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == declared
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
    if trace == 0:
        assert all(result["metrics"][m]["value"] > 0 for m in declared)


def test_tampered_digest_is_a_failed_operation():
    copy = copy_benchmark(SCRATCH / "tampered", with_sources=True)
    cells = {cell: "0" * 64 for cell in workloads.WORKLOAD_CELLS["city-100k"]}
    (copy / "perfbench" / "digests.json").write_text(
        json.dumps({"smoke": {"city-100k": {"1": cells}}}))
    try:
        result = smoke("city-100k", 0, cwd=copy)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    assert result["correct"] is False
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]


def test_recorded_digests_cover_every_workload():
    recorded = run.load_digests()["full"]
    for workload, cells in workloads.WORKLOAD_CELLS.items():
        assert recorded[workload], workload
        for by_cell in recorded[workload].values():
            assert sorted(by_cell) == sorted(cells)


@pytest.mark.parametrize("with_sources", [False, True],
                         ids=["no-sources", "no-digests"])
def test_incomplete_checkout_exits_nonzero_and_prints_no_result(with_sources):
    copy = copy_benchmark(SCRATCH / "incomplete", with_sources)
    if with_sources:
        (copy / "perfbench" / "digests.json").unlink()
    try:
        code, lines = bench("--workload", "fig2-slice", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=copy)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_seconds_above_the_cap_is_rejected():
    code, lines = bench("--workload", "fig2-slice", "--seed", "1",
                        "--seconds", str(run.MAX_SECONDS + 1), "--trace", "0")
    assert code != 0
    assert not lines
