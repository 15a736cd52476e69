"""The decision logic of ``scripts/perfbench_pairs.py``, the CI perf gate.

The gate pairs the repository benchmark on a change and its base; these
tests pin what it fails on, what it reports as unresolved and what passes,
on hand-made perfbench results (no benchmark runs).
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_pairs", ROOT / "scripts" / "perfbench_pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

METRICS = pairs.load_benchmark()["metrics"]


def result(wall_s=2.0, setup_s=0.2, peak_rss_mb=150.0, failed=0,
           correct=True):
    """One perfbench ``--trace 0`` result line."""
    values = {"wall_s": (wall_s, "s"), "setup_s": (setup_s, "s"),
              "peak_rss_mb": (peak_rss_mb, "MB")}
    return {"correct": correct, "attempted": 5, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in values.items()}}


def test_reads_the_declared_workloads_and_bounds():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    benchmark = pairs.load_benchmark()
    assert benchmark["workloads"] == [w["name"] for w in declared["workloads"]]
    assert benchmark["metrics"] == declared["end_to_end"]
    assert benchmark["seconds"] == declared["run_seconds"]
    assert {m["name"] for m in METRICS} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_identical_runs_pass():
    runs = [result(wall_s=2.0), result(wall_s=2.1), result(wall_s=1.9)]
    verdict = pairs.judge(runs, list(runs), METRICS)
    assert verdict["verdict"] == "pass"
    assert verdict["failures"] == []
    assert {m["verdict"] for m in verdict["metrics"].values()} == {"ok"}
    assert verdict["metrics"]["wall_s"]["change"] == 0.0


@pytest.mark.parametrize("failed, correct", [(1, False), (0, False),
                                             (1, True)])
def test_a_failed_operation_fails_the_workload(failed, correct):
    base = [result(), result(), result()]
    head = [result(), result(failed=failed, correct=correct), result()]
    verdict = pairs.judge(base, head, METRICS)
    assert verdict["verdict"] == "fail"
    assert verdict["failures"] == [
        f"head run 2: correct={correct}, failed {failed} of 5 operations"]
    # the timings themselves are fine
    assert {m["verdict"] for m in verdict["metrics"].values()} == {"ok"}


def test_a_run_without_a_result_fails_the_workload():
    verdict = pairs.judge([None, result()], [result(), result()], METRICS)
    assert verdict["verdict"] == "fail"
    assert verdict["failures"] == ["base run 1: printed no result"]


def test_a_separated_regression_beyond_the_bound_fails():
    base = [result(wall_s=2.0), result(wall_s=2.1), result(wall_s=1.9)]
    head = [result(wall_s=2.8), result(wall_s=2.9), result(wall_s=2.7)]
    verdict = pairs.judge(base, head, METRICS)
    assert verdict["verdict"] == "fail"
    assert verdict["failures"] == []
    assert verdict["metrics"]["wall_s"]["verdict"] == "regressed"
    assert verdict["metrics"]["wall_s"]["change"] == pytest.approx(0.4)


def test_an_overlapping_regression_is_unresolved_not_failed():
    base = [result(wall_s=2.0), result(wall_s=3.0), result(wall_s=1.9)]
    head = [result(wall_s=2.8), result(wall_s=2.9), result(wall_s=2.7)]
    verdict = pairs.judge(base, head, METRICS)
    assert verdict["verdict"] == "pass"
    assert verdict["metrics"]["wall_s"]["verdict"] == "unresolved"


def test_a_worse_median_within_the_bound_is_ok():
    base = [result(peak_rss_mb=100.0)] * 3
    head = [result(peak_rss_mb=104.0)] * 3
    verdict = pairs.judge(base, head, METRICS)
    assert verdict["verdict"] == "pass"
    assert verdict["metrics"]["peak_rss_mb"]["verdict"] == "ok"
    head = [result(peak_rss_mb=106.0)] * 3
    assert pairs.judge(base, head, METRICS)["metrics"]["peak_rss_mb"][
        "verdict"] == "regressed"


def test_a_faster_change_is_ok():
    base = [result(wall_s=2.0)] * 3
    head = [result(wall_s=1.0)] * 3
    verdict = pairs.judge(base, head, METRICS)
    assert verdict["verdict"] == "pass"
    assert verdict["metrics"]["wall_s"]["verdict"] == "ok"
