"""Smoke tests for ``python -m repro bench`` and the regression gate."""

import json

import pytest

from repro import bench
from repro.cli import main


@pytest.fixture(scope="module")
def smoke_payload():
    """One shared smoke-scale bench run (the expensive part)."""
    return bench.run_benchmarks(scale_name="smoke", seed=1)


def test_payload_shape_and_checksums(smoke_payload):
    payload = smoke_payload
    assert payload["schema"] == 1
    assert payload["scale"] == "smoke"
    names = set(payload["benchmarks"])
    assert names == {"encounter_pipeline", "buffer_churn", "scenario_eer",
                     "community_detection", "world_tick_10k",
                     "world_tick_100k", "transfer_churn"}
    for name, entry in payload["benchmarks"].items():
        assert entry["checksums_match"], (
            f"{name}: vectorized path diverged from the reference")
        key = entry["throughput_key"]
        assert entry["baseline"][key] > 0
        assert entry["current"][key] > 0
        assert entry["speedup"] is not None
    # the paired run proves decision-identity end to end
    scenario = payload["benchmarks"]["scenario_eer"]
    assert scenario["baseline"]["checksums"] == scenario["current"]["checksums"]
    # the community pipeline's reference/vectorized aggregation parity,
    # including the bit-exact mean-interval sum and the assignment CRC
    detection = payload["benchmarks"]["community_detection"]
    assert detection["baseline"]["checksums"] == detection["current"]["checksums"]
    assert detection["current"]["checksums"]["edges"] > 0
    assert detection["current"]["checksums"]["communities"] >= 1
    # the sharded world tick must not change a single simulation outcome —
    # the checksum set includes the summed end-of-run position matrix
    world = payload["benchmarks"]["world_tick_10k"]
    assert world["baseline"]["checksums"] == world["current"]["checksums"]
    assert world["current"]["checksums"]["contacts"] > 0
    assert world["current"]["phase_seconds"]["connectivity.detect"] > 0
    # the whole-tick pair (production vs reference world) gates on the same
    # runs, and its scale section must hold a completed run whose checksums
    # match the reference world bit for bit
    flat = payload["benchmarks"]["world_tick_100k"]
    assert flat["throughput_key"] == "ticks_per_s"
    assert flat["baseline"]["checksums"] == flat["current"]["checksums"]
    assert flat["baseline"]["routers_skipped"] == 0
    assert flat["current"]["routers_skipped"] > 0
    scale_100k = flat["scale_100k"]
    assert scale_100k["reference_checksums_match"]
    assert scale_100k["current"]["ticks"] > 0
    # the transfers-phase pair: the columnar engine must reproduce every
    # relayed/delivered/aborted record (chained CRCs) and actually move
    # payload through the engine's rows
    churn = payload["benchmarks"]["transfer_churn"]
    assert churn["throughput_key"] == "transfer_bytes_per_s"
    assert churn["baseline"]["checksums"] == churn["current"]["checksums"]
    assert churn["current"]["checksums"]["bytes_delivered"] > 0
    assert churn["current"]["checksums"]["relayed_crc"] != 0
    assert churn["current"]["engine_rows_completed"] > 0
    assert churn["baseline"]["engine_rows_completed"] is None
    # payload is JSON-serialisable as-is
    json.dumps(payload)


def test_compare_to_baseline_gate(smoke_payload):
    assert bench.compare_to_baseline(smoke_payload, smoke_payload) == []
    # a committed baseline with 10x the speedup must trip the gate
    import copy

    inflated = copy.deepcopy(smoke_payload)
    for entry in inflated["benchmarks"].values():
        entry["speedup"] = entry["speedup"] * 10
    failures = bench.compare_to_baseline(smoke_payload, inflated,
                                         max_regression=0.25)
    assert len(failures) == len(smoke_payload["benchmarks"])
    # scale mismatch is refused outright
    wrong_scale = dict(inflated, scale="full")
    assert bench.compare_to_baseline(smoke_payload, wrong_scale) \
        == ["scale mismatch: current 'smoke' vs baseline 'full'"]


def test_cli_bench_writes_and_compares(tmp_path, smoke_payload, monkeypatch,
                                       capsys):
    # stub the heavy run with the shared payload: the CLI wiring is the
    # subject here, not the benchmarks themselves
    monkeypatch.setattr(bench, "run_benchmarks",
                        lambda scale_name, seed: dict(smoke_payload))
    out = tmp_path / "BENCH_test.json"
    assert main(["bench", "--scale", "smoke", "--output", str(out)]) == 0
    written = json.loads(out.read_text())
    assert written["benchmarks"].keys() == smoke_payload["benchmarks"].keys()
    capsys.readouterr()
    # comparing a payload against itself passes the gate
    assert main(["bench", "--scale", "smoke", "--compare", str(out)]) == 0
    captured = capsys.readouterr()
    assert "no regression" in captured.err


def test_cli_bench_fails_on_regression(tmp_path, smoke_payload, monkeypatch,
                                       capsys):
    import copy

    inflated = copy.deepcopy(smoke_payload)
    for entry in inflated["benchmarks"].values():
        entry["speedup"] = entry["speedup"] * 10
    baseline_file = tmp_path / "BENCH_baseline.json"
    bench.write_payload(inflated, str(baseline_file))
    monkeypatch.setattr(bench, "run_benchmarks",
                        lambda scale_name, seed: dict(smoke_payload))
    assert main(["bench", "--scale", "smoke",
                 "--compare", str(baseline_file)]) == 1
    captured = capsys.readouterr()
    assert "regression" in captured.err


def test_unknown_scale_rejected():
    with pytest.raises(KeyError):
        bench.run_benchmarks(scale_name="galactic")


def test_cli_bench_rejects_the_removed_quick_flag(monkeypatch, capsys):
    """``--quick`` was a spelling of ``--scale quick`` (the default); it is
    gone, and argparse rejects it before any benchmark runs."""
    monkeypatch.setattr(bench, "run_benchmarks", pytest.fail)
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--quick"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --quick" in capsys.readouterr().err
