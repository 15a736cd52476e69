"""CLI tests: argument parsing units and list/run/sweep/figure smoke runs."""

import json

import pytest

from repro.cli import (
    main,
    parse_assignments,
    parse_grid,
    parse_seeds,
    parse_value,
)
from repro.metrics.collector import (
    COUNTER_METERS,
    TELEMETRY_METERS,
    WALL_CLOCK_METERS,
)
from repro.metrics.reports import SimulationReport


# ------------------------------------------------------------------- parsing
def test_parse_seeds_forms():
    assert parse_seeds("7") == [7]
    assert parse_seeds("1-4") == [1, 2, 3, 4]
    assert parse_seeds("1,3,9") == [1, 3, 9]
    with pytest.raises(ValueError):
        parse_seeds("a-b")
    with pytest.raises(ValueError):
        parse_seeds("4-1")


def test_parse_value_types():
    assert parse_value("3") == 3
    assert parse_value("0.5") == 0.5
    assert parse_value("true") is True
    assert parse_value("eer") == "eer"
    assert parse_value("[20, 30]") == (20, 30)
    assert parse_value('"quoted"') == "quoted"


def test_parse_assignments_and_grid():
    overrides = parse_assignments(["sim_time=500", "router.alpha=0.3"])
    assert overrides == {"sim_time": 500, "router.alpha": 0.3}
    with pytest.raises(ValueError):
        parse_assignments(["no-equals"])
    grid = parse_grid(["message_copies=4,8", "router.alpha=0.1,0.2"])
    assert grid == {"message_copies": [4, 8], "router.alpha": [0.1, 0.2]}
    with pytest.raises(ValueError):
        parse_grid(["key="])


# --------------------------------------------------------------------- list
def test_list_human(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "bench" in out and "trace-csv" in out
    assert "epidemic" in out and "eer" in out


def test_list_json(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = [entry["name"] for entry in payload["scenarios"]]
    assert len(names) >= 6
    assert "bench" in names
    protocols = [entry["name"] for entry in payload["protocols"]]
    assert "epidemic" in protocols and "eer" in protocols


# ---------------------------------------------------------------------- run
def test_run_json_smoke(capsys):
    code = main(["run", "trace-csv", "--protocol", "epidemic",
                 "--seeds", "1", "--set", "sim_time=600", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "trace-csv"
    assert payload["protocol"] == "epidemic"
    assert len(payload["reports"]) == 1
    assert 0.0 <= payload["summary"]["delivery_ratio"] <= 1.0


def test_run_json_report_rebuilds_to_the_same_canonical_bytes(capsys):
    """Each ``--json`` report is its outcome plus a ``telemetry`` key;
    ``from_dict`` takes that form back to the run's canonical bytes."""
    from repro.experiments.catalog import make_scenario
    from repro.testing import canonical_report_bytes, run_report

    assert main(["run", "trace-csv", "--protocol", "epidemic", "--seeds", "2",
                 "--set", "sim_time=400", "--json"]) == 0
    (emitted,) = json.loads(capsys.readouterr().out)["reports"]
    assert set(emitted["telemetry"]) == set(TELEMETRY_METERS)
    assert emitted["telemetry"]["routers_ticked"] \
        + emitted["telemetry"]["routers_skipped"] > 0
    rebuilt = SimulationReport.from_dict(emitted)
    assert rebuilt.telemetry == emitted["telemetry"]
    direct = run_report(make_scenario(
        "trace-csv", {"protocol": "epidemic", "sim_time": 400, "seed": 2}))
    assert canonical_report_bytes(rebuilt) == canonical_report_bytes(direct)


def test_run_human_smoke(capsys):
    code = main(["run", "trace-csv", "--seeds", "1",
                 "--set", "sim_time=600"])
    assert code == 0
    out = capsys.readouterr().out
    assert "delivery_ratio" in out
    assert "trace-csv" in out
    # per-phase wall time and the per-phase throughput line
    assert "tick phases (mean wall time per run):" in out
    assert "tick phase throughput (ticks/s):" in out
    assert "router sweep (mean per run): ticked " in out


def test_run_unknown_scenario_fails_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "does-not-exist"])
    assert exc_info.value.code == 2


def test_run_unknown_protocol_is_reported(capsys):
    code = main(["run", "trace-csv", "--protocol", "warp-drive"])
    assert code == 2
    assert "unknown protocol" in capsys.readouterr().err


def test_run_bad_seed_spec_is_reported(capsys):
    code = main(["run", "trace-csv", "--seeds", "x"])
    assert code == 2
    assert "seed spec" in capsys.readouterr().err


def test_run_type_invalid_set_value_is_reported(capsys):
    # '01' is invalid JSON so it falls back to a string; the resulting
    # TypeError must surface as a friendly error, not a traceback
    code = main(["run", "trace-csv", "--set", "num_nodes=01"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


# -------------------------------------------------------------------- sweep
def test_sweep_json_smoke(capsys):
    code = main(["sweep", "trace-csv", "--protocol", "epidemic",
                 "--seeds", "1", "--set", "sim_time=400",
                 "--grid", "message_copies=2,6", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 2
    assert payload["points"][0]["overrides"] == {"message_copies": 2}


# ------------------------------------------------------- checkpoint / resume
def strip_timings(payload):
    """Drop the wall-clock meters from a run's JSON payload in place.

    The counter telemetry stays: a resumed run must count its routers
    sweep, moves and knowledge-layer work exactly as the straight run.
    """
    for report in payload["reports"]:
        for name in WALL_CLOCK_METERS:
            del report["telemetry"][name]
        assert set(report["telemetry"]) == set(COUNTER_METERS)
    return payload


def test_run_checkpointed_and_resumed_match_the_straight_run(capsys, tmp_path):
    base_args = ["run", "trace-csv", "--seeds", "2",
                 "--set", "sim_time=400", "--json"]
    assert main(base_args) == 0
    straight = strip_timings(json.loads(capsys.readouterr().out))

    assert main(base_args + ["--checkpoint-every", "150",
                             "--checkpoint-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    checkpointed = json.loads(captured.out)
    # snapshots at t=150, t=300 and the t=400 horizon, announced on stderr
    assert len(checkpointed["checkpoints"]) == 3
    assert all(path.startswith(str(tmp_path))
               for path in checkpointed["checkpoints"])
    assert captured.err.count("wrote checkpoint") == 3
    # snapshotting is invisible in the report
    assert strip_timings(checkpointed)["reports"] == straight["reports"]

    # resuming the mid-run snapshot reproduces the rest of the run exactly
    snapshot = checkpointed["checkpoints"][0]
    assert main(["run", "trace-csv", "--resume", snapshot, "--json"]) == 0
    resumed = strip_timings(json.loads(capsys.readouterr().out))
    assert resumed["resumed_from"] == snapshot
    assert resumed["reports"] == straight["reports"]
    assert resumed["summary"] == straight["summary"]


def test_run_checkpoint_flag_validation(capsys, tmp_path):
    # snapshots pin one seed: multi-seed specs are rejected up front
    code = main(["run", "trace-csv", "--checkpoint-every", "100",
                 "--seeds", "1-3"])
    assert code == 2
    assert "one seed" in capsys.readouterr().err
    # as is the process backend
    code = main(["run", "trace-csv", "--checkpoint-every", "100",
                 "--backend", "process"])
    assert code == 2
    assert "serial backend" in capsys.readouterr().err
    # --resume accepts no overrides beyond sim_time (checked before loading)
    code = main(["run", "trace-csv", "--resume", "whatever.ckpt",
                 "--set", "num_nodes=5"])
    assert code == 2
    assert "sim_time" in capsys.readouterr().err
    # a missing snapshot is a clean typed error, not a traceback
    code = main(["run", "trace-csv",
                 "--resume", str(tmp_path / "absent.ckpt")])
    assert code == 2
    assert "no snapshot" in capsys.readouterr().err


def test_sweep_resume_forks_horizon_cells_from_one_snapshot(capsys, tmp_path):
    assert main(["run", "trace-csv", "--seeds", "2", "--set", "sim_time=200",
                 "--checkpoint-every", "200",
                 "--checkpoint-dir", str(tmp_path), "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)["checkpoints"][0]

    code = main(["sweep", "trace-csv", "--resume", snapshot,
                 "--grid", "sim_time=300,400", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["overrides"] for p in payload["points"]] \
        == [{"sim_time": 300}, {"sim_time": 400}]
    for point in payload["points"]:
        assert 0.0 <= point["delivery_ratio"] <= 1.0

    # only the horizon axis can fork from a snapshot
    code = main(["sweep", "trace-csv", "--resume", snapshot,
                 "--grid", "message_copies=2,6"])
    assert code == 2
    assert "sim_time" in capsys.readouterr().err


# ------------------------------------------------------------------- figure
def test_figure_json_smoke(capsys, tmp_path):
    output = tmp_path / "fig3.json"
    code = main(["figure", "fig3", "--nodes", "8", "--lambdas", "2",
                 "--seeds", "1", "--set", "sim_time=200", "--json",
                 "--output", str(output)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["figure_id"] == "fig3"
    assert "delivery_ratio" in payload["metrics"]
    assert json.loads(output.read_text()) == payload


# ------------------------------------------------------------ uniform output
def test_every_subcommand_has_uniform_output_flags():
    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, __import__("argparse")
                                    ._SubParsersAction))
    for name, sub in subparsers.choices.items():
        flags = {option for action in sub._actions
                 for option in action.option_strings}
        assert "--json" in flags, name
        assert "--output" in flags, name


def test_bench_is_not_a_subcommand(capsys):
    """Performance is measured by the repository benchmark (perfbench/),
    not by a CLI harness: ``bench`` is an unknown choice."""
    with pytest.raises(SystemExit) as exit_info:
        main(["bench"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_list_and_run_write_output_files(capsys, tmp_path):
    listed = tmp_path / "list.json"
    assert main(["list", "--output", str(listed)]) == 0
    captured = capsys.readouterr()
    assert f"wrote {listed}" in captured.err
    assert "Scenarios" in captured.out  # human text still renders
    assert "bench" in [s["name"] for s in
                       json.loads(listed.read_text())["scenarios"]]

    ran = tmp_path / "run.json"
    assert main(["run", "trace-csv", "--seeds", "1", "--set", "sim_time=400",
                 "--json", "--output", str(ran)]) == 0
    captured = capsys.readouterr()
    assert json.loads(ran.read_text()) == json.loads(captured.out)


# ------------------------------------------------------------- results store
def test_sweep_store_dedupes_and_merges_byte_identically(capsys, tmp_path):
    store = tmp_path / "results.sqlite"
    first_out = tmp_path / "first.json"
    second_out = tmp_path / "second.json"
    args = ["sweep", "trace-csv", "--seeds", "1,2", "--set", "sim_time=400",
            "--grid", "message_copies=2,6", "--store", str(store)]

    assert main(args + ["--output", str(first_out)]) == 0
    err = capsys.readouterr().err
    assert "store: reused 0 cells, computed 4" in err
    assert err.count("cell ") == 4

    assert main(args + ["--output", str(second_out)]) == 0
    err = capsys.readouterr().err
    assert "store: reused 4 cells, computed 0" in err
    # the merged grid is byte-identical to the freshly computed one
    assert first_out.read_bytes() == second_out.read_bytes()


def test_run_store_serves_recorded_seeds(capsys, tmp_path):
    store = tmp_path / "results.sqlite"
    args = ["run", "trace-csv", "--seeds", "1", "--set", "sim_time=400",
            "--store", str(store), "--json"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "reused 1 cells, computed 0" in captured.err
    assert json.loads(captured.out)["summary"] == first["summary"]


def test_store_does_not_combine_with_checkpoints(capsys, tmp_path):
    store = str(tmp_path / "r.sqlite")
    code = main(["run", "trace-csv", "--store", store,
                 "--checkpoint-every", "100"])
    assert code == 2
    assert "--store" in capsys.readouterr().err
    code = main(["sweep", "trace-csv", "--store", store,
                 "--resume", "x.ckpt", "--grid", "sim_time=100,200"])
    assert code == 2
    assert "--store" in capsys.readouterr().err


def test_figure_from_store_does_not_simulate(capsys, tmp_path, monkeypatch):
    store = tmp_path / "results.sqlite"
    args = ["figure", "fig3", "--nodes", "8", "--lambdas", "2",
            "--seeds", "1", "--set", "sim_time=200", "--json"]
    assert main(args + ["--store", str(store)]) == 0
    first = json.loads(capsys.readouterr().out)

    # with every cell stored, rendering must not touch the simulator
    def boom(config):
        raise AssertionError("simulated a stored cell")

    monkeypatch.setattr("repro.experiments.runner.run_scenario", boom)
    assert main(args + ["--from-store", str(store)]) == 0
    captured = capsys.readouterr()
    assert "reused 1 cells, computed 0" in captured.err
    assert json.loads(captured.out) == first


def test_figure_all_renders_every_figure(capsys, tmp_path):
    from repro.experiments.figures import FIGURE_NAMES

    store = tmp_path / "results.sqlite"
    code = main(["figure", "all", "--nodes", "8", "--lambdas", "2",
                 "--protocols", "epidemic,direct", "--seeds", "1",
                 "--set", "sim_time=100", "--store", str(store), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["figures"]) == set(FIGURE_NAMES)
    for name, figure in payload["figures"].items():
        assert figure["figure_id"] == name


# -------------------------------------------------------------------- serve
def test_serve_once_cli(capsys, tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "req.json").write_text(json.dumps(
        {"scenario": "trace-csv", "overrides": {"sim_time": 400},
         "seeds": [1]}))
    store = tmp_path / "results.sqlite"
    summary_file = tmp_path / "summary.json"
    code = main(["serve", str(spool), "--store", str(store), "--once",
                 "--output", str(summary_file)])
    assert code == 0
    captured = capsys.readouterr()
    assert "cell 1/1 computed" in captured.out
    assert "serve: 1 done, 0 failed" in captured.out
    summary = json.loads(summary_file.read_text())
    assert summary["requests_done"] == 1
    assert summary["cells_computed"] == 1
    assert (spool / "done" / "req.result.json").exists()

    # re-queueing the finished request costs nothing: served from the store
    (spool / "req2.json").write_text(json.dumps(
        {"scenario": "trace-csv", "overrides": {"sim_time": 400},
         "seeds": [1]}))
    code = main(["serve", str(spool), "--store", str(store), "--once",
                 "--json"])
    assert code == 0
    events = [json.loads(line)
              for line in capsys.readouterr().out.splitlines()]
    assert events[0]["status"] == "cached"
    assert events[-1]["event"] == "summary"
    assert events[-1]["cells_computed"] == 0


def test_serve_missing_spool_is_reported(capsys, tmp_path):
    code = main(["serve", str(tmp_path / "nope"),
                 "--store", str(tmp_path / "r.sqlite"), "--once"])
    assert code == 2
    assert "spool" in capsys.readouterr().err


def test_run_human_output_includes_transfers_line(capsys):
    code = main(["run", "trace-csv", "--protocol", "epidemic", "--seeds", "1",
                 "--set", "sim_time=600"])
    assert code == 0
    out = capsys.readouterr().out
    # any relayed message is a completed transfer, so the summary line shows
    assert "transfers (mean per run):" in out
    assert "completed" in out and "aborted" in out and "delivered" in out


def test_run_human_output_includes_movement_line(capsys):
    code = main(["run", "bench", "--seeds", "1", "--set", "num_nodes=8",
                 "--set", "sim_time=200"])
    assert code == 0
    out = capsys.readouterr().out
    line = next(row for row in out.splitlines()
                if row.startswith("movement (mean per run):"))
    assert "batched" in line and "loop" in line


def test_run_human_output_includes_knowledge_layer_line(capsys):
    code = main(["run", "bench", "--protocol", "maxprop", "--seeds", "1",
                 "--set", "num_nodes=16", "--set", "sim_time=400"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    movement = next(index for index, row in enumerate(lines)
                    if row.startswith("movement (mean per run):"))
    line = lines[movement + 1]
    assert line.startswith("knowledge layer (mean per run):")
    assert "kernel runs" in line and "memd hits" in line
