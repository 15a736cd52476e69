"""Tests for the ``repro.api`` facade, the service layer and the shims.

Covers the PR-9 API contract: the facade exports exactly the blessed
surface, both result types share the ``as_dict()``/``identity_keys()``
convention, the old deep import paths warn-but-work, and the spool-directory
service resolves every cell through the store.
"""

import json
import warnings

import pytest

from repro import api
from repro.store import canonical_report_json
from repro.store.service import RunRequest, process_request, serve


def tiny_config(**overrides):
    base = api.ScenarioConfig.bench_scale(protocol="spray-and-wait",
                                          num_nodes=10, sim_time=250.0)
    return base.with_overrides(**overrides) if overrides else base


# -------------------------------------------------------------------- facade
def test_facade_exports_every_blessed_name():
    for name in api.__all__:
        assert hasattr(api, name), name
    for name in ("run", "run_averaged", "sweep", "figure", "open_store",
                 "serve", "ScenarioConfig", "SimulationReport",
                 "AveragedResult", "SweepPoint"):
        assert name in api.__all__


def test_api_run_uses_store_for_dedupe(tmp_path):
    config = tiny_config()
    with api.open_store(str(tmp_path / "r.sqlite")) as store:
        first = api.run(config, store=store)
        assert len(store) == 1
        again = api.run(config, store=store)  # served, not simulated
        assert len(store) == 1
    # NaN-valued extras defeat dict equality; the canonical JSON is the
    # actual byte-identity contract
    assert canonical_report_json(again) == canonical_report_json(first)


def test_api_run_without_store():
    report = api.run(tiny_config())
    assert isinstance(report, api.SimulationReport)


def test_api_sweep_and_figure_share_store(tmp_path):
    config = tiny_config()
    with api.open_store(str(tmp_path / "r.sqlite")) as store:
        points = api.sweep(config, {"message_copies": [4, 8]}, seeds=[1],
                           store=store)
        assert len(points) == 2
        assert len(store) == 2
        again = api.sweep(config, {"message_copies": [4, 8]}, seeds=[1],
                          store=store)
        assert len(store) == 2
    assert [p.as_dict() for p in again] == [p.as_dict() for p in points]


# ------------------------------------------------------- result-type contract
def test_result_types_share_the_contract():
    config = tiny_config()
    result = api.run_averaged(config, seeds=[1, 2])
    [point] = api.sweep(config, {"message_copies": [4]}, seeds=[1, 2])
    for value in (result, point):
        assert json.loads(json.dumps(value.as_dict())) == value.as_dict()
        keys = value.identity_keys()
        assert len(keys) == 2  # one per seed
        for key in keys:
            scenario, protocol, seed, config_hash = key
            assert isinstance(scenario, str) and isinstance(protocol, str)
            assert isinstance(seed, int)
            assert len(config_hash) == 64
    assert point.as_dict()["summary"]["protocol"] == "spray-and-wait"


def test_identity_keys_empty_without_config():
    result = api.AveragedResult(protocol="eer", num_nodes=4, seeds=[1],
                                reports=[])
    assert result.identity_keys() == []


# ---------------------------------------------------------- import paths
def test_blessed_paths_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.experiments import AveragedResult, SweepPoint  # noqa: F401
        from repro.experiments.results import (  # noqa: F401
            AveragedResult as A2,
            SweepPoint as S2,
        )


# -------------------------------------------------------------------- service
def test_run_request_validation():
    request = RunRequest.from_payload(
        {"scenario": "bench", "seeds": [1, 2],
         "grid": {"message_copies": [4, 8]}}, request_id="r1")
    assert request.request_id == "r1"
    assert len(request.cell_configs()) == 2
    with pytest.raises(ValueError):
        RunRequest.from_payload({"seeds": [1]}, request_id="r2")
    with pytest.raises(ValueError):
        RunRequest.from_payload({"scenario": "bench", "bogus": 1},
                                request_id="r3")
    with pytest.raises(ValueError):
        RunRequest.from_payload({"scenario": "bench", "seeds": "1"},
                                request_id="r4")


def test_process_request_resolves_through_store(tmp_path):
    request = RunRequest.from_payload(
        {"scenario": "bench",
         "overrides": {"num_nodes": 10, "sim_time": 250,
                       "protocol": "spray-and-wait"},
         "seeds": [1, 2]}, request_id="r1")
    events = []
    with api.open_store(str(tmp_path / "r.sqlite")) as store:
        first = process_request(request, store, emit=events.append)
        assert first["cells_computed"] == 2 and first["cells_cached"] == 0
        second = process_request(request, store)
        assert second["cells_computed"] == 0 and second["cells_cached"] == 2
    assert second["points"] == first["points"]
    assert all(event["request"] == "r1" for event in events)


def test_serve_once_drains_spool(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "good.json").write_text(json.dumps(
        {"scenario": "bench",
         "overrides": {"num_nodes": 10, "sim_time": 250,
                       "protocol": "spray-and-wait"},
         "seeds": [1]}))
    (spool / "bad.json").write_text(json.dumps({"no": "scenario"}))
    with api.open_store(str(tmp_path / "r.sqlite")) as store:
        summary = serve(str(spool), store, once=True)
    assert summary == {"requests_done": 1, "requests_failed": 1,
                       "cells_cached": 0, "cells_computed": 1}
    assert (spool / "done" / "good.json").exists()
    result = json.loads((spool / "done" / "good.result.json").read_text())
    assert result["cells_computed"] == 1
    assert (spool / "failed" / "bad.json").exists()
    error = json.loads((spool / "failed" / "bad.error.json").read_text())
    assert "unknown request fields" in error["error"]


def test_serve_requires_existing_spool(tmp_path):
    with api.open_store(str(tmp_path / "r.sqlite")) as store:
        with pytest.raises(ValueError):
            serve(str(tmp_path / "missing"), store, once=True)
        with pytest.raises(ValueError):
            serve(str(tmp_path), store, once=True, poll=0.0)


def test_serve_max_requests_bounds_the_watch_loop(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "req.json").write_text(json.dumps(
        {"scenario": "bench",
         "overrides": {"num_nodes": 10, "sim_time": 250,
                       "protocol": "spray-and-wait"},
         "seeds": [1]}))
    with api.open_store(str(tmp_path / "r.sqlite")) as store:
        # not --once: the watch loop exits via the request bound instead
        summary = serve(str(spool), store, max_requests=1, poll=0.05)
    assert summary["requests_done"] == 1
