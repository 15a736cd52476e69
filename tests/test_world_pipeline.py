"""TickPipeline: phase structure, metering, and report plumbing."""

import json

import pytest

from repro.experiments.builder import build_scenario
from repro.experiments.catalog import make_scenario
from repro.experiments.runner import run_scenario
from repro.metrics.collector import StatsCollector
from repro.metrics.reports import build_report
from repro.world.pipeline import TickPhase, TickPipeline


# ------------------------------------------------------------------ structure
def test_phase_validation():
    with pytest.raises(ValueError):
        TickPhase("", lambda now, dt: None)
    with pytest.raises(ValueError):
        TickPhase("move", "not-callable")


def test_pipeline_validation():
    with pytest.raises(ValueError):
        TickPipeline([])
    noop = lambda now, dt: None  # noqa: E731
    with pytest.raises(ValueError):
        TickPipeline([TickPhase("a", noop), TickPhase("a", noop)])


def test_pipeline_runs_phases_in_order_and_meters():
    calls = []
    stats = StatsCollector()
    pipeline = TickPipeline([
        TickPhase("first", lambda now, dt: calls.append(("first", now, dt))),
        TickPhase("second", lambda now, dt: calls.append(("second", now, dt))),
    ], stats=stats)
    pipeline.run(3.0, 1.0)
    pipeline.run(4.0, 1.0)
    assert calls == [("first", 3.0, 1.0), ("second", 3.0, 1.0),
                     ("first", 4.0, 1.0), ("second", 4.0, 1.0)]
    assert pipeline.runs == 2
    assert pipeline.phase_names == ["first", "second"]
    assert stats.tick_phase_samples == {"first": 2, "second": 2}
    assert all(seconds >= 0.0 for seconds in stats.tick_phase_seconds.values())


def test_pipeline_without_stats_runs_unmetered():
    pipeline = TickPipeline([TickPhase("only", lambda now, dt: None)])
    pipeline.run(0.0, 1.0)
    assert pipeline.runs == 1


def test_replace_phase_swaps_in_place():
    seen = []
    pipeline = TickPipeline([
        TickPhase("a", lambda now, dt: seen.append("a")),
        TickPhase("b", lambda now, dt: seen.append("b")),
    ])
    pipeline.replace_phase("a", lambda now, dt: seen.append("A'"))
    pipeline.run(0.0, 1.0)
    assert seen == ["A'", "b"]
    assert pipeline.phase_names == ["a", "b"]
    with pytest.raises(KeyError):
        pipeline.replace_phase("missing", lambda now, dt: None)


# ------------------------------------------------------------------ the world
def test_world_tick_is_the_four_phase_pipeline():
    built = build_scenario(make_scenario("bench", {"sim_time": 50.0}))
    world = built.world
    assert world.pipeline.phase_names == [
        "move", "connectivity", "transfers", "routers"]
    built.run()
    assert world.pipeline.runs == world.updates
    phases = built.stats.tick_phase_seconds
    for name in ("move", "connectivity", "connectivity.detect",
                 "transfers", "routers"):
        assert name in phases, f"phase {name} not metered"
        assert phases[name] >= 0.0
    # the detect sub-meter is a subset of its surrounding phase
    assert phases["connectivity.detect"] <= phases["connectivity"]
    assert built.stats.tick_phase_samples["move"] == world.updates


def test_trace_replay_world_is_metered_too():
    built = build_scenario(make_scenario("trace-periodic",
                                         {"sim_time": 120.0}))
    built.run()
    phases = built.stats.tick_phase_seconds
    assert set(phases) >= {"move", "connectivity", "transfers", "routers"}


# -------------------------------------------------------------------- reports
def test_report_carries_phase_timings_out_of_band():
    report = run_scenario(make_scenario("bench", {"sim_time": 50.0}))
    phases = report.telemetry["tick_phase_seconds"]
    assert set(phases) >= {"move", "connectivity", "transfers", "routers"}
    # wall-clock timings stay out of the canonical serialisation so reports
    # compare byte-for-byte across machines and phase implementations...
    assert "tick_phase_seconds" not in report.as_dict()
    # ...but ride along in the report's telemetry
    assert report.tick_phase_seconds is phases
    json.dumps(report.telemetry)


def test_build_report_snapshots_collector_phases():
    stats = StatsCollector()
    stats.tick_phase("move", 0.5)
    stats.tick_phase("move", 0.25)
    report = build_report(stats, protocol="direct", num_nodes=2,
                          sim_time=10.0, seed=1)
    assert report.tick_phase_seconds == {"move": 0.75}
    assert stats.tick_phase_samples == {"move": 2}
