"""Unit tests for report building."""

import pytest

from repro.metrics.collector import StatsCollector
from repro.metrics.reports import build_report
from repro.net.message import Message


def populated_collector():
    stats = StatsCollector()
    for i in range(5):
        message = Message(f"M{i}", 0, 1, 100, float(i), 500.0)
        stats.message_created(message)
    for i in range(3):
        message = Message(f"M{i}", 0, 1, 100, float(i), 500.0)
        replica = message.replicate(1, receiver=1, now=100.0 + i)
        stats.message_relayed(replica, 0, 1, 100.0 + i, 1, True)
        stats.message_delivered(replica, 100.0 + i)
    return stats


def test_build_report_headline_metrics():
    report = build_report(populated_collector(), protocol="eer", num_nodes=10,
                          sim_time=1000.0, seed=3)
    assert report.protocol == "eer"
    assert report.created == 5
    assert report.delivered == 3
    assert report.relayed == 3
    assert report.delivery_ratio == pytest.approx(0.6)
    assert report.goodput == pytest.approx(1.0)
    assert report.average_latency == pytest.approx((100.0 + 100.0 + 100.0) / 3, rel=0.1)
    assert report.latency_percentiles["p50"] > 0


def test_metric_lookup_and_aliases():
    report = build_report(populated_collector(), protocol="eer", num_nodes=10,
                          sim_time=1000.0, seed=3, extra={"custom": 1.5})
    assert report.metric("delivery_ratio") == report.delivery_ratio
    assert report.metric("latency") == report.average_latency
    assert report.metric("overhead") == report.overhead_ratio
    assert report.metric("custom") == 1.5
    with pytest.raises(KeyError):
        report.metric("nonexistent")


def test_as_dict_round_trip():
    report = build_report(populated_collector(), protocol="cr", num_nodes=4,
                          sim_time=100.0, seed=1)
    data = report.as_dict()
    assert data["protocol"] == "cr"
    assert data["num_nodes"] == 4
    assert data["delivered"] == 3
    assert isinstance(data["latency_percentiles"], dict)


def test_empty_collector_produces_zero_report():
    report = build_report(StatsCollector(), protocol="direct", num_nodes=2,
                          sim_time=10.0, seed=0)
    assert report.delivery_ratio == 0.0
    assert report.latency_percentiles == {}


def test_phase_ticks_per_second():
    stats = populated_collector()
    for _ in range(4):
        stats.tick_phase("move", 0.5)
    stats.tick_phase("routers", 0.0)  # timed below clock resolution
    report = build_report(stats, protocol="eer", num_nodes=10,
                          sim_time=1000.0, seed=3)
    assert report.tick_phase_samples == {"move": 4, "routers": 1}
    rates = report.phase_ticks_per_second()
    assert rates["move"] == pytest.approx(4 / 2.0)
    # zero-second phases can't produce a finite rate and are omitted
    assert "routers" not in rates
    # both timing breakdowns are observability, stripped from the
    # deterministic payload together
    data = report.as_dict(include_timings=True)
    assert data["tick_phase_samples"] == {"move": 4, "routers": 1}
    stripped = report.as_dict()
    assert "tick_phase_samples" not in stripped
    assert "tick_phase_seconds" not in stripped


def test_transfer_counters_are_canonical():
    """The transfer counters ride the canonical report: present with
    ``include_timings=False`` (the resume-equality surface) and wired from
    the collector aggregates."""
    stats = populated_collector()
    for i in range(2):
        message = Message(f"M{i}", 0, 1, 4096, float(i), 500.0)
        stats.transfer_completed(message.replicate(1, receiver=1, now=50.0))
    stats.transfer_aborted(Message("M9", 0, 1, 4096, 0.0, 500.0),
                           0, 1, 60.0, 123.0)
    report = build_report(stats, protocol="epidemic", num_nodes=10,
                          sim_time=1000.0, seed=3)
    assert report.transfers_completed == 2
    assert report.transfers_aborted == 1
    assert report.bytes_delivered == 2 * 4096
    data = report.as_dict(include_timings=False)
    assert data["transfers_completed"] == 2
    assert data["transfers_aborted"] == 1
    assert data["bytes_delivered"] == 2 * 4096


def test_movement_split_is_telemetry_not_outcome():
    """The move-phase split rides the timed payload only: a report whose
    nodes moved on the batch kernel and one whose nodes moved through the
    loop serialise to the same canonical bytes."""
    from repro.testing import canonical_report_bytes

    batched, looped = populated_collector(), populated_collector()
    for _ in range(3):
        batched.movement_split(38, 2)
        looped.movement_split(0, 40)
    reports = [build_report(stats, protocol="eer", num_nodes=40,
                            sim_time=1000.0, seed=3)
               for stats in (batched, looped)]
    assert (reports[0].moves_batched, reports[0].moves_loop) == (114, 6)
    assert (reports[1].moves_batched, reports[1].moves_loop) == (0, 120)
    assert canonical_report_bytes(reports[0]) \
        == canonical_report_bytes(reports[1])
    for report in reports:
        assert "moves_batched" not in report.as_dict()
        assert "moves_loop" not in report.as_dict()
    timed = reports[0].as_dict(include_timings=True)
    assert (timed["moves_batched"], timed["moves_loop"]) == (114, 6)


def test_bus_run_reports_its_movement_split():
    from repro.experiments.catalog import make_scenario
    from repro.testing import canonical_report_bytes, run_report

    config = make_scenario("bench", {"num_nodes": 10, "sim_time": 300.0})
    production = run_report(config)
    reference = run_report(config, reference=True)
    ticks = production.tick_phase_samples["move"]
    assert production.moves_batched + production.moves_loop == 10 * ticks
    assert production.moves_batched > production.moves_loop
    assert (reference.moves_batched, reference.moves_loop) == (0, 10 * ticks)
    assert canonical_report_bytes(production) \
        == canonical_report_bytes(reference)


def test_knowledge_split_is_telemetry_not_outcome():
    """Kernel runs and MEMD cache hits ride the timed payload only: how
    often a cache was hit is not an outcome."""
    from repro.testing import canonical_report_bytes

    cached, uncached = populated_collector(), populated_collector()
    for _ in range(3):
        cached.memd_lookup(recomputed=False)
        uncached.memd_lookup(recomputed=True)
    cached.knowledge_kernel_run()
    reports = [build_report(stats, protocol="eer", num_nodes=40,
                            sim_time=1000.0, seed=3)
               for stats in (cached, uncached)]
    assert (reports[0].kernel_runs, reports[0].memd_hits) == (1, 3)
    assert (reports[1].kernel_runs, reports[1].memd_hits) == (3, 0)
    assert canonical_report_bytes(reports[0]) \
        == canonical_report_bytes(reports[1])
    for report in reports:
        assert "kernel_runs" not in report.as_dict()
        assert "memd_hits" not in report.as_dict()
    timed = reports[0].as_dict(include_timings=True)
    assert (timed["kernel_runs"], timed["memd_hits"]) == (1, 3)


@pytest.mark.parametrize("protocol", ["eer", "cr", "maxprop", "epidemic"])
def test_runs_report_their_knowledge_split(protocol):
    from repro.experiments.builder import build_scenario
    from repro.experiments.catalog import make_scenario
    from repro.experiments.runner import finalize_report

    config = make_scenario("bench", {"num_nodes": 30, "sim_time": 1500.0,
                                     "protocol": protocol})
    built = build_scenario(config)
    try:
        built.run()
    finally:
        built.world.stop()
    report = finalize_report(built.stats, config)
    routers = [node.router for node in built.world.nodes]
    caches = [router._memd for router in routers if hasattr(router, "_memd")]
    recomputes = sum(cache.computes for cache in caches)
    hits = sum(cache.hits for cache in caches)
    if protocol == "maxprop":
        assert report.kernel_runs > 0
        assert report.memd_hits == 0
    elif protocol == "epidemic":
        assert (report.kernel_runs, report.memd_hits) == (0, 0)
    else:
        assert report.kernel_runs == recomputes > 0
        assert report.memd_hits == hits > 0
