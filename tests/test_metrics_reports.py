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


def test_transfer_counters_are_canonical():
    """The transfer counters ride the canonical report: present in the
    outcome payload (the resume-equality surface) and wired from the
    collector aggregates."""
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
    data = report.as_dict()
    assert data["transfers_completed"] == 2
    assert data["transfers_aborted"] == 1
    assert data["bytes_delivered"] == 2 * 4096


def test_movement_split_is_telemetry_not_outcome():
    """The move-phase split is telemetry only: a report whose
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
    telemetry = reports[0].telemetry
    assert (telemetry["moves_batched"], telemetry["moves_loop"]) == (114, 6)


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
    """Kernel runs and MEMD cache hits are telemetry only: how often a
    cache was hit is not an outcome."""
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
    telemetry = reports[0].telemetry
    assert (telemetry["kernel_runs"], telemetry["memd_hits"]) == (1, 3)


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


#: the canonical outcome: every field of the canonical payload, and the
#: only fields of the report besides its telemetry
OUTCOME_FIELDS = {
    "protocol", "num_nodes", "sim_time", "seed",
    "created", "delivered", "relayed", "dropped", "expired", "aborted",
    "contacts", "delivery_ratio", "average_latency", "goodput",
    "overhead_ratio", "average_hop_count", "control_rows_exchanged",
    "control_bytes_exchanged", "transfers_completed", "transfers_aborted",
    "bytes_delivered", "community_detections", "community_reassignments",
    "latency_percentiles", "extra",
}


def test_canonical_payload_is_exactly_the_outcome_fields():
    import dataclasses
    import json

    from repro.metrics.reports import SimulationReport
    from repro.testing import canonical_report_bytes

    report = build_report(populated_collector(), protocol="eer", num_nodes=10,
                          sim_time=1000.0, seed=3)
    fields = {f.name for f in dataclasses.fields(SimulationReport)}
    assert fields - {"telemetry"} == OUTCOME_FIELDS
    assert set(report.as_dict()) == OUTCOME_FIELDS
    assert set(json.loads(canonical_report_bytes(report))) == OUTCOME_FIELDS


def test_telemetry_is_every_meter_and_never_canonical():
    """The report copies the collector's one telemetry mapping; adding or
    changing any key of it leaves the canonical bytes unchanged."""
    from repro.metrics.collector import TELEMETRY_METERS
    from repro.testing import canonical_report_bytes

    stats = populated_collector()
    stats.tick_phase("move", 0.25)
    stats.router_sweep(2, 5, 3)
    stats.community_detection(0.5)
    report = build_report(stats, protocol="eer", num_nodes=10,
                          sim_time=1000.0, seed=3)
    assert tuple(report.telemetry) == TELEMETRY_METERS
    assert report.telemetry == stats.telemetry()
    # a copy: later meter updates do not leak into a finished report
    stats.tick_phase("move", 1.0)
    assert report.telemetry["tick_phase_samples"] == {"move": 1}

    before = canonical_report_bytes(report)
    for name in TELEMETRY_METERS:
        report.telemetry[name] = 12345
    report.telemetry["a_meter_added_later"] = 7
    assert canonical_report_bytes(report) == before
    report.telemetry.clear()
    assert canonical_report_bytes(report) == before


def test_telemetry_meters_read_as_attributes():
    import copy
    import json
    import pickle

    from repro.metrics.reports import SimulationReport

    stats = populated_collector()
    stats.router_sweep(2, 5, 3)
    stats.community_detection(0.5)
    report = build_report(stats, protocol="eer", num_nodes=10,
                          sim_time=1000.0, seed=3)
    assert (report.routers_ticked, report.routers_skipped,
            report.routers_batched) == (2, 5, 3)
    assert report.metric("community_detection_seconds") == 0.5
    with pytest.raises(AttributeError):
        report.no_such_meter
    for clone in (copy.copy(report), copy.deepcopy(report),
                  pickle.loads(pickle.dumps(report))):
        assert clone == report
        assert clone.routers_batched == 3
    # a report rebuilt from its canonical payload carries no telemetry:
    # the attribute is absent, and the metric reads the meter as 0
    served = SimulationReport.from_dict(json.loads(json.dumps(
        report.as_dict())))
    assert served == report and served.telemetry == {}
    with pytest.raises(AttributeError):
        served.routers_batched
    assert served.metric("community_detection_seconds") == 0.0
