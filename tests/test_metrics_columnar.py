"""Collector record keeping: the columnar store against records off.

Keeping records must be observationally invisible everywhere except
storage: the same aggregates and derived metrics with records on and off —
across both direct event feeds and a full catalog scenario run — and the
column store must materialize exactly the records that were fed.
"""

import random

import pytest

from repro.experiments.builder import build_scenario
from repro.experiments.catalog import make_scenario
from repro.metrics.collector import StatsCollector
from repro.metrics.events import (
    ContactRecord,
    MessageCreated,
    MessageDelivered,
    MessageDropped,
    MessageRelayed,
    TransferAborted,
)
from repro.metrics.reports import build_report
from repro.mobility.stationary import StationaryMovement
from repro.net.connection import Connection
from repro.net.message import Message
from repro.world.node import DTNNode

METRICS = ("delivery_ratio", "average_latency", "goodput", "overhead_ratio",
           "average_hop_count")


def feed(collector: StatsCollector) -> None:
    a = Message("A", 0, 1, 100, 0.0, ttl=500.0, copies=4)
    b = Message("B", 2, 3, 100, 10.0, ttl=500.0, copies=4)
    collector.message_created(a)
    collector.message_created(b)
    link = Connection(*(DTNNode(i, StationaryMovement((0.0, 0.0)),
                                random.Random(i)) for i in (0, 2)), 1.0, 1.0)
    collector.contacts_opened([link])
    collector.message_relayed(a, 0, 2, 5.0, 2, False)
    collector.contacts_closed([link], 9.0)
    delivered = a.replicate(1, receiver=1, now=42.0)
    collector.message_relayed(delivered, 2, 1, 42.0, 1, True)
    collector.message_delivered(delivered, 42.0)
    collector.message_delivered(delivered, 50.0)  # duplicate
    collector.message_dropped(b, 2, 60.0, "buffer")
    collector.message_dropped(b, 3, 70.0, "expired")
    collector.transfer_aborted(b, 2, 3, 80.0, 55.0)


def test_mode_resolution():
    assert StatsCollector().keep_records is True
    assert StatsCollector(keep_records=False).keep_records is False
    # one record store: the retired lists/columnar switches are gone
    for keyword in ("columnar", "mode"):
        with pytest.raises(TypeError):
            StatsCollector(**{keyword: "columnar"})


def test_event_feed_parity_across_modes():
    collectors = {mode: StatsCollector(keep_records=mode != "off")
                  for mode in ("off", "columnar")}
    for collector in collectors.values():
        feed(collector)
    columnar = collectors["columnar"]
    for name, collector in collectors.items():
        assert collector.created == 2
        assert collector.delivered == 1
        assert collector.duplicate_deliveries == 1
        assert collector.relayed == 2
        assert collector.dropped == 2 and collector.expired == 1
        assert collector.aborted == 1
        assert collector.contacts == 1
        for metric in METRICS:
            assert getattr(collector, metric) == getattr(columnar, metric), \
                (name, metric)
    # the column store materializes exactly the fed records
    assert columnar.created_records == [
        MessageCreated("A", 0, 1, 100, 0.0, 4),
        MessageCreated("B", 2, 3, 100, 10.0, 4)]
    assert columnar.relayed_records == [
        MessageRelayed("A", 0, 2, 5.0, 2, False),
        MessageRelayed("A", 2, 1, 42.0, 1, True)]
    assert columnar.delivered_records == [
        MessageDelivered("A", 0, 1, 0.0, 42.0, 1)]
    assert columnar.dropped_records == [
        MessageDropped("B", 2, 60.0, "buffer"),
        MessageDropped("B", 3, 70.0, "expired")]
    assert columnar.aborted_records == [TransferAborted("B", 2, 3, 80.0, 55.0)]
    assert columnar.contact_records == [ContactRecord(0, 2, 1.0, 9.0)]
    # off keeps no records but all aggregates
    off = collectors["off"]
    assert off.created_records == [] and off.delivered_records == []
    assert columnar.delivered_latencies().tolist() == [42.0]
    assert off.delivered_latencies().size == 0


def test_record_columns_access():
    collector = StatsCollector()
    feed(collector)
    columns = collector.record_columns("delivered")
    assert columns["delivered_at"].tolist() == [42.0]
    assert columns["hop_count"].tolist() == [1]
    with pytest.raises(RuntimeError):
        StatsCollector(keep_records=False).record_columns("delivered")


def test_record_storage_reporting():
    columnar = StatsCollector()
    off = StatsCollector(keep_records=False)
    for collector in (columnar, off):
        feed(collector)
    assert columnar.record_storage_bytes() > 0
    assert off.record_storage_bytes() == 0


@pytest.mark.parametrize("scenario", ["bench"])
def test_scenario_metrics_identical_across_record_modes(scenario):
    """Delivery ratio / latency / overhead / hops identical with records
    kept and off across a catalog scenario run."""
    reports = {}
    for mode in ("off", "columnar"):
        config = make_scenario(scenario, {"sim_time": 400.0, "seed": 3,
                                          "protocol": "epidemic",
                                          "keep_records": mode != "off"})
        built = build_scenario(config)
        built.run()
        reports[mode] = build_report(
            built.stats, protocol=config.protocol, num_nodes=config.num_nodes,
            sim_time=config.sim_time, seed=config.seed)
        assert built.stats.keep_records is (mode != "off")
    base = reports["columnar"]
    assert base.delivered > 0  # the run must actually exercise the collector
    report = reports["off"]
    for metric in METRICS + ("created", "delivered", "relayed", "dropped",
                             "contacts", "control_rows_exchanged"):
        assert report.metric(metric) == base.metric(metric), metric
    # percentiles come from records: absent (empty) when records are off
    assert base.latency_percentiles
    assert report.latency_percentiles == {}
