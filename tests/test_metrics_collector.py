"""Unit tests for the statistics collector."""

import random

from repro.metrics.collector import StatsCollector
from repro.mobility.stationary import StationaryMovement
from repro.net.connection import Connection
from repro.net.message import Message
from repro.world.node import DTNNode


def msg(mid="M1", src=0, dst=1, created=0.0):
    return Message(mid, src, dst, 100, created, 1000.0, copies=5)


def test_delivery_ratio_counts_unique_deliveries():
    stats = StatsCollector()
    for i in range(4):
        stats.message_created(msg(f"M{i}"))
    delivered = msg("M0")
    assert stats.message_delivered(delivered, time=50.0) is True
    assert stats.message_delivered(delivered, time=60.0) is False  # duplicate
    assert stats.delivered == 1
    assert stats.duplicate_deliveries == 1
    assert stats.delivery_ratio == 0.25


def test_latency_and_hops_average_over_first_deliveries():
    stats = StatsCollector()
    a = msg("A", created=0.0)
    b = msg("B", created=100.0)
    stats.message_created(a)
    stats.message_created(b)
    a_copy = a.replicate(1, receiver=1, now=30.0)
    stats.message_delivered(a_copy, time=30.0)
    b_copy = b.replicate(1, receiver=1, now=170.0)
    b_copy.add_hop(2)
    stats.message_delivered(b_copy, time=170.0)
    assert stats.average_latency == 50.0  # (30 + 70) / 2
    assert stats.average_hop_count == 1.5  # (1 + 2) / 2


def test_goodput_and_overhead():
    stats = StatsCollector()
    stats.message_created(msg("A"))
    for _ in range(4):
        stats.message_relayed(msg("A"), 0, 1, 10.0, copies=1, final_delivery=False)
    stats.message_delivered(msg("A"), time=20.0)
    assert stats.relayed == 4
    assert stats.goodput == 0.25
    assert stats.overhead_ratio == 3.0


def test_zero_denominators():
    stats = StatsCollector()
    assert stats.delivery_ratio == 0.0
    assert stats.average_latency == 0.0
    assert stats.goodput == 0.0
    assert stats.overhead_ratio == 0.0
    stats.message_relayed(msg(), 0, 1, 1.0, 1, False)
    assert stats.overhead_ratio == float("inf")


def test_drop_accounting_by_reason():
    stats = StatsCollector()
    stats.message_dropped(msg("A"), node=3, time=1.0, reason="expired")
    stats.message_dropped(msg("B"), node=3, time=2.0, reason="buffer")
    stats.message_dropped(msg("C"), node=4, time=3.0, reason="buffer")
    assert stats.dropped == 3
    assert stats.expired == 1
    assert stats.per_node_drops() == {3: 2, 4: 1}


def link(a, b, established_at):
    node_a, node_b = (DTNNode(i, StationaryMovement((0.0, 0.0)),
                              random.Random(i)) for i in (a, b))
    return Connection(node_a, node_b, 1.0, established_at)


def test_contact_records_are_closed_on_contact_down():
    stats = StatsCollector()
    connection = link(5, 2, established_at=10.0)
    stats.contacts_opened([connection])
    assert stats.contacts == 1
    assert stats.contact_records == []      # open contacts are not records
    stats.contacts_closed([connection], time=35.0)
    [record] = stats.contact_records
    assert record.node_a == 2 and record.node_b == 5
    assert record.duration == 25.0


def test_control_overhead_accumulates():
    stats = StatsCollector()
    stats.control_exchange(rows=3, size_bytes=120)
    stats.control_exchange(rows=2)
    assert stats.control_exchanges == 2
    assert stats.control_rows_exchanged == 5
    assert stats.control_bytes_exchanged == 120


def test_keep_records_flag_disables_event_lists():
    stats = StatsCollector(keep_records=False)
    stats.message_created(msg("A"))
    stats.message_relayed(msg("A"), 0, 1, 1.0, 1, False)
    stats.message_delivered(msg("A"), 2.0)
    stats.message_dropped(msg("A"), 0, 3.0, "expired")
    assert stats.created == 1 and stats.delivered == 1
    assert stats.created_records == []
    assert stats.relayed_records == []
    assert stats.delivered_records == []
    assert stats.dropped_records == []


def test_delivery_time_lookup():
    stats = StatsCollector()
    stats.message_created(msg("A"))
    assert not stats.is_delivered("A")
    stats.message_delivered(msg("A"), time=42.0)
    assert stats.is_delivered("A")
    assert stats.delivery_time("A") == 42.0
    assert stats.delivery_time("B") is None


def test_community_detection_overhead_accumulates():
    stats = StatsCollector()
    assert stats.community_detections == 0
    assert stats.community_detection_seconds == 0.0
    assert stats.community_reassignments == 0
    stats.community_detection(seconds=0.25, reassigned=4)
    stats.community_detection(seconds=0.5)
    assert stats.community_detections == 2
    assert stats.community_detection_seconds == 0.75
    assert stats.community_reassignments == 4
