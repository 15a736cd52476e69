"""The production world tick against the reference tick.

The production tick skips routers with provably nothing to do (the idle
router contract, DESIGN.md), applies link events in bulk with batched
contact stats, and walks only connections with queued traffic.  The reference tick (:mod:`repro.testing.reference`) does none of
that.  Every one of those shortcuts is required to be invisible in
simulation outcomes; these tests pin

* the routers sweep's wake conditions on hand-built traces — a loaded router
  with no contacts must still wake exactly when a TTL comes due, and an
  empty-buffer router must stay hot while a transfer is in flight toward it
  (and go back to sleep after its peer aborts),
* those same wake conditions *across a checkpoint/restore cycle* — a router
  asleep with a due TTL at the snapshot tick wakes on the first resumed
  tick, and an in-flight transfer picked up from a snapshot completes
  exactly as it would have uninterrupted,
* end-to-end byte-identity of full scenario reports between the production
  world and the reference,
* the decoded link keys being plain Python ints (``np.int64`` leakage
  regression),
* batch contact-stat recording matching the per-event calls, and
* a fresh ``Connection`` per link-up, the torn-down one keeping both
  sides' per-contact state.
"""

import json

import numpy as np
import pytest

from repro.checkpoint import load_checkpoint_bytes, save_checkpoint_bytes
from repro.experiments.builder import build_scenario
from repro.experiments.catalog import make_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.collector import StatsCollector
from repro.net.message import Message
from repro.routing.epidemic import EpidemicRouter
from repro.testing import run_report
from repro.traces.contact_trace import ContactEvent, ContactTrace
from repro.traces.replay import build_trace_world
from repro.world.world import _decode_codes


def make_trace(intervals):
    """intervals: list of (start, end, a, b)."""
    events = []
    for start, end, a, b in intervals:
        events.append(ContactEvent(start, a, b, True))
        events.append(ContactEvent(end, a, b, False))
    return ContactTrace(events)


class TickLoggingRouter(EpidemicRouter):
    """Epidemic router that records the times its update tick actually ran."""

    name = "tick-logging"

    def __init__(self) -> None:
        super().__init__()
        self.tick_times = []

    def on_update(self, now: float) -> None:
        self.tick_times.append(now)
        super().on_update(now)


def use_tick_logging_routers(world, count):
    routers = {}
    for node_id in range(count):
        node = world.get_node(node_id)
        router = TickLoggingRouter()
        node.router = None
        router.attach(node, world)
        routers[node_id] = router
    return routers


STAT_AGGREGATES = ("created", "relayed", "delivered", "dropped", "expired",
                   "aborted", "contacts")


def assert_same_outcomes(world_a, world_b):
    for attr in STAT_AGGREGATES:
        assert getattr(world_a.stats, attr) == getattr(world_b.stats, attr), attr
    record = lambda stats: [  # noqa: E731 - local shorthand
        (r.message_id, r.node, r.time, r.reason)
        for r in stats.dropped_records]
    assert record(world_a.stats) == record(world_b.stats)


# ----------------------------------------------------- skip-list edge cases
def run_ttl_expiry_world(**world_kwargs):
    """One contact replicates a message; both copies then expire while idle.

    Node 0 creates a message for node 2 (never connected) with TTL 6; the
    1s-3s contact hands node 1 a replica.  From t=3 both holders sit with a
    loaded buffer and zero connections — the skip-list's sleep state — and
    must wake exactly at the TTL deadline to record the expiry drops.
    """
    trace = make_trace([(1.0, 3.0, 0, 1)])
    simulator, world = build_trace_world(trace, protocol="epidemic",
                                         num_nodes=3, **world_kwargs)
    routers = use_tick_logging_routers(world, 3)
    message = Message("m-ttl", 0, 2, 1000, 0.0, ttl=6.0)
    routers[0].create_message(message)
    simulator.run(until=12.0)
    return world, routers


def test_idle_loaded_router_wakes_exactly_at_ttl_expiry():
    world, routers = run_ttl_expiry_world()
    # the contact replicated the message, nothing was delivered, and both
    # replicas (source + relay) expired
    assert world.stats.relayed == 1
    assert world.stats.delivered == 0
    assert world.stats.expired == 2
    drops = [(r.node, r.time, r.reason) for r in world.stats.dropped_records]
    assert drops == [(0, 6.0, "expired"), (1, 6.0, "expired")]
    # the relay slept through the idle gap (t=4, 5) and woke only for the
    # deadline tick — not a tick late, not a tick early
    idle_gap = [t for t in routers[1].tick_times if 3.0 < t < 6.0]
    assert idle_gap == []
    assert 6.0 in routers[1].tick_times
    # after the drop the buffer is empty and the router sleeps again
    assert [t for t in routers[1].tick_times if t > 6.0] == []
    assert world.stats.routers_skipped > 0


def test_ttl_expiry_outcomes_match_always_tick_reference():
    skiplist, _ = run_ttl_expiry_world()
    reference, _ = run_ttl_expiry_world(reference=True)
    assert reference.stats.routers_skipped == 0
    assert_same_outcomes(skiplist, reference)


def run_mid_transfer_abort_world(**world_kwargs):
    """A 5-tick transfer is cut at t=4, then retried on a later contact.

    The receiver (node 1) has an empty buffer for the whole first contact —
    exactly the state the skip-list would idle — but a transfer is in flight
    toward it, so it must stay hot until its peer's teardown aborts the
    transfer, then go back to sleep until the second contact.
    """
    trace = make_trace([(1.0, 4.0, 0, 1), (8.0, 30.0, 0, 1)])
    simulator, world = build_trace_world(
        trace, protocol="epidemic", num_nodes=2,
        buffer_capacity=4 * 1024 * 1024, **world_kwargs)
    routers = use_tick_logging_routers(world, 2)
    # 5 ticks of airtime at the default 250 kB/s link
    size = int(250_000 * 5)
    routers[0].create_message(Message("m-big", 0, 1, size, 0.0, ttl=1000.0))
    simulator.run(until=30.0)
    return world, routers


def test_receiver_stays_hot_mid_transfer_and_sleeps_after_abort():
    world, routers = run_mid_transfer_abort_world()
    # the first contact's transfer was aborted by the teardown, the retry on
    # the second contact delivered
    assert world.stats.aborted == 1
    assert world.stats.delivered == 1
    times = routers[1].tick_times
    # mid-transfer ticks: empty buffer, no link event, but bytes in flight —
    # the queued-transfer wake condition
    assert 2.0 in times and 3.0 in times
    # after the abort (t=4 teardown) the receiver is provably idle until the
    # second contact's link event at t=8
    assert [t for t in times if 4.0 < t < 8.0] == []
    assert 8.0 in times
    assert world.stats.routers_skipped > 0


def test_mid_transfer_abort_outcomes_match_always_tick_reference():
    skiplist, _ = run_mid_transfer_abort_world()
    reference, _ = run_mid_transfer_abort_world(reference=True)
    assert reference.stats.routers_skipped == 0
    assert_same_outcomes(skiplist, reference)
    # identical delivery time, not just identical counts
    latency = lambda w: w.stats.delivered_latencies().tolist()  # noqa: E731
    assert latency(skiplist) == latency(reference)


def run_busy_trace_world(**world_kwargs):
    """Overlapping, recurring contacts among five nodes under epidemic load:
    links churn every few ticks, so pooled connections are recycled onto
    new pairs while transfers are queued, completed and aborted."""
    intervals = [(1.0, 6.0, 0, 1), (2.0, 4.0, 1, 2), (3.0, 9.0, 2, 3),
                 (5.0, 7.0, 0, 4), (7.0, 12.0, 1, 3), (8.0, 10.0, 0, 2),
                 (11.0, 15.0, 3, 4), (12.0, 13.0, 0, 1), (14.0, 20.0, 1, 4)]
    simulator, world = build_trace_world(
        make_trace(intervals), protocol="epidemic", num_nodes=5,
        transmit_speed=2_000.0, **world_kwargs)
    for index, (source, destination) in enumerate(
            [(0, 3), (4, 2), (2, 0), (3, 1)]):
        message = Message(f"m{index}", source, destination, 3_000 + index,
                          0.0, ttl=16.0)
        world.create_message(source, message)
    simulator.run(until=24.0)
    return world


def test_historical_tick_matches_flat_tick_on_traces():
    flat = run_busy_trace_world()
    historical = run_busy_trace_world(reference=True)
    assert flat.stats.aborted > 0 and flat.stats.delivered > 0
    assert_same_outcomes(flat, historical)
    relays = lambda w: [  # noqa: E731 - local shorthand
        (r.message_id, r.from_node, r.to_node, r.time)
        for r in w.stats.relayed_records]
    assert relays(flat) == relays(historical)


# ------------------------------------------- skip-list state under restore
def checkpoint_roundtrip(world):
    """Serialize *world*, tear it down, and return the restored copy."""
    blob = save_checkpoint_bytes(world)
    world.stop()
    return load_checkpoint_bytes(blob).world


def test_sleeping_router_with_due_ttl_wakes_on_first_resumed_tick():
    """A snapshot taken while both holders sleep (TTL due next tick) must
    restore the skip-list wake conditions, not just the buffers: the resumed
    run's very first tick is the expiry deadline."""
    trace = make_trace([(1.0, 3.0, 0, 1)])
    simulator, world = build_trace_world(trace, protocol="epidemic",
                                         num_nodes=3)
    routers = use_tick_logging_routers(world, 3)
    routers[0].create_message(Message("m-ttl", 0, 2, 1000, 0.0, ttl=6.0))
    simulator.run(until=5.0)
    assert world.stats.expired == 0  # nothing due yet at the snapshot
    restored = checkpoint_roundtrip(world)
    restored.simulator.run(until=12.0)
    drops = [(r.node, r.time, r.reason)
             for r in restored.stats.dropped_records]
    assert drops == [(0, 6.0, "expired"), (1, 6.0, "expired")]
    assert restored.stats.expired == 2
    # the restored relay wakes exactly once after the snapshot — at the
    # deadline — then sleeps again (its logged history travels with it)
    resumed_ticks = [t for t in restored.get_node(1).router.tick_times
                     if t > 5.0]
    assert resumed_ticks == [6.0]
    restored.stop()


def test_mid_transfer_restore_completes_like_an_uninterrupted_run():
    """A snapshot taken with bytes in flight restores the live Connection
    (progress, established_seq, queued-transfer wake) so the abort, the
    retry and the delivery all land exactly as in the uninterrupted run."""
    trace = make_trace([(1.0, 4.0, 0, 1), (8.0, 30.0, 0, 1)])
    simulator, world = build_trace_world(
        trace, protocol="epidemic", num_nodes=2,
        buffer_capacity=4 * 1024 * 1024)
    routers = use_tick_logging_routers(world, 2)
    routers[0].create_message(
        Message("m-big", 0, 1, int(250_000 * 5), 0.0, ttl=1000.0))
    simulator.run(until=2.0)  # transfer started at t=1, ~3 ticks remain
    restored = checkpoint_roundtrip(world)
    restored.simulator.run(until=30.0)
    reference, _ = run_mid_transfer_abort_world()
    assert_same_outcomes(restored, reference)
    times = restored.get_node(1).router.tick_times
    # the restored receiver stays hot while the transfer is still in flight,
    # then goes provably idle between the abort and the second contact
    assert 3.0 in times
    assert [t for t in times if 4.0 < t < 8.0] == []
    restored.stop()


# ------------------------------------------------ contact records vs reference
def contact_columns(config, *, reference=False, snapshot=False):
    """The run's full contact-record columns; with *snapshot*, the world is
    checkpointed and restored at the first tick past mid-run that has live
    contacts (their records close after the restore)."""
    built = build_scenario(config, reference=reference)
    world = built.world
    try:
        if snapshot:
            now = config.sim_time / 2
            built.simulator.run(until=now)
            while not world._connections:
                now += config.update_interval
                built.simulator.run(until=now)
            assert now < config.sim_time
            world = checkpoint_roundtrip(world)
        world.simulator.run(until=config.sim_time)
        columns = world.stats.record_columns("contacts")
    finally:
        world.stop()
    columns = {name: column.tolist() for name, column in columns.items()}
    assert columns["start"]
    # every contact spans at least one tick, in canonical pair order
    assert all(start < end for start, end in
               zip(columns["start"], columns["end"]))
    assert all(a < b for a, b in zip(columns["node_a"], columns["node_b"]))
    return columns


@pytest.mark.parametrize("scenario,overrides", [
    ("bench", {"protocol": "eer", "num_nodes": 20, "sim_time": 400.0}),
    ("trace-csv", {"protocol": "eer", "sim_time": 600.0}),
], ids=["bus", "trace"])
def test_contact_record_columns_match_the_reference(scenario, overrides):
    config = make_scenario(scenario, overrides)
    reference = contact_columns(config, reference=True)
    assert contact_columns(config) == reference
    assert contact_columns(config, snapshot=True) == reference
    assert contact_columns(config, reference=True, snapshot=True) == reference


# ------------------------------------------------------- full-scenario pins
def full_run_payload(*, reference=False, **overrides):
    config = make_scenario("bench", {
        "mobility": "random_waypoint", "protocol": "epidemic",
        "num_nodes": 50, "sim_time": 500.0, "name": "flat-tick-pin",
        **overrides})
    report = run_report(config, reference=reference)
    return json.dumps(report.as_dict(), sort_keys=True)


def test_skiplist_report_byte_identical_to_always_tick():
    assert full_run_payload() == full_run_payload(reference=True)


def test_skiplist_report_byte_identical_for_unsafe_router():
    # prophet opts out of skipping (idle_skip_safe=False): the routers
    # sweep must still dispatch every router every tick and reproduce the
    # report
    assert full_run_payload(protocol="prophet") \
        == full_run_payload(protocol="prophet", reference=True)


def test_flat_tick_report_byte_identical_to_historical_reference():
    """The production tick == the reference tick on the bus map, where
    contacts recur along fixed lines and spray-and-wait's per-contact gates
    exercise the gated tier of the routers sweep."""
    overrides = dict(mobility="bus", protocol="spray-and-wait",
                     sim_time=600.0)
    assert full_run_payload(**overrides) \
        == full_run_payload(reference=True, **overrides)


# --------------------------------------------------------- decoded link keys
def test_decoded_link_keys_are_plain_python_ints():
    codes = np.array([(1 << 32) | 2, (3 << 32) | 40,
                      (70_000 << 32) | 99_999], dtype=np.int64)
    keys = _decode_codes(codes)
    assert keys == [(1, 2), (3, 40), (70_000, 99_999)]
    for lo, hi in keys:
        # np.int64 would compare and hash equal — require the exact type so
        # connection-table keys never carry boxed scalars
        assert type(lo) is int and type(hi) is int
    # plain sequences and other integer dtypes normalise the same way
    assert _decode_codes([(5 << 32) | 6]) == [(5, 6)]
    assert _decode_codes(np.empty(0, dtype=np.int64)) == []


def test_world_connection_keys_are_plain_ints_end_to_end():
    trace = make_trace([(1.0, 10.0, 0, 1), (2.0, 10.0, 1, 2)])
    simulator, world = build_trace_world(trace, num_nodes=3)
    simulator.run(until=5.0)
    assert world._connections
    for key in world._connections:
        assert type(key[0]) is int and type(key[1]) is int
    for node_id in range(3):
        for neighbour in world.get_node(node_id).connections:
            assert type(neighbour) is int


# ------------------------------------------------------- batch contact stats
@pytest.mark.parametrize("mode", ["off", "columnar"])
def test_contact_batches_match_per_event_calls(mode):
    simulator, world = build_trace_world(make_trace([]), num_nodes=4)
    ups = [(0, 1), (0, 2), (1, 3)]
    for key in ups:
        world._link_up(key, 10.0)
    downs = [world._connections[(0, 2)], world._connections[(1, 3)]]
    per_event = StatsCollector(keep_records=mode != "off")
    batched = StatsCollector(keep_records=mode != "off")
    links = list(world._connections.values())
    for connection in links:
        per_event.contacts_opened([connection])
    batched.contacts_opened(links)
    for connection in downs:
        per_event.contacts_closed([connection], 25.0)
    batched.contacts_closed(downs, 25.0)
    batched.contacts_closed([], 26.0)       # an up-only diff closes nothing
    assert batched.contacts == per_event.contacts == 3
    if mode != "off":
        as_tuples = lambda s: [  # noqa: E731
            (r.node_a, r.node_b, r.start, r.end) for r in s.contact_records]
        assert as_tuples(batched) == as_tuples(per_event) \
            == [(0, 2, 10.0, 25.0), (1, 3, 10.0, 25.0)]


# ------------------------------------------------- one connection per link-up
class ContactStateRouter(EpidemicRouter):
    """Epidemic router that records, at each link-down dispatch, what its
    own and its peer's side of the torn-down connection still hold."""

    name = "contact-state"

    def __init__(self) -> None:
        super().__init__()
        self.downs = []

    def on_contact_down(self, connection, peer) -> None:
        self.downs.append((connection,
                           set(connection.considered_by(self.node)),
                           set(connection.considered_by(peer)),
                           connection.first_evaluation_by(self.node)))


def test_re_established_pair_gets_a_new_connection():
    simulator, world = build_trace_world(make_trace([]), num_nodes=3)
    routers = {}
    for node_id in (0, 1):
        node = world.get_node(node_id)
        node.router = None
        routers[node_id] = ContactStateRouter()
        routers[node_id].attach(node, world)
    world._link_up((0, 1), 0.0)
    first = world._connections[(0, 1)]
    node_0, node_1 = world.get_node(0), world.get_node(1)
    routers[0].considered_on(first).add("m0")
    routers[1].considered_on(first).add("m1")
    assert routers[0].is_first_evaluation(first)
    assert routers[1].is_first_evaluation(first)
    world._link_down((0, 1), 1.0)
    world._link_up((0, 2), 1.0)     # a link-up between the two diffs
    world._link_up((0, 1), 2.0)
    second = world._connections[(0, 1)]
    assert second is not first
    assert node_0.connections[1] is second is node_1.connections[0]
    assert list(node_0.connections) == [2, 1]   # establishment order
    # the teardown dispatch saw both sides' per-contact state ...
    assert [down[1:] for down in routers[0].downs] == [({"m0"}, {"m1"}, False)]
    assert [down[1:] for down in routers[1].downs] == [({"m1"}, {"m0"}, False)]
    assert routers[0].downs[0][0] is first is routers[1].downs[0][0]
    # ... the torn-down connection keeps it after the next link-up ...
    assert first.considered_by(node_0) == {"m0"}
    assert first.considered_by(node_1) == {"m1"}
    assert not first.is_up and first.torn_down_at == 1.0
    assert first.key == (0, 1) and first.established_at == 0.0
    # ... and the new connection starts with none
    assert second.considered_by(node_0) == set()
    assert second.considered_by(node_1) == set()
    assert second.is_up and second.established_at == 2.0
    assert second.established_seq > first.established_seq


def test_historical_tick_allocates_fresh_connections():
    simulator, world = build_trace_world(make_trace([]), num_nodes=3,
                                         reference=True)
    world._link_up((0, 1), 0.0)
    first = world._connections[(0, 1)]
    world._link_down((0, 1), 1.0)
    world._link_up((0, 2), 2.0)
    assert world._connections[(0, 2)] is not first
    world._link_up((0, 1), 3.0)
    assert world._connections[(0, 1)] is not first


# ------------------------------------------------------------- config guards
def test_retired_tick_mode_fields_are_rejected():
    # one production path per layer: the old tick-mode switches and the
    # record-store choice are unknown fields, on the constructor and on the
    # --set override path alike
    retired = {"batch_movement": False, "router_skiplist": False,
               "flat_tick": False, "router_soa": False,
               "transfer_engine": False, "record_mode": "columnar"}
    for field, value in retired.items():
        with pytest.raises(TypeError, match="unexpected keyword"):
            ScenarioConfig(name="x", **{field: value})
        with pytest.raises(TypeError, match="unexpected keyword"):
            make_scenario("bench", {field: value})
    # nor does any router parameter select an implementation
    config = make_scenario("bench", {"router.reference_impl": True,
                                     "num_nodes": 4, "sim_time": 5.0})
    with pytest.raises(TypeError, match="unexpected keyword"):
        build_scenario(config)


def test_world_workers_mode_validation():
    # detection is single-threaded, so there is no worker mode (nor worker
    # count) to choose: both are unknown fields, on the constructor and on
    # the --set override path alike
    for field, value in (("world_workers_mode", "process"),
                         ("world_workers_mode", "thread"),
                         ("world_workers", 2)):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ScenarioConfig(name="x", **{field: value})
        with pytest.raises(TypeError, match="unexpected keyword"):
            make_scenario("bench", {field: value})
