"""The columnar transfers phase (TransferEngine) against the reference tick.

Three layers of evidence:

* hypothesis parity — random link/enqueue/teardown scripts driven through a
  production world and a reference world (:mod:`repro.testing.reference`,
  whose transfers phase advances every live link through
  ``Connection.advance``), asserting identical completion order, byte
  accounting (including aborted-transfer ``bytes_left``) and final queue
  state,
* full-scenario pins — byte-identical canonical reports production vs
  reference for every routing family the suite exercises,
* resume equality — a checkpoint taken *mid-transfer* restores invisibly
  (the engine's columns are part of the snapshot).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.scenario import ScenarioConfig
from repro.net.connection import TransferState
from repro.net.engine import TransferEngine
from repro.testing import (assert_resume_equality, canonical_report_bytes,
                           inject_message, make_trace, run_report)
from repro.traces.contact_trace import ContactTrace
from repro.traces.replay import build_trace_world


# ------------------------------------------------------------------ helpers
def empty_world(num_nodes=4, *, reference=False, transmit_speed=1000.0,
                protocol="epidemic", seed=9):
    """A trace-replay world with no prescribed contacts: the test drives
    link events and phases by hand."""
    simulator, world = build_trace_world(
        ContactTrace([]), protocol=protocol, num_nodes=num_nodes, seed=seed,
        transmit_speed=transmit_speed, reference=reference,
        buffer_capacity=16 * 1024 * 1024)
    return simulator, world


def head_bytes(world, connection):
    """Authoritative remaining bytes of the head transfer, either world
    (the reference never attaches engine rows)."""
    engine = world.transfer_engine
    if connection.has_queued:
        try:
            return engine.head_bytes_left(connection)
        except KeyError:
            pass
    return connection.queued_transfers[0].bytes_left if connection.has_queued \
        else None


def queue_state(world):
    """Comparable snapshot of every live connection's transfer queue."""
    state = {}
    for key, connection in world._connections.items():
        rows = []
        for index, transfer in enumerate(connection.queued_transfers):
            bytes_left = (head_bytes(world, connection) if index == 0
                          else transfer.bytes_left)
            rows.append((transfer.message.message_id,
                         transfer.receiver.node_id, bytes_left,
                         transfer.state.value))
        state[key] = rows
    return state


def relayed_tuples(world):
    return [(r.message_id, r.from_node, r.to_node, r.time, r.copies)
            for r in world.stats.relayed_records]


def aborted_tuples(world):
    return [(r.message_id, r.from_node, r.to_node, r.time, r.bytes_left)
            for r in world.stats.aborted_records]


# ------------------------------------------------------- hypothesis parity
_pair = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
    lambda p: p[0] != p[1]).map(lambda p: (min(p), max(p)))

_step = st.fixed_dictionaries({
    "links": st.lists(st.tuples(_pair, st.booleans()), max_size=3),
    "messages": st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3),
                  st.integers(100, 60_000)).filter(lambda m: m[0] != m[1]),
        max_size=2),
    "dt": st.sampled_from([0.25, 0.5, 1.0, 2.0]),
})


@settings(deadline=None, max_examples=30)
@given(speed=st.sampled_from([100.0, 333.0, 1_000.0, 25_000.0]),
       steps=st.lists(_step, min_size=3, max_size=25))
def test_random_scripts_reference_vs_engine(speed, steps):
    """Random enqueue/teardown/dt scripts: both modes must complete the
    same transfers in the same order with the same byte accounting."""

    def run(reference):
        simulator, world = empty_world(transmit_speed=speed,
                                       reference=reference)
        live = set()
        now = 0.0
        counter = 0
        for step in steps:
            now += step["dt"]
            for pair, up in step["links"]:
                if up and pair not in live:
                    live.add(pair)
                    world._link_up(pair, now)
                elif not up and pair in live:
                    live.discard(pair)
                    world._link_down(pair, now)
            for src, dst, size in step["messages"]:
                counter += 1
                inject_message(world, src, dst, now=now, size=size,
                               ttl=100_000.0, message_id=f"M{counter}")
            world._advance_transfers(now, step["dt"])
            world._update_routers(now)
        return world

    engine_world = run(False)
    reference_world = run(True)

    assert relayed_tuples(engine_world) == relayed_tuples(reference_world)
    assert aborted_tuples(engine_world) == aborted_tuples(reference_world)
    s_on, s_off = engine_world.stats, reference_world.stats
    assert s_on.transfers_completed == s_off.transfers_completed
    assert s_on.transfers_aborted == s_off.transfers_aborted
    assert s_on.bytes_delivered == s_off.bytes_delivered
    assert queue_state(engine_world) == queue_state(reference_world)

    # the engine invariant: every row is an up connection with queued
    # transfers, and every such connection either holds a row or is still
    # awaiting ingestion in _newly_active (announced after the last sweep)
    engine = engine_world.transfer_engine
    rows = {c.established_seq for c in engine.connections()}
    queued = {c.established_seq for c in engine_world._connections.values()
              if c.is_up and c.has_queued}
    announced = {c.established_seq for c in engine_world._newly_active}
    assert rows <= queued
    assert queued - rows <= announced


# ------------------------------------------------------ full-scenario pins
@pytest.mark.parametrize("protocol",
                         ["direct", "epidemic", "spray-and-wait", "prophet"])
def test_report_byte_identical_engine_on_vs_off(protocol):
    config = ScenarioConfig.bench_scale(
        protocol=protocol, num_nodes=40, seed=7, sim_time=900.0,
        mobility="random_waypoint", name=f"engine-pin-{protocol}")
    on = canonical_report_bytes(run_report(config))
    off = canonical_report_bytes(run_report(config, reference=True))
    assert on == off


def mid_transfer_config():
    """Epidemic under load slow enough that transfers span many ticks."""
    return ScenarioConfig.bench_scale(
        protocol="epidemic", num_nodes=30, seed=11, sim_time=120.0,
        mobility="random_waypoint", name="engine-resume",
        transmit_range=120.0, transmit_speed=5_000.0,
        message_size=100_000, message_interval=(2.0, 4.0))


def test_resume_equality_through_mid_transfer_checkpoint():
    from repro.experiments.builder import build_scenario

    config = mid_transfer_config()
    checkpoint_at = 60.0
    # precondition: the engine really is mid-transfer at the boundary —
    # otherwise this test silently degrades to the cheap empty-engine case
    built = build_scenario(config)
    try:
        built.simulator.run(until=checkpoint_at)
        assert len(built.world.transfer_engine) > 0
    finally:
        built.world.stop()
    assert_resume_equality(config, checkpoint_times=[checkpoint_at])


def test_restored_engine_is_rewired_to_restored_connections():
    from repro.checkpoint import load_checkpoint_bytes, save_checkpoint_bytes
    from repro.experiments.builder import build_scenario

    built = build_scenario(mid_transfer_config())
    try:
        built.simulator.run(until=60.0)
        blob = save_checkpoint_bytes(built.world)
    finally:
        built.world.stop()
    restored = load_checkpoint_bytes(blob).world
    try:
        engine = restored.transfer_engine
        assert len(engine) > 0
        for connection in engine.connections():
            # identity, not equality: rows must point at the restored
            # world's own connection objects (the ones both endpoints' maps
            # hold), and the activity seam must point back at the restored
            # world's sink
            assert restored._connections[connection.key] is connection
            assert connection.node_a.connections[connection.node_b.node_id] \
                is connection
            assert connection.activity_sink is restored._newly_active
            assert engine.head_bytes_left(connection) <= \
                connection.queued_transfers[0].message.size
    finally:
        restored.stop()


# ------------------------------------------------------------- engine units
def test_stale_announcement_is_ignored():
    """enqueue -> teardown before any sweep: the activity-sink announcement
    is stale and must not attach a row (nor resurrect the torn-down link)."""
    simulator, world = empty_world()
    world._link_up((0, 1), 0.0)
    inject_message(world, 0, 1, size=5_000, message_id="MX")
    world._update_routers(0.0)  # epidemic enqueues on the live link
    assert world._newly_active
    world._link_down((0, 1), 0.5)
    world._advance_transfers(1.0, 1.0)
    assert len(world.transfer_engine) == 0
    assert not world._newly_active


def test_re_established_link_gets_its_own_engine_row():
    """A link re-established after a tear-down is a new connection with a
    new established_seq, and gets a fresh row keyed by it."""
    simulator, world = empty_world(transmit_speed=100.0)
    world._link_up((0, 1), 0.0)
    first = world._connections[(0, 1)]
    first_seq = first.established_seq
    inject_message(world, 0, 1, size=1_000, message_id="MA")
    world._update_routers(0.0)
    world._advance_transfers(1.0, 1.0)
    assert len(world.transfer_engine) == 1
    world._link_down((0, 1), 1.5)
    assert len(world.transfer_engine) == 0
    world._link_up((0, 1), 2.0)
    second = world._connections[(0, 1)]
    assert second is not first
    assert second.established_seq > first_seq
    inject_message(world, 0, 1, size=1_000, message_id="MB")
    world._update_routers(2.0)
    world._advance_transfers(3.0, 1.0)
    engine = world.transfer_engine
    assert [c.established_seq for c in engine.connections()] \
        == [second.established_seq]
    assert engine.head_bytes_left(second) == pytest.approx(900.0)


def test_multi_completion_single_tick_matches_reference():
    """A fast link draining several queued transfers in one tick must
    complete them all, in order, through the exact replay."""

    def run(reference):
        simulator, world = empty_world(transmit_speed=1_000_000.0,
                                       reference=reference)
        world._link_up((0, 1), 0.0)
        for index in range(5):
            inject_message(world, 0, 1, size=10_000,
                           message_id=f"M{index}")
        world._update_routers(0.0)
        world._advance_transfers(1.0, 1.0)
        return world

    on, off = run(False), run(True)
    assert relayed_tuples(on) == relayed_tuples(off)
    assert on.stats.transfers_completed == 5
    assert len(on.transfer_engine) == 0


def test_exact_budget_boundary_leaves_next_head_pending():
    """bytes_left exactly equal to the tick budget: the head completes with
    zero leftover budget and the next head stays PENDING until the *next*
    sweep — the reference loop's timing, bit for bit."""

    def run(reference):
        simulator, world = empty_world(transmit_speed=1_000.0,
                                       reference=reference)
        world._link_up((0, 1), 0.0)
        inject_message(world, 0, 1, size=1_000, message_id="MA")
        inject_message(world, 0, 1, size=500, message_id="MB")
        world._update_routers(0.0)
        world._advance_transfers(1.0, 1.0)  # budget 1000 == MA exactly
        return world

    for world in (run(True), run(False)):
        connection = world._connections[(0, 1)]
        assert world.stats.transfers_completed == 1
        (transfer,) = connection.queued_transfers
        assert transfer.message.message_id == "MB"
        assert transfer.state is TransferState.PENDING
        assert head_bytes(world, connection) == pytest.approx(500.0)
        # the deferred start: the next sweep marks it IN_PROGRESS with
        # started_at = that tick's now
        world._advance_transfers(2.0, 1.0)
        assert world.stats.transfers_completed == 2


def test_engine_column_is_authoritative_between_sweeps():
    simulator, world = empty_world(transmit_speed=100.0)
    world._link_up((0, 1), 0.0)
    inject_message(world, 0, 1, size=1_000, message_id="MA")
    world._update_routers(0.0)
    world._advance_transfers(1.0, 1.0)
    connection = world._connections[(0, 1)]
    engine = world.transfer_engine
    assert engine.head_bytes_left(connection) == pytest.approx(900.0)
    # the Transfer object deliberately lags (columns are authoritative)...
    assert connection.queued_transfers[0].bytes_left == pytest.approx(1_000.0)
    # ...until a seam flushes it: tear-down hands the exact count to stats
    world._link_down((0, 1), 2.0)
    (record,) = world.stats.aborted_records
    assert record.bytes_left == pytest.approx(900.0)
    assert len(engine) == 0


def test_engine_grows_past_initial_capacity():
    simulator, world = empty_world(num_nodes=40, transmit_speed=10.0)
    # 20 disjoint busy links would not exceed capacity; grow it artificially
    # small instead to exercise _grow under sweep conditions
    world.transfer_engine._bytes_left = world.transfer_engine._bytes_left[:2]
    world.transfer_engine._bitrate = world.transfer_engine._bitrate[:2]
    world.transfer_engine._seq = world.transfer_engine._seq[:2]
    for index in range(6):
        pair = (2 * index, 2 * index + 1)
        world._link_up(pair, 0.0)
        inject_message(world, pair[0], pair[1], size=10_000,
                       message_id=f"M{index}")
    world._update_routers(0.0)
    world._advance_transfers(1.0, 1.0)
    assert len(world.transfer_engine) == 6
    assert len(world.transfer_engine._bytes_left) >= 6


# ------------------------------------------------- is_transferring index
def test_is_transferring_index_tracks_enqueue_advance_teardown():
    simulator, world = empty_world(transmit_speed=1_000.0)
    world._link_up((0, 1), 0.0)
    inject_message(world, 0, 1, size=1_000, message_id="MA")
    inject_message(world, 0, 1, size=2_000, message_id="MB")
    world._update_routers(0.0)
    connection = world._connections[(0, 1)]
    assert connection.is_transferring("MA")
    assert connection.is_transferring("MA", to_node_id=1)
    assert not connection.is_transferring("MA", to_node_id=0)
    assert connection.is_transferring("MB")
    assert not connection.is_transferring("MC")
    world._advance_transfers(1.0, 1.0)  # completes MA exactly
    assert not connection.is_transferring("MA")
    assert connection.is_transferring("MB", to_node_id=1)
    world._link_down((0, 1), 2.0)
    assert not connection.is_transferring("MB")
    assert connection._queued_ids == {} and connection._queued_pairs == {}


def test_is_transferring_refcounts_duplicate_ids():
    """Two queued transfers of the same message to different receivers:
    the id stays indexed until *both* leave the queue."""
    from repro.net.connection import Connection, Transfer

    simulator, world = empty_world(num_nodes=3, transmit_speed=1_000.0)
    world._link_up((0, 1), 0.0)
    connection = world._connections[(0, 1)]
    message = inject_message(world, 0, 2, size=800, message_id="MD")
    node0, node1 = world.get_node(0), world.get_node(1)
    replica = node0.buffer.get("MD")
    connection.enqueue(Transfer(replica, node0, node1))
    connection.enqueue(Transfer(replica, node1, node0))
    assert connection.is_transferring("MD", to_node_id=1)
    assert connection.is_transferring("MD", to_node_id=0)
    world._advance_transfers(1.0, 1.0)  # first completes (800 <= 1000)
    assert not connection.is_transferring("MD", to_node_id=1)
    assert connection.is_transferring("MD")  # second still queued
    assert connection.is_transferring("MD", to_node_id=0)
