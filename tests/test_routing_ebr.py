"""Unit tests for the EBR baseline."""

import pytest

from repro.testing import inject_message, make_contact_plan, make_world
from repro.routing.ebr import EBRRouter


def test_parameter_validation():
    with pytest.raises(ValueError):
        EBRRouter(ewma_alpha=0.0)
    with pytest.raises(ValueError):
        EBRRouter(ewma_alpha=1.5)
    with pytest.raises(ValueError):
        EBRRouter(window=0.0)


def test_encounter_value_tracks_contact_rate():
    # node 0 meets someone every 10 s; node 3 only once
    contacts = [(float(t), float(t) + 5.0, 0, 1 + (t // 10) % 2) for t in range(10, 310, 10)]
    contacts.append((50.0, 55.0, 3, 4))
    trace = make_contact_plan(contacts)
    simulator, world = make_world(trace, protocol="ebr", num_nodes=5)
    simulator.run(until=320.0)
    busy = world.get_node(0).router.encounter_value
    quiet = world.get_node(3).router.encounter_value
    assert busy > quiet
    assert quiet >= 0.0


def test_replicas_split_proportionally_to_encounter_values():
    # node 1 is "busy" (meets 2 and 3 often) before meeting the source
    contacts = []
    for t in range(10, 200, 20):
        contacts.append((float(t), float(t) + 5.0, 1, 2))
        contacts.append((float(t) + 7.0, float(t) + 12.0, 1, 3))
    contacts.append((300.0, 340.0, 0, 1))
    trace = make_contact_plan(contacts)
    simulator, world = make_world(trace, protocol="ebr", num_nodes=5)
    inject_message(world, source=0, destination=4, copies=10, now=250.0, ttl=5000.0)
    simulator.run(until=400.0)
    source_copies = world.get_node(0).buffer.get("M1").copies
    relay_copies = world.get_node(1).buffer.get("M1").copies
    assert source_copies + relay_copies == 10
    # the idle source hands most replicas to the busy relay
    assert relay_copies > source_copies


def test_single_copy_waits_for_destination():
    trace = make_contact_plan([
        (10.0, 40.0, 0, 1),    # split: both end with >= 1 copy
        (100.0, 130.0, 1, 2),  # 1 has one copy: must NOT hand it to 2
        (200.0, 230.0, 1, 3),  # 1 meets the destination
    ])
    simulator, world = make_world(trace, protocol="ebr", num_nodes=4)
    inject_message(world, source=0, destination=3, copies=2, ttl=5000.0)
    simulator.run(until=150.0)
    assert world.get_node(1).buffer.get("M1").copies == 1
    assert not world.get_node(2).router.has_message("M1")
    simulator.run(until=300.0)
    assert world.stats.is_delivered("M1")


def test_total_copies_never_exceed_lambda():
    trace = make_contact_plan([
        (10.0, 40.0, 0, 1),
        (10.0, 40.0, 0, 2),
        (50.0, 80.0, 1, 3),
        (50.0, 80.0, 2, 4),
    ])
    simulator, world = make_world(trace, protocol="ebr", num_nodes=6)
    inject_message(world, source=0, destination=5, copies=8, ttl=5000.0)
    simulator.run(until=100.0)
    total = 0
    for node_id in range(6):
        message = world.get_node(node_id).buffer.get("M1")
        if message is not None:
            total += message.copies
    assert total == 8


def test_ev_exchange_overhead_counted(two_node_trace):
    simulator, world = make_world(two_node_trace, protocol="ebr")
    simulator.run(until=250.0)
    assert world.stats.control_rows_exchanged >= 2


def test_skipped_folds_catch_up_exactly():
    """A router asleep through window boundaries replays the skipped folds
    on its next call as the same float operations: folding on every 0.1 s
    tick and folding only at contacts and at the end leave bit-equal
    state (the idle router contract's proof for EBR's gated tier)."""
    eager = EBRRouter(window=30.0)
    lazy = EBRRouter(window=30.0)
    contacts = {35, 36, 400, 1234, 1235, 1236, 9000, 14000}   # tick numbers
    for tick in range(1, 20_001):
        now = tick * 0.1
        eager._fold_windows(now)
        if tick in contacts:
            for router in (eager, lazy):
                router._fold_windows(now)            # as on_contact_recorded
                router._current_window_count += 1
    lazy._fold_windows(20_000 * 0.1)
    assert lazy._encounter_value > 0.0
    assert (lazy._encounter_value, lazy._window_end,
            lazy._current_window_count) == (
        eager._encounter_value, eager._window_end,
        eager._current_window_count)


def test_encounter_value_reads_as_of_now_without_folding():
    """A router the sweep lets sleep still reads the encounter value folded
    to the current time, as the reference world (which ticks every router
    on every update) does; reading it mutates nothing."""
    from repro.traces.replay import build_trace_world

    trace = make_contact_plan([(10.0, 15.0, 0, 1)])
    values = []
    for reference in (False, True):
        simulator, world = build_trace_world(trace, protocol="ebr",
                                             num_nodes=2, reference=reference)
        simulator.run(until=200.0)
        router = world.get_node(0).router
        state = (router._encounter_value, router._current_window_count,
                 router._window_end)
        values.append(router.encounter_value)
        assert (router._encounter_value, router._current_window_count,
                router._window_end) == state
    production, reference = values
    assert production == reference
    assert production == pytest.approx(0.85 * 0.15 ** 5)    # 6.45e-05
