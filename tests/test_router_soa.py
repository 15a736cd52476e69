"""The struct-of-arrays router sweep: bit-exactness, counters, fallbacks.

The production routers phase is one vectorized evaluation of the idle
router wake predicate plus a batch resolution of provably no-op updates
(``Router.supports_batch_update``); the reference tick
(:mod:`repro.testing.reference`) calls ``Router.update`` on every router.
The contract: **same decisions, same bytes, just faster**.  Pinned here:

* full-scenario canonical reports are byte-identical to the reference for
  all four batch-capable protocols and for the non-batchable fallbacks
  (prophet, spray-and-focus);
* hypothesis-generated contact/traffic scripts agree outcome-for-outcome
  with the reference, and the sweep's ticked/batched/skipped split always
  accounts for every router the reference ticks;
* the batched/ticked/skipped counters sum to ``nodes × updates``, surface on
  :class:`SimulationReport` and stay out of the canonical serialisation;
* the store itself: registration order, growth, dirty-buffer mirrors,
  link-count deltas, router rebinds, the non-inherited batch contract, and
  checkpoint/resume of all of it.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint import load_checkpoint_bytes, save_checkpoint_bytes
from repro.experiments.catalog import make_scenario
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.net.message import Message
from repro.routing.epidemic import EpidemicRouter
from repro.routing.registry import create_router
from repro.routing.soa import RouterStateStore
from repro.routing.spray_and_focus import SprayAndFocusRouter
from repro.routing.spray_and_wait import SprayAndWaitRouter
from repro.testing import (
    assert_resume_equality,
    inject_message,
    make_contact_plan,
    make_trace,
    run_report,
)
from repro.traces.replay import build_trace_world

#: the batch-capable protocols (Router.supports_batch_update = True)
BATCHABLE = ["direct", "epidemic", "first-contact", "spray-and-wait"]


# --------------------------------------------------- full-scenario pins
def scenario_payload(protocol, *, reference, **overrides):
    config = make_scenario("bench", {
        "mobility": "random_waypoint", "protocol": protocol,
        "num_nodes": 40, "sim_time": 300.0,
        "name": f"soa-pin-{protocol}", **overrides})
    report = run_report(config, reference=reference)
    return json.dumps(report.as_dict(), sort_keys=True)


@pytest.mark.parametrize("protocol", BATCHABLE)
def test_soa_report_byte_identical_to_skip_scan(protocol):
    """Acceptance pin: the SoA sweep == tick-every-router, byte for byte,
    per batchable protocol (the canonical payload excludes the routers
    counters, which differ by construction)."""
    assert scenario_payload(protocol, reference=False) \
        == scenario_payload(protocol, reference=True)


@pytest.mark.parametrize("protocol", ["prophet", "spray-and-focus"])
def test_soa_report_byte_identical_for_fallback_routers(protocol):
    """Non-batchable routers run the exact per-router loop under SoA:
    prophet opts out of skipping entirely (idle_skip_safe=False) and
    spray-and-focus must not inherit spray-and-wait's batch capability."""
    assert scenario_payload(protocol, reference=False) \
        == scenario_payload(protocol, reference=True)


# ------------------------------------------------- hypothesis parity
@st.composite
def contact_script(draw):
    """A randomized contact plan plus traffic over a handful of nodes."""
    num_nodes = draw(st.integers(2, 5))
    contacts = draw(st.lists(
        st.tuples(st.integers(0, 20),               # start tick
                  st.integers(1, 8),                # duration in ticks
                  st.integers(0, num_nodes - 1),    # endpoint a
                  st.integers(0, num_nodes - 1)),   # endpoint b
        min_size=1, max_size=12))
    messages = draw(st.lists(
        st.tuples(st.integers(0, num_nodes - 1),    # source
                  st.integers(0, num_nodes - 1),    # destination
                  st.integers(4, 40),               # ttl in ticks
                  st.integers(1, 4)),               # spray copies
        min_size=1, max_size=4))
    return num_nodes, contacts, messages


def run_script(protocol, num_nodes, contacts, messages, *, reference):
    plan = make_contact_plan(
        [(float(s), float(s + d), a, b) for s, d, a, b in contacts if a != b])
    simulator, world = build_trace_world(plan, protocol=protocol,
                                         num_nodes=num_nodes,
                                         reference=reference)
    for index, (source, destination, ttl, copies) in enumerate(messages):
        if source == destination:
            continue
        inject_message(world, source, destination, ttl=float(ttl),
                       copies=copies, message_id=f"M{index}")
    horizon = max(s + d for s, d, _, _ in contacts) + 45.0
    simulator.run(until=horizon)
    return world


def outcome_fingerprint(world):
    """Every observable routing outcome of a finished trace-world run."""
    stats = world.stats
    return (
        stats.created, stats.delivered, stats.relayed, stats.dropped,
        stats.contacts, stats.delivery_ratio, stats.average_latency,
        tuple((r.message_id, r.from_node, r.to_node, r.time)
              for r in stats.relayed_records),
        tuple((r.message_id, r.node, r.time, r.reason)
              for r in stats.dropped_records),
        tuple((node.node_id, tuple(sorted(node.buffer.message_ids())))
              for node in world.nodes),
    )


@pytest.mark.parametrize("protocol", BATCHABLE)
@given(script=contact_script())
@settings(max_examples=25, deadline=None)
def test_hypothesis_outcome_parity(protocol, script):
    num_nodes, contacts, messages = script
    soa = run_script(protocol, num_nodes, contacts, messages,
                     reference=False)
    ref = run_script(protocol, num_nodes, contacts, messages,
                     reference=True)
    assert outcome_fingerprint(soa) == outcome_fingerprint(ref)
    # every router the reference ticks is accounted for exactly once by the
    # sweep: executed, resolved as a batched no-op, or provably asleep
    assert ref.routers_ticked == num_nodes * ref.updates
    assert ref.routers_skipped == ref.routers_batched == 0
    assert (soa.routers_ticked + soa.routers_batched
            + soa.routers_skipped) == ref.routers_ticked
    assert soa.routers_ticked <= ref.routers_ticked


# ------------------------------------------------- counter semantics
def test_stateless_empty_rows_batch_on_link_events():
    """direct/epidemic resolve empty-buffer link-event ticks in batch — the
    rows the rwp-100k CI smoke counts.  One contact, no traffic: both
    endpoints batch at link-up and link-down, sleep in between."""
    trace = make_trace([(1.0, 0, 1, True), (3.0, 0, 1, False)])
    simulator, world = build_trace_world(trace, protocol="direct",
                                        num_nodes=2)
    simulator.run(until=5.0)
    assert world.routers_ticked == 0
    assert world.routers_batched == 4
    total = world.routers_ticked + world.routers_skipped + world.routers_batched
    assert total == 2 * world.updates
    assert world.stats.routers_batched == world.routers_batched


def test_gated_rows_execute_on_link_events():
    """first-contact's empty-buffer update still consumes per-contact gates
    (is_first_evaluation), so event ticks run through Python."""
    trace = make_trace([(1.0, 0, 1, True), (3.0, 0, 1, False)])
    simulator, world = build_trace_world(trace, protocol="first-contact",
                                        num_nodes=2)
    simulator.run(until=5.0)
    assert world.routers_ticked == 4
    assert world.routers_batched == 0


def test_report_surfaces_counters_outside_canonical_payload():
    config = make_scenario("bench", {
        "mobility": "random_waypoint", "protocol": "direct",
        "num_nodes": 30, "sim_time": 120.0, "name": "soa-counters"})
    report = run_scenario(config)
    assert report.routers_batched > 0          # the CI smoke's assertion
    ticks = report.tick_phase_samples["routers"]
    assert (report.routers_ticked + report.routers_skipped
            + report.routers_batched) == 30 * ticks
    canonical = report.as_dict()
    for key in ("routers_ticked", "routers_skipped", "routers_batched"):
        assert key not in canonical
    timed = report.as_dict(include_timings=True)
    assert timed["routers_batched"] == report.routers_batched
    assert timed["routers_ticked"] == report.routers_ticked
    assert timed["routers_skipped"] == report.routers_skipped


# ------------------------------------------------- the store itself
def test_store_registration_order_growth_and_mirrors():
    simulator, world = build_trace_world(make_trace([]), protocol="epidemic",
                                         num_nodes=100)
    store = world.router_store
    assert len(store) == 100                    # grew past the initial 64
    for row, node in enumerate(world.nodes):
        assert store._row[node.node_id] == row  # registration order
        assert node.buffer._mirror_store is store
        assert node.buffer._mirror_row == row
    assert store._batchable[:100].all()
    assert not store._gated[:100].any()
    assert store._expiry[64:100].max() == float("inf")  # growth defaults
    with pytest.raises(ValueError):
        store.register(world.get_node(0))       # duplicate registration
    store.link_delta(999, 1000, 1)              # unknown ids: no-op


def test_buffer_mutations_mark_rows_dirty():
    simulator, world = build_trace_world(make_trace([]), protocol="epidemic",
                                         num_nodes=2)
    store = world.router_store
    store._dirty.clear()
    node = world.get_node(1)
    node.buffer.add(Message("m-dirty", 1, 0, 500, 0.0, ttl=9.0))
    assert store._dirty == {1}
    store._refresh_dirty()
    assert store._count[1] == 1
    assert store._occupancy[1] == 500
    assert store._expiry[1] == 9.0
    node.buffer.remove("m-dirty")
    store._refresh_dirty()
    assert store._count[1] == 0
    assert store._expiry[1] == float("inf")


def test_link_deltas_track_live_connections():
    trace = make_trace([(1.0, 0, 1, True), (4.0, 0, 1, False)])
    simulator, world = build_trace_world(trace, protocol="epidemic",
                                         num_nodes=3)
    store = world.router_store
    simulator.run(until=2.0)
    assert list(store._conns[:3]) == [1, 1, 0]
    simulator.run(until=5.0)
    assert list(store._conns[:3]) == [0, 0, 0]


def test_rebind_refreshes_router_columns():
    simulator, world = build_trace_world(make_trace([]), protocol="epidemic",
                                         num_nodes=2)
    store = world.router_store
    assert store._batchable[0] and store._idle_safe[0]
    node = world.get_node(0)
    node.router = None
    create_router("prophet").attach(node, world)
    assert not store._batchable[0]
    assert not store._idle_safe[0]              # prophet opts out of skipping
    assert store._fresh[0]


def test_fresh_bit_clears_on_first_executed_update():
    trace = make_trace([(1.0, 0, 1, True)])
    simulator, world = build_trace_world(trace, protocol="first-contact",
                                         num_nodes=2)
    store = world.router_store
    assert store._fresh[:2].all()
    simulator.run(until=2.0)                    # link event ticks both rows
    assert not store._fresh[:2].any()


def test_batch_contract_is_not_inherited():
    """A subclass overriding on_update must never ride its parent's no-op
    proof: supports_batch_update resets unless the subclass redeclares it."""
    assert SprayAndWaitRouter.supports_batch_update
    assert not SprayAndFocusRouter.supports_batch_update

    class Sub(EpidemicRouter):
        pass

    class Declared(EpidemicRouter):
        supports_batch_update = True

    assert not Sub.supports_batch_update
    assert Declared.supports_batch_update


def test_empty_store_sweep_is_a_noop():
    assert len(RouterStateStore()) == 0


# ------------------------------------------------- checkpoint / resume
def test_checkpoint_restores_store_and_buffer_mirrors():
    """A snapshot taken with buffered messages and a live link restores the
    store (rows, counts, mirrors) as ordinary state: the resumed run relays
    and delivers exactly as the uninterrupted one."""
    trace = make_contact_plan([(1.0, 4.0, 0, 1), (6.0, 9.0, 1, 2)])
    simulator, world = build_trace_world(trace, protocol="epidemic",
                                         num_nodes=3)
    inject_message(world, 0, 2, ttl=50.0)
    simulator.run(until=2.0)                    # replica relayed 0 -> 1
    blob = save_checkpoint_bytes(world)
    world.stop()
    restored = load_checkpoint_bytes(blob).world
    store = restored.router_store
    assert len(store) == 3
    for node in restored.nodes:
        assert node.buffer._mirror_store is store
        assert store._row[node.node_id] == node.buffer._mirror_row
    restored.simulator.run(until=60.0)
    assert restored.stats.delivered == 1
    restored.stop()


@pytest.mark.parametrize("protocol", ["first-contact", "spray-and-wait"])
def test_resume_equality_with_soa_sweep(protocol):
    """The resume-equality contract holds through the SoA sweep for the
    gated tier (per-contact gate state + fresh bits travel with the
    snapshot)."""
    config = ScenarioConfig.bench_scale(
        protocol=protocol, num_nodes=16, seed=3, sim_time=240.0)
    assert_resume_equality(config, checkpoint_times=[90.0])
