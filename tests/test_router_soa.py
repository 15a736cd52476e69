"""The struct-of-arrays router sweep: bit-exactness, counters, fallbacks.

The production routers phase is one vectorized evaluation of the idle
router wake predicate plus a batch resolution of provably no-op updates
(``Router.supports_batch_update``); the reference tick
(:mod:`repro.testing.reference`) calls ``Router.update`` on every router.
The contract: **same decisions, same bytes, just faster**.  Pinned here:

* full-scenario canonical reports are byte-identical to the reference for
  all eight batch-capable protocols, CR's detected community modes and the
  non-batchable fallbacks (prophet, spray-and-focus);
* hypothesis-generated contact/traffic scripts — messages arriving at
  random ticks, mid-contact included, over fast and slow links and roomy
  and evicting buffers — agree outcome-for-outcome with the reference, and
  the sweep's ticked/batched/skipped split always accounts for every router
  the reference ticks;
* a loaded batchable row (epidemic, EER) sleeps through a quiet contact
  and wakes exactly on a buffer change, a due TTL or a router rebind — its
  own or a live peer's; a subclass that does not redeclare the batch
  contract runs every tick;
* the quiet-tick guard never passes a tick on which the full masks would
  wake a row, and its summaries match the columns whenever no link event
  is pending;
* the batched/ticked/skipped counters sum to ``nodes × updates``, surface on
  :class:`SimulationReport` and stay out of the canonical serialisation;
* the store itself: registration order, growth, dirty-buffer mirrors,
  link-count deltas, router rebinds, the non-inherited batch contract, and
  checkpoint/resume of all of it.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint import load_checkpoint_bytes, save_checkpoint_bytes
from repro.core.eer import EERRouter
from repro.experiments.builder import build_scenario
from repro.experiments.catalog import make_scenario
from repro.experiments.runner import finalize_report, run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.net.message import Message
from repro.routing.epidemic import EpidemicRouter
from repro.routing.registry import create_router
from repro.routing.soa import RouterStateStore
from repro.routing.spray_and_focus import SprayAndFocusRouter
from repro.routing.spray_and_wait import SprayAndWaitRouter
from repro.testing import (
    assert_resume_equality,
    canonical_report_bytes,
    inject_message,
    make_contact_plan,
    make_trace,
    run_report,
)
from repro.traces.replay import build_trace_world

#: the batch-capable protocols (Router.supports_batch_update = True)
BATCHABLE = ["direct", "epidemic", "maxprop", "first-contact",
             "spray-and-wait", "ebr", "eer", "cr"]


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


@pytest.mark.parametrize("mode", ["kclique", "newman"])
def test_soa_report_byte_identical_for_detected_cr(mode):
    """CR's detected community modes query the world-shared provider, whose
    re-detection runs on a staleness budget, only behind the per-meeting
    gate: sleeping CR rows leave the detection schedule unchanged."""
    overrides = {"router.community_mode": mode,
                 "router.detection_staleness": 30.0}
    assert scenario_payload("cr", reference=False, **overrides) \
        == scenario_payload("cr", reference=True, **overrides)


@pytest.mark.parametrize("protocol", ["prophet", "spray-and-focus"])
def test_soa_report_byte_identical_for_fallback_routers(protocol):
    """Non-batchable routers run the exact per-router loop under SoA:
    prophet opts out of skipping entirely (idle_skip_safe=False) and
    spray-and-focus must not inherit spray-and-wait's batch capability."""
    assert scenario_payload(protocol, reference=False) \
        == scenario_payload(protocol, reference=True)


# ------------------------------------------------- hypothesis parity
#: link speeds: every transfer completes within a tick, or a 1 400 B replica
#: stays queued for two ticks (deliverables in transit across sleeping ticks)
FAST_LINK, SLOW_LINK = 2_000_000 / 8, 700.0
#: buffers: roomy, or two replicas at most (evictions and re-adds)
ROOMY_BUFFER, SMALL_BUFFER = 1024 * 1024, 2_500


@st.composite
def contact_script(draw):
    """A randomized contact plan plus traffic over a handful of nodes.

    Half of the messages arrive at an endpoint of a drawn contact, right
    after one of its ticks from link-up to link-down (injections fire after
    the world update of the same instant); the rest at a random tick.
    """
    num_nodes = draw(st.integers(2, 5))
    contacts = draw(st.lists(
        st.tuples(st.integers(0, 20),               # start tick
                  st.integers(1, 8),                # duration in ticks
                  st.integers(0, num_nodes - 1),    # endpoint a
                  st.integers(0, num_nodes - 1)),   # endpoint b
        min_size=1, max_size=12))
    messages = []
    for _ in range(draw(st.integers(1, 6))):
        start, duration, a, b = draw(st.sampled_from(contacts))
        if draw(st.booleans()):                     # mid-contact arrival
            source = draw(st.sampled_from((a, b)))
            tick = start + draw(st.integers(0, duration))
        else:
            source = draw(st.integers(0, num_nodes - 1))
            tick = draw(st.integers(0, 28))
        messages.append((source,
                         draw(st.integers(0, num_nodes - 1)),  # destination
                         draw(st.integers(4, 40)),             # ttl in ticks
                         draw(st.integers(1, 4)),              # spray copies
                         tick,                                 # arrival tick
                         draw(st.sampled_from((600, 1_000, 1_400)))))  # bytes
    speed = draw(st.sampled_from((FAST_LINK, SLOW_LINK)))
    return num_nodes, contacts, messages, speed


def run_script(protocol, num_nodes, contacts, messages, speed, *, reference,
               buffer_capacity=ROOMY_BUFFER):
    plan = make_contact_plan(
        [(float(s), float(s + d), a, b) for s, d, a, b in contacts if a != b])
    # two communities, so CR runs both its inter- and intra-community steps
    simulator, world = build_trace_world(plan, protocol=protocol,
                                         num_nodes=num_nodes,
                                         buffer_capacity=buffer_capacity,
                                         transmit_speed=speed,
                                         communities={node: node % 2 for node
                                                      in range(num_nodes)},
                                         reference=reference)
    for index, (source, destination, ttl, copies, tick, size) in \
            enumerate(messages):
        if source == destination:
            continue
        schedule_injection(simulator, world, float(tick), source, destination,
                           ttl=float(ttl), copies=copies, size=size,
                           message_id=f"M{index}")
    horizon = max(s + d for s, d, _, _ in contacts) + 45.0
    simulator.run(until=horizon)
    return world


def schedule_injection(simulator, world, at, source, destination, **fields):
    """Create a message at *source* at simulated time *at*: after that
    instant's world update (priority 20, like the traffic generators)."""
    simulator.schedule_at(at, lambda sim: inject_message(
        world, source, destination, now=sim.now, **fields), priority=20)


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


def assert_script_parity(protocol, script, **world):
    num_nodes = script[0]
    soa = run_script(protocol, *script, reference=False, **world)
    ref = run_script(protocol, *script, reference=True, **world)
    assert outcome_fingerprint(soa) == outcome_fingerprint(ref)
    # every router the reference ticks is accounted for exactly once by the
    # sweep: executed, resolved as a batched no-op, or provably asleep
    assert ref.stats.routers_ticked == num_nodes * ref.updates
    assert ref.stats.routers_skipped == ref.stats.routers_batched == 0
    assert (soa.stats.routers_ticked + soa.stats.routers_batched
            + soa.stats.routers_skipped) == ref.stats.routers_ticked
    assert soa.stats.routers_ticked <= ref.stats.routers_ticked


@pytest.mark.parametrize("protocol", BATCHABLE)
@given(script=contact_script())
@settings(max_examples=25, deadline=None)
def test_hypothesis_outcome_parity(protocol, script):
    assert_script_parity(protocol, script)


@pytest.mark.parametrize("protocol", BATCHABLE)
@given(script=contact_script())
@settings(max_examples=25, deadline=None)
def test_hypothesis_outcome_parity_small_buffers(protocol, script):
    """Two-replica buffers: arrivals evict, and evicted replicas come back
    on later contacts."""
    assert_script_parity(protocol, script, buffer_capacity=SMALL_BUFFER)


#: routers that override a link hook (the world dispatches link events to
#: them) and routers that do not (their rows only wake)
LISTENERS = ["eer", "cr", "ebr", "maxprop", "prophet", "spray-and-focus"]
NON_LISTENERS = ["direct", "epidemic", "spray-and-wait", "first-contact"]


@st.composite
def mixed_script(draw):
    """A contact script whose nodes run different protocols: at least one
    link listener and one router without link hooks share the world."""
    script = draw(contact_script())
    num_nodes = script[0]
    protocols = [draw(st.sampled_from(LISTENERS)),
                 draw(st.sampled_from(NON_LISTENERS))]
    protocols += [draw(st.sampled_from(LISTENERS + NON_LISTENERS))
                  for _ in range(num_nodes - 2)]
    protocols = draw(st.permutations(protocols))
    if num_nodes == 2 and draw(st.booleans()):
        # two nodes: a third sits out every contact with a listener
        protocols.append(draw(st.sampled_from(LISTENERS)))
        script = (3,) + script[1:]
    return protocols, script


def run_mixed_script(protocols, script, *, reference):
    """:func:`run_script` with node *i* running ``protocols[i]``."""
    from repro.routing.active import ContactAwareRouter
    from repro.testing.reference import ContactHistoryReference

    num_nodes, contacts, messages, speed = script
    plan = make_contact_plan(
        [(float(s), float(s + d), a, b) for s, d, a, b in contacts if a != b])
    simulator, world = build_trace_world(plan, protocol="direct",
                                         num_nodes=num_nodes,
                                         transmit_speed=speed,
                                         communities={node: node % 2 for node
                                                      in range(num_nodes)},
                                         reference=reference)
    for node_id, protocol in enumerate(protocols):
        router = swap_router(world, node_id, create_router(protocol))
        if reference and isinstance(router, ContactAwareRouter):
            # as ReferenceTick.add_nodes does at registration
            router.history = ContactHistoryReference(router.node_id,
                                                     router.window_size)
    for index, (source, destination, ttl, copies, tick, size) in \
            enumerate(messages):
        if source == destination:
            continue
        schedule_injection(simulator, world, float(tick), source, destination,
                           ttl=float(ttl), copies=copies, size=size,
                           message_id=f"M{index}")
    simulator.run(until=max(s + d for s, d, _, _ in contacts) + 45.0)
    return world


@given(mixed=mixed_script())
@settings(max_examples=100, deadline=None)
def test_hypothesis_outcome_parity_mixed_listeners(mixed):
    """Listening and non-listening routers in one world: only listeners
    receive link events, yet every outcome matches the reference world,
    which hands every router every event."""
    protocols, script = mixed
    soa = run_mixed_script(protocols, script, reference=False)
    ref = run_mixed_script(protocols, script, reference=True)
    assert outcome_fingerprint(soa) == outcome_fingerprint(ref)
    assert (soa.stats.routers_ticked + soa.stats.routers_batched
            + soa.stats.routers_skipped) == ref.stats.routers_ticked


# ------------------------------------------------- counter semantics
def test_stateless_empty_rows_batch_on_link_events():
    """direct/epidemic resolve empty-buffer link-event ticks in batch — the
    rows the rwp-100k CI smoke counts.  One contact, no traffic: both
    endpoints batch at link-up and link-down, sleep in between."""
    trace = make_trace([(1.0, 0, 1, True), (3.0, 0, 1, False)])
    simulator, world = build_trace_world(trace, protocol="direct",
                                        num_nodes=2)
    simulator.run(until=5.0)
    assert world.stats.routers_ticked == 0
    assert world.stats.routers_batched == 4
    total = world.stats.routers_ticked + world.stats.routers_skipped + world.stats.routers_batched
    assert total == 2 * world.updates


def test_gated_rows_execute_on_link_events():
    """first-contact's empty-buffer update still consumes per-contact gates
    (is_first_evaluation), so event ticks run through Python."""
    trace = make_trace([(1.0, 0, 1, True), (3.0, 0, 1, False)])
    simulator, world = build_trace_world(trace, protocol="first-contact",
                                        num_nodes=2)
    simulator.run(until=5.0)
    assert world.stats.routers_ticked == 4
    assert world.stats.routers_batched == 0


def record_updates(router, log=None):
    """Log the simulated time of every executed ``update`` of *router*
    (wrapped on the instance, so the class keeps its batch contract)."""
    log = [] if log is None else log
    update = router.update

    def logged(now):
        log.append(now)
        update(now)

    router.update = logged
    return log


def quiet_contact_world(protocol="epidemic", *, reference=False, **message):
    """Nodes 0 and 1 in contact over [1, 40) s; node 2 never met.  Node 0
    holds one message for node 2, so every replica stays buffered."""
    plan = make_contact_plan([(1.0, 40.0, 0, 1)])
    simulator, world = build_trace_world(plan, protocol=protocol,
                                         num_nodes=3, reference=reference)
    inject_message(world, 0, 2, **message)
    return simulator, world


def test_loaded_stateless_row_sleeps_through_a_quiet_contact():
    """Link-up runs the loaded row once; with nothing new to offer it then
    sleeps for the rest of the contact (the replica's arrival wakes the
    peer once)."""
    simulator, world = quiet_contact_world()
    sender = record_updates(world.get_node(0).router)
    receiver = record_updates(world.get_node(1).router)
    simulator.run(until=30.0)
    assert sender == [1.0]
    assert receiver == [2.0]
    assert world.stats.routers_ticked == 2
    assert world.get_node(1).buffer.message_ids() == ["M1"]


def test_mid_contact_arrival_wakes_the_row_once():
    simulator, world = quiet_contact_world()
    sender = record_updates(world.get_node(0).router)
    receiver = record_updates(world.get_node(1).router)
    schedule_injection(simulator, world, 9.5, 0, 2, message_id="M2")
    simulator.run(until=30.0)
    assert sender == [1.0, 10.0]
    assert receiver == [2.0, 11.0]
    assert sorted(world.get_node(1).buffer.message_ids()) == ["M1", "M2"]


def test_due_ttl_wakes_a_sleeping_row():
    simulator, world = quiet_contact_world(ttl=15.0)
    sender = record_updates(world.get_node(0).router)
    receiver = record_updates(world.get_node(1).router)
    simulator.run(until=30.0)
    assert sender == [1.0, 15.0]
    assert receiver == [2.0, 15.0]
    assert [(r.node, r.time, r.reason)
            for r in world.stats.dropped_records] \
        == [(0, 15.0, "expired"), (1, 15.0, "expired")]


def test_router_rebind_wakes_a_sleeping_row():
    """A direct-delivery node holding a relayable message sleeps through
    the contact; swapping in an epidemic router mid-contact (no link event,
    no buffer change) must still flood it — the fresh bit wakes the row."""
    simulator, world = quiet_contact_world(protocol="direct")
    simulator.run(until=9.5)
    assert world.stats.relayed == 0
    node = world.get_node(0)
    node.router = None
    EpidemicRouter().attach(node, world)
    assert world.router_store._fresh[0]
    sender = record_updates(node.router)
    simulator.run(until=30.0)
    assert sender == [10.0]
    assert world.stats.relayed == 1
    assert world.get_node(1).buffer.message_ids() == ["M1"]


def swap_router(world, node_id, router):
    node = world.get_node(node_id)
    node.router = None
    router.attach(node, world)
    return router


def eer_quiet_contact(*, reference, ttl=10_000.0, arrival=None,
                      rebind_at=None, peer_swap_at=None):
    """The quiet contact under EER, node 0 holding four replicas for node 2:
    the link-up tick splits them with node 1, and nothing else is due.

    Optionally a second message arrives at node 0 mid-contact, node 0's
    router is replaced mid-contact, or node 1 starts as a direct-delivery
    router and becomes an EER router mid-contact.  Returns the run's
    outcome fingerprint and node 0's executed update times.
    """
    simulator, world = quiet_contact_world("eer", reference=reference,
                                           ttl=ttl, copies=4)
    if peer_swap_at is not None:
        swap_router(world, 1, create_router("direct"))
        simulator.schedule_at(peer_swap_at, lambda sim: swap_router(
            world, 1, EERRouter()), priority=20)
    if arrival is not None:
        schedule_injection(simulator, world, arrival, 0, 2, copies=4,
                           message_id="M2")
    sender = record_updates(world.get_node(0).router)
    if rebind_at is not None:
        def rebind(sim):
            sender.append(("rebind", sim.now))
            record_updates(swap_router(world, 0, EERRouter()), sender)
        simulator.schedule_at(rebind_at, rebind, priority=20)
    simulator.run(until=30.0)
    return outcome_fingerprint(world), sender, world


def assert_eer_quiet_contact(expected_sender, **kwargs):
    soa, sender, world = eer_quiet_contact(reference=False, **kwargs)
    ref, _, _ = eer_quiet_contact(reference=True, **kwargs)
    assert soa == ref
    assert sender == expected_sender
    return world


def test_loaded_eer_row_sleeps_through_a_quiet_contact():
    """The link-up tick splits the replicas (node 1's copy arrives and
    wakes it once); past the consumed gate the loaded row sleeps."""
    world = assert_eer_quiet_contact([1.0])
    assert world.stats.routers_ticked == 3            # node 0 at 1, node 1 at 1, 2
    assert world.get_node(1).buffer.message_ids() == ["M1"]


def test_mid_contact_arrival_wakes_a_loaded_eer_row_once():
    """The arrival changes the buffer: the row runs once, its gate already
    consumed, so the new message waits for the next meeting."""
    world = assert_eer_quiet_contact([1.0, 10.0], arrival=9.5)
    assert world.get_node(1).buffer.message_ids() == ["M1"]


def test_due_ttl_wakes_a_sleeping_eer_row():
    world = assert_eer_quiet_contact([1.0, 15.0], ttl=15.0)
    assert [(r.node, r.time, r.reason)
            for r in world.stats.dropped_records] \
        == [(0, 15.0, "expired"), (1, 15.0, "expired")]


def test_router_rebind_wakes_a_sleeping_eer_row():
    """A new router has unconsumed gates: its fresh row runs at the next
    tick and evaluates the live contact as a new meeting."""
    assert_eer_quiet_contact([1.0, ("rebind", 9.5), 10.0], rebind_at=9.5)


def test_peer_rebind_wakes_a_sleeping_eer_row():
    """EER evaluates only EER peers, so the link-up tick left the contact
    with a direct-delivery peer unevaluated; when the peer becomes an EER
    router the sleeping row must run and evaluate it, as the reference
    loop does on its next tick."""
    world = assert_eer_quiet_contact([1.0, 10.0], peer_swap_at=9.5)
    assert world.stats.relayed == 1


def listener_rebind_contact(*, reference):
    """Nodes 0 and 1 in contact over [1, 40) s, node 1 an EER router
    throughout.  Node 0 starts epidemic and floods M1; it becomes an EER
    router at 9.5 s, when M2 (four replicas) arrives, and an epidemic
    router again at 19.5 s, when M3 arrives.  Returns the outcome, node
    0's side of the connection (side a) right before and right after each
    rebind, and the world."""
    simulator, world = quiet_contact_world(reference=reference, copies=4)
    swap_router(world, 1, EERRouter())
    seen = []

    def rebind(router, message_id):
        def fire(sim):
            conn = world.connection_between(0, 1)
            considered = conn._considered_a
            before = (None if considered is None else set(considered),
                      conn._evaluated)
            inject_message(world, 0, 2, copies=4, now=sim.now,
                           message_id=message_id)
            swap_router(world, 0, router)
            seen.append((before, conn._considered_a, conn._evaluated))
        return fire

    simulator.schedule_at(9.5, rebind(EERRouter(), "M2"), priority=20)
    simulator.schedule_at(19.5, rebind(EpidemicRouter(), "M3"), priority=20)
    simulator.run(until=30.0)
    return outcome_fingerprint(world), seen, world


def test_mid_contact_rebind_between_listening_and_silent_routers():
    """epidemic -> EER -> epidemic on a live contact: the rebound node's
    side of the connection starts empty each time (the peer's side is
    kept), and the outcome equals the reference world's."""
    soa, seen, world = listener_rebind_contact(reference=False)
    ref, ref_seen, _ = listener_rebind_contact(reference=True)
    assert soa == ref
    assert seen == ref_seen
    (first_before, first_set, first_bits), \
        (second_before, second_set, second_bits) = seen
    # the epidemic router had considered M1; the EER router starts clean
    assert first_before == ({"M1"}, 0)
    assert first_set is None and first_bits == 0
    # the EER router consumed its gate at 10 s, and so did its EER peer
    # once node 0 became an EER router; only node 0's bit is dropped
    assert second_before == (None, 3)
    assert second_set is None and second_bits == 2
    node_1 = world.get_node(1)
    assert {"M1", "M2", "M3"} <= set(node_1.buffer.message_ids())
    assert node_1.buffer.get("M2").copies > 1   # EER split the replicas


def test_rebound_epidemic_router_re_offers_what_the_peer_lost():
    """A new router starts with no per-contact state: after an epidemic ->
    epidemic rebind the message the peer dropped is offered again, which
    the old router (whose considered set holds it) never does."""
    outcomes = []
    for rebind in (False, True):
        for reference in (False, True):
            simulator, world = quiet_contact_world(reference=reference)
            simulator.schedule_at(14.5, lambda sim: world.get_node(1).buffer
                                  .remove("M1"), priority=20)
            if rebind:
                simulator.schedule_at(19.5, lambda sim: swap_router(
                    world, 0, EpidemicRouter()), priority=20)
            simulator.run(until=30.0)
            outcomes.append(outcome_fingerprint(world))
            held = world.get_node(1).buffer.message_ids()
            assert held == (["M1"] if rebind else [])
    assert outcomes[0] == outcomes[1]
    assert outcomes[2] == outcomes[3]


def test_subclass_without_batch_contract_runs_every_tick():
    class Logging(EpidemicRouter):
        pass

    simulator, world = quiet_contact_world()
    node = world.get_node(0)
    node.router = None
    Logging().attach(node, world)
    sender = record_updates(node.router)
    simulator.run(until=30.0)
    assert sender == [float(tick) for tick in range(1, 31)]


def test_report_surfaces_counters_outside_canonical_payload():
    config = make_scenario("bench", {
        "mobility": "random_waypoint", "protocol": "direct",
        "num_nodes": 30, "sim_time": 120.0, "name": "soa-counters"})
    report = run_scenario(config)
    assert report.routers_batched > 0          # the CI smoke's assertion
    ticks = report.telemetry["tick_phase_samples"]["routers"]
    assert (report.routers_ticked + report.routers_skipped
            + report.routers_batched) == 30 * ticks
    canonical = report.as_dict()
    for key in ("routers_ticked", "routers_skipped", "routers_batched"):
        assert key not in canonical
        assert report.telemetry[key] == getattr(report, key)


# ------------------------------------------------- the quiet-tick guard
def sleeping_loaded_rows(store):
    """Loaded rows on a live link that the next sweep lets sleep: batchable,
    not fresh, buffer unchanged."""
    rows = slice(0, len(store))
    mask = ((store._count[rows] > 0) & (store._conns[rows] > 0)
            & store._batchable[rows] & ~store._fresh[rows])
    mask[list(store._dirty)] = False
    return mask


def assert_summaries(store):
    """The quiet-tick summaries equal their definitions over the columns."""
    rows = slice(0, len(store))
    assert store.listeners == np.count_nonzero(store._listens[rows])
    assert store._unsafe == np.count_nonzero(~store._idle_safe[rows])
    assert store._forced == np.count_nonzero(store._forced_mask(rows))
    assert store._next_due <= store._expiry[rows].min()


@pytest.mark.parametrize("protocol", ["eer", "epidemic"])
def test_quiet_guard_agrees_with_the_full_masks(protocol):
    """On every tick of a parity scenario without link events the guard's
    summaries equal their definitions over the columns, and whenever the
    guard passes a tick the full masks wake no row.  The run stays
    byte-identical to the reference."""
    config = make_scenario("bench", {
        "mobility": "random_waypoint", "protocol": protocol,
        "num_nodes": 40, "sim_time": 300.0, "name": f"soa-pin-{protocol}"})
    built = build_scenario(config)
    world = built.world
    store = world.router_store
    sweep = store.sweep
    quiet_ticks = []
    asleep_on_links = []

    def audited(world, now):
        if not len(store._event_rows):
            # a link change leaves the forced count for the sweep it forces
            assert_summaries(store)
        if store.quiet(world, now):
            awake, _ = store._wake_masks(world, now, [])
            assert not awake.any()
            quiet_ticks.append(now)
            asleep_on_links.append(sleeping_loaded_rows(store).any())
        return sweep(world, now)

    store.sweep = audited
    try:
        built.run()
    finally:
        world.stop()
    assert quiet_ticks
    assert any(asleep_on_links)         # loaded rows slept on live links
    assert canonical_report_bytes(finalize_report(built.stats, config)) \
        == canonical_report_bytes(run_report(config, reference=True))


def test_quiet_guard_holds_off_for_forced_rows_and_due_ttls():
    """A non-batchable loaded row on a live link and a due TTL each keep
    the guard from passing; once neither holds, quiet ticks skip every
    row."""
    simulator, world = quiet_contact_world(ttl=15.0)
    store = world.router_store
    simulator.run(until=5.0)
    assert store.quiet(world, 5.5)
    assert not store.quiet(world, 15.0)         # M1's TTL is due
    # a rebind makes the row and its loaded live peer fresh
    swap_router(world, 0, create_router("prophet"))
    assert (store._unsafe, store._forced) == (1, 2)
    assert not store.quiet(world, 5.5)
    swap_router(world, 0, EpidemicRouter())
    assert (store._unsafe, store._forced) == (0, 2)
    assert store.sweep(world, 6.0) == (2, 0, 1)     # both fresh rows run
    assert store._forced == 0
    assert store.quiet(world, 7.0)
    assert store.sweep(world, 7.0) == (0, 0, 3)


def test_registration_counts_loaded_live_rows_as_forced():
    """Rows registered while loaded and on a live link start fresh, so they
    count as forced until they run; prophet rows count as unsafe."""
    simulator, world = quiet_contact_world(ttl=15.0)
    simulator.run(until=5.0)
    swap_router(world, 2, create_router("prophet"))
    store = RouterStateStore()
    store.register_many(world.nodes[:2])
    store.register(world.get_node(2))
    assert_summaries(store)
    assert (store._unsafe, store._forced, store._next_due) == (1, 2, 15.0)


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
    assert world._rows_of(np.array([[5, 99], [0, 64]])).tolist() \
        == [[5, 99], [0, 64]]
    assert store.listeners == 0                 # epidemic has no link hook


def test_buffer_mutations_mark_rows_dirty():
    simulator, world = build_trace_world(make_trace([]), protocol="epidemic",
                                         num_nodes=2)
    store = world.router_store
    store._dirty.clear()
    node = world.get_node(1)
    node.buffer.add(Message("m-dirty", 1, 0, 500, 0.0, ttl=9.0))
    assert store._dirty == {1}
    assert store._refresh_dirty() == [1]        # this sweep's changed rows
    assert not store._dirty
    assert store._count[1] == 1
    assert store._expiry[1] == 9.0
    node.buffer.remove("m-dirty")
    assert store._refresh_dirty() == [1]
    assert store._count[1] == 0
    assert store._expiry[1] == float("inf")
    assert store._refresh_dirty() == []


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


def test_checkpoint_while_loaded_eer_rows_sleep_on_live_links():
    """A snapshot taken while loaded EER rows sleep on live links resumes
    byte-identically; the quiet-tick summaries are not pickled but derived
    from the restored columns."""
    config = ScenarioConfig.bench_scale(
        protocol="eer", num_nodes=16, seed=3, sim_time=240.0)
    at = 157.0
    built = build_scenario(config)
    try:
        built.simulator.run(until=at)
        store = built.world.router_store
        assert sleeping_loaded_rows(store).any()
        state = store.__getstate__()
        assert not set(RouterStateStore._SUMMARIES) & set(state)
        blob = save_checkpoint_bytes(built.world, config=config)
    finally:
        built.world.stop()
    restored = load_checkpoint_bytes(blob).world
    copy = restored.router_store
    rows = slice(0, len(copy))
    assert (copy._unsafe, copy._forced) == (store._unsafe, store._forced)
    assert store._next_due <= copy._next_due == copy._expiry[rows].min()
    restored.stop()
    assert_resume_equality(config, checkpoint_times=[at])


def test_checkpoint_while_live_contacts_hold_considered_sets():
    """Per-contact state travels with the connections: a snapshot taken
    while live epidemic contacts hold considered sets restores them and
    resumes byte-identically."""
    config = ScenarioConfig.bench_scale(
        protocol="epidemic", num_nodes=16, seed=3, sim_time=240.0)
    at = 157.0
    built = build_scenario(config)
    try:
        built.simulator.run(until=at)
        held = {key: (conn._considered_a, conn._considered_b)
                for key, conn in built.world._connections.items()
                if conn._considered_a or conn._considered_b}
        assert held
        blob = save_checkpoint_bytes(built.world, config=config)
    finally:
        built.world.stop()
    restored = load_checkpoint_bytes(blob).world
    assert {key: (conn._considered_a, conn._considered_b)
            for key, conn in restored._connections.items()
            if conn._considered_a or conn._considered_b} == held
    restored.stop()
    assert_resume_equality(config, checkpoint_times=[at])


@pytest.mark.parametrize("protocol", ["first-contact", "spray-and-wait"])
def test_resume_equality_with_soa_sweep(protocol):
    """The resume-equality contract holds through the SoA sweep for the
    gated tier (per-contact gate state + fresh bits travel with the
    snapshot)."""
    config = ScenarioConfig.bench_scale(
        protocol=protocol, num_nodes=16, seed=3, sim_time=240.0)
    assert_resume_equality(config, checkpoint_times=[90.0])
