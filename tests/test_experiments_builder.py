"""Unit tests for the scenario builder."""

import pytest

from repro.core.cr import CommunityRouter
from repro.core.eer import EERRouter
from repro.contacts.history import ContactHistory
from repro.experiments.builder import build_scenario
from repro.experiments.scenario import MobilityKind, ScenarioConfig
from repro.world.connectivity import KDTreeConnectivity


def tiny_config(**overrides):
    base = ScenarioConfig.bench_scale(num_nodes=12, sim_time=200.0)
    return base.with_overrides(**overrides) if overrides else base


def test_bus_scenario_builds_routes_and_communities():
    built = build_scenario(tiny_config(protocol="cr", num_communities=4))
    assert built.world.num_nodes == 12
    assert built.roadmap is not None
    assert built.routes
    # every node has a community in 0..3 (express buses included)
    communities = {built.world.community_of(n) for n in built.world.node_ids()}
    assert communities <= {0, 1, 2, 3}
    assert all(built.world.community_of(n) is not None for n in built.world.node_ids())
    # routers are the requested protocol with the configured parameters
    assert all(isinstance(node.router, CommunityRouter) for node in built.world.nodes)


@pytest.mark.parametrize("num_nodes", [999, 1_000])
def test_every_world_size_gets_the_one_detector(num_nodes):
    config = tiny_config(mobility=MobilityKind.RANDOM_WAYPOINT,
                         num_nodes=num_nodes, sim_time=1.0)
    built = build_scenario(config)
    try:
        assert type(built.world.detector) is KDTreeConnectivity
        assert type(built.world.nodes[0].router.history) is ContactHistory
    finally:
        built.world.stop()
    # the reference world runs the same detector, and its contact-aware
    # routers record into the naive history
    reference = build_scenario(config, reference=True)
    try:
        assert type(reference.world.detector) is KDTreeConnectivity
        history = reference.world.nodes[0].router.history
        assert type(history).__name__ == "ContactHistoryReference"
    finally:
        reference.world.stop()


def test_router_params_are_forwarded():
    built = build_scenario(tiny_config(protocol="eer",
                                       router_params={"alpha": 0.5}))
    router = built.world.nodes[0].router
    assert isinstance(router, EERRouter)
    assert router.alpha == 0.5


def test_interface_and_buffer_settings_applied():
    built = build_scenario(tiny_config(transmit_range=25.0,
                                       buffer_capacity=512 * 1024))
    node = built.world.nodes[0]
    assert node.interface.transmit_range == 25.0
    assert node.buffer.capacity == 512 * 1024


@pytest.mark.parametrize("mobility", [MobilityKind.COMMUNITY,
                                      MobilityKind.RANDOM_WAYPOINT,
                                      MobilityKind.SHORTEST_PATH])
def test_other_mobility_kinds_build_and_run(mobility):
    built = build_scenario(tiny_config(mobility=mobility, protocol="epidemic",
                                       sim_time=100.0))
    end = built.run()
    assert end == 100.0
    assert built.world.updates > 0


def test_run_produces_traffic_and_contacts():
    built = build_scenario(tiny_config(protocol="epidemic", sim_time=300.0,
                                       message_interval=(20.0, 30.0)))
    built.run()
    assert built.stats.created >= 5
    assert built.traffic.messages_created == built.stats.created


def test_same_seed_reproduces_results():
    def run_once():
        built = build_scenario(tiny_config(protocol="spray-and-wait", seed=5,
                                           sim_time=400.0))
        built.run()
        return (built.stats.created, built.stats.delivered, built.stats.relayed,
                built.stats.contacts)

    assert run_once() == run_once()


def test_different_seed_changes_results():
    def run_once(seed):
        built = build_scenario(tiny_config(protocol="spray-and-wait", seed=seed,
                                           sim_time=400.0))
        built.run()
        return (built.stats.created, built.stats.delivered, built.stats.relayed,
                built.stats.contacts)

    assert run_once(1) != run_once(2)


def test_build_trace_scenario_replays_through_the_world():
    from repro.experiments.scenario import MobilityKind
    from repro.traces.replay import TraceReplayWorld

    config = ScenarioConfig(
        mobility=MobilityKind.TRACE, trace_generator="periodic",
        trace_params={"period_range": (60.0, 120.0)},
        protocol="epidemic", num_nodes=8, sim_time=400.0,
        message_interval=(40.0, 60.0))
    built = build_scenario(config)
    assert isinstance(built.world, TraceReplayWorld)
    assert built.roadmap is None and built.routes is None
    built.run()
    # the replayed contacts and the recorded statistics agree
    assert built.stats.contacts > 0
    assert built.trace is not None
    assert built.stats.contacts <= len(built.trace.contacts())
