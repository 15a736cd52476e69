"""Unit tests for the message event generator."""

import pytest

from repro.net.generators import MessageEventGenerator, TrafficSpec
from repro.traces.contact_trace import ContactTrace
from repro.traces.replay import build_trace_world


def make_world(num_nodes=4, seed=3):
    simulator, world = build_trace_world(ContactTrace([]), protocol="direct",
                                         seed=seed, num_nodes=num_nodes)
    return simulator, world


def test_traffic_spec_validation():
    with pytest.raises(ValueError):
        TrafficSpec(interval=(0.0, 10.0))
    with pytest.raises(ValueError):
        TrafficSpec(interval=(10.0, 5.0))
    with pytest.raises(ValueError):
        TrafficSpec(size=0)
    with pytest.raises(ValueError):
        TrafficSpec(ttl=0)
    with pytest.raises(ValueError):
        TrafficSpec(copies=0)


def test_generates_messages_at_configured_rate():
    simulator, world = make_world()
    spec = TrafficSpec(interval=(10.0, 10.0), size=500, ttl=300.0, copies=3)
    generator = MessageEventGenerator(simulator, world, spec)
    simulator.run(until=100.0)
    # first creation at t=10, then every 10 s up to t=100
    assert generator.messages_created == 10
    assert world.stats.created == 10


def test_messages_have_distinct_endpoints_and_requested_attributes():
    simulator, world = make_world()
    spec = TrafficSpec(interval=(5.0, 15.0), size=777, ttl=120.0, copies=6, prefix="T")
    MessageEventGenerator(simulator, world, spec)
    simulator.run(until=200.0)
    records = world.stats.created_records
    assert records
    for record in records:
        assert record.source != record.destination
        assert record.size == 777
        assert record.copies == 6
        assert record.message_id.startswith("T")


def test_generation_window_respected():
    simulator, world = make_world()
    spec = TrafficSpec(interval=(10.0, 10.0), start=50.0, end=100.0)
    MessageEventGenerator(simulator, world, spec)
    simulator.run(until=300.0)
    times = [record.time for record in world.stats.created_records]
    assert times
    assert min(times) >= 50.0
    assert max(times) <= 100.0


def test_restricted_source_and_destination_pools():
    simulator, world = make_world(num_nodes=6)
    spec = TrafficSpec(interval=(10.0, 10.0), sources=[0, 1], destinations=[4, 5])
    MessageEventGenerator(simulator, world, spec)
    simulator.run(until=100.0)
    for record in world.stats.created_records:
        assert record.source in (0, 1)
        assert record.destination in (4, 5)


def test_same_seed_reproduces_traffic():
    def run(seed):
        simulator, world = make_world(seed=seed)
        MessageEventGenerator(simulator, world, TrafficSpec(interval=(5.0, 20.0)))
        simulator.run(until=150.0)
        return [(r.time, r.source, r.destination) for r in world.stats.created_records]

    assert run(7) == run(7)
    assert run(7) != run(8)


# ------------------------------------------------------------ arrival models
def test_traffic_model_validation():
    with pytest.raises(ValueError):
        TrafficSpec(model="fractal")
    with pytest.raises(ValueError):
        TrafficSpec(model="poisson")  # needs a rate
    with pytest.raises(ValueError):
        TrafficSpec(model="bursty", rate=0.0)
    with pytest.raises(ValueError):
        TrafficSpec(model="bursty", rate=1.0, burst_size=0)
    with pytest.raises(ValueError):
        TrafficSpec(model="bursty", rate=1.0, burst_spacing=-1.0)
    # uniform ignores the burst knobs but must have no rate
    assert TrafficSpec().model == "uniform"


def test_poisson_arrivals_mean_rate_and_determinism():
    def run(seed):
        simulator, world = make_world(seed=seed)
        MessageEventGenerator(simulator, world,
                              TrafficSpec(model="poisson", rate=0.5))
        simulator.run(until=2_000.0)
        return [r.time for r in world.stats.created_records]

    times = run(7)
    assert times == run(7)
    assert times != run(8)
    # ~1000 arrivals expected at rate 0.5 over 2000 s; 20% tolerance is
    # far beyond Poisson noise at n=1000
    assert 800 <= len(times) <= 1200
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert min(gaps) > 0  # strictly increasing, no batching


def test_bursty_arrivals_cluster_in_bursts():
    simulator, world = make_world()
    spec = TrafficSpec(model="bursty", rate=1.0, burst_size=5,
                       burst_spacing=0.1)
    MessageEventGenerator(simulator, world, spec)
    simulator.run(until=500.0)
    times = [r.time for r in world.stats.created_records]
    assert len(times) > 50
    gaps = [round(b - a, 9) for a, b in zip(times, times[1:])]
    intra = [g for g in gaps if g == 0.1]
    # bursts of 5 mean ~4/5 of the gaps are the fixed intra-burst spacing
    assert len(intra) >= len(gaps) // 2
    # and the burst gaps keep the long-run rate near the requested one
    assert 0.5 <= len(times) / 500.0 <= 1.5


def test_bursty_zero_spacing_emits_same_tick_bursts():
    simulator, world = make_world()
    spec = TrafficSpec(model="bursty", rate=2.0, burst_size=3)
    MessageEventGenerator(simulator, world, spec)
    simulator.run(until=100.0)
    times = [r.time for r in world.stats.created_records]
    # every burst lands its 3 messages on the same timestamp
    from collections import Counter
    sizes = Counter(times).values()
    assert max(sizes) == 3


def test_builder_wires_traffic_model_through_config():
    from repro.experiments.builder import build_scenario
    from repro.experiments.scenario import ScenarioConfig

    config = ScenarioConfig.bench_scale(
        protocol="epidemic", num_nodes=10, sim_time=60.0,
        mobility="random_waypoint", name="traffic-wire",
        traffic_model="poisson", traffic_rate=3.0,
        traffic_burst_size=4, traffic_burst_spacing=0.5)
    built = build_scenario(config)
    try:
        spec = built.traffic.spec
        assert spec.model == "poisson"
        assert spec.rate == 3.0
        assert spec.burst_size == 4
        assert spec.burst_spacing == 0.5
    finally:
        built.world.stop()


def test_catalog_traffic_scenario_saturates_links():
    from repro.experiments.catalog import make_scenario
    from repro.experiments.runner import run_scenario

    config = make_scenario("rwp-10k-traffic",
                           overrides=dict(num_nodes=400, sim_time=60.0,
                                          map_width=1200.0, map_height=900.0))
    assert config.traffic_model == "poisson"
    assert config.traffic_rate == 2.0
    # 1 MiB payloads over a 62.5 kB/s radio: any completed transfer took
    # ~17 consecutive ticks of link time, i.e. links really saturate
    assert config.message_size / config.transmit_speed > 10.0
    report = run_scenario(config)
    assert report.transfers_completed > 0
    assert report.bytes_delivered \
        == report.transfers_completed * config.message_size
