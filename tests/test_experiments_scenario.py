"""Unit tests for scenario configuration."""

import pytest

from repro.experiments.scenario import MobilityKind, ScenarioConfig


def test_paper_scale_matches_section_v_settings():
    config = ScenarioConfig.paper_scale(protocol="eer", num_nodes=240)
    assert config.num_nodes == 240
    assert config.sim_time == 10_000.0
    assert config.update_interval == 0.1
    assert config.transmit_range == 10.0
    assert config.transmit_speed == pytest.approx(250_000.0)
    assert config.buffer_capacity == 1024 * 1024
    assert config.message_size == 25 * 1024
    assert config.message_ttl == 20 * 60.0
    assert config.message_copies == 10
    assert config.mobility is MobilityKind.BUS
    assert config.min_speed == 2.7 and config.max_speed == 13.9


def test_bench_scale_is_smaller_but_same_structure():
    paper = ScenarioConfig.paper_scale()
    bench = ScenarioConfig.bench_scale()
    assert bench.sim_time < paper.sim_time
    assert bench.update_interval > paper.update_interval
    assert bench.map_width <= paper.map_width
    assert bench.mobility is MobilityKind.BUS
    assert bench.message_copies == paper.message_copies


def test_overrides_and_with_overrides():
    config = ScenarioConfig.bench_scale(protocol="cr", num_nodes=60, seed=9,
                                        message_copies=6)
    assert config.protocol == "cr"
    assert config.message_copies == 6
    changed = config.with_overrides(num_nodes=120, router_params={"alpha": 0.5})
    assert changed.num_nodes == 120
    assert changed.router_params == {"alpha": 0.5}
    # the original is untouched (dataclasses.replace semantics)
    assert config.num_nodes == 60
    assert config.router_params == {}


def test_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(num_nodes=1)
    with pytest.raises(ValueError):
        ScenarioConfig(sim_time=0)
    with pytest.raises(ValueError):
        ScenarioConfig(update_interval=0)
    with pytest.raises(ValueError):
        ScenarioConfig(message_copies=0)
    with pytest.raises(ValueError):
        ScenarioConfig(num_communities=0)


def test_scenario_config_validates_world_fields():
    with pytest.raises(ValueError):
        ScenarioConfig.bench_scale(num_nodes=1)
    with pytest.raises(ValueError):
        ScenarioConfig.bench_scale(update_interval=0.0)
    # every world gets the one connectivity detector, so neither it, its
    # slack nor a worker count is a scenario field
    for field, value in (("detector", "sharded"), ("rebuild_margin", 0.5),
                         ("world_workers", 2)):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ScenarioConfig.bench_scale(**{field: value})


def test_mobility_accepts_string_values():
    config = ScenarioConfig(mobility="random_waypoint")
    assert config.mobility is MobilityKind.RANDOM_WAYPOINT


def test_effective_traffic_end_defaults_to_sim_time():
    config = ScenarioConfig(sim_time=500.0)
    assert config.effective_traffic_end == 500.0
    explicit = ScenarioConfig(sim_time=500.0, traffic_end=300.0)
    assert explicit.effective_traffic_end == 300.0


def test_trace_mobility_validation():
    config = ScenarioConfig(mobility="trace", trace_generator="periodic")
    assert config.mobility is MobilityKind.TRACE
    with pytest.raises(ValueError):
        ScenarioConfig(mobility="trace")  # needs a trace source
    with pytest.raises(ValueError):
        ScenarioConfig(mobility="trace", trace_path="t.csv",
                       trace_generator="periodic")  # ambiguous source
    with pytest.raises(ValueError):
        ScenarioConfig(trace_path="t.csv")  # trace field without TRACE


def test_apply_overrides_routes_router_params():
    from repro.experiments.scenario import apply_overrides

    config = ScenarioConfig(protocol="eer")
    changed = apply_overrides(config, {"router.alpha": 0.4, "num_nodes": 10})
    assert changed.router_params == {"alpha": 0.4}
    assert changed.num_nodes == 10
    assert config.router_params == {}


def test_traffic_model_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(traffic_model="fractal")
    with pytest.raises(ValueError):
        ScenarioConfig(traffic_model="poisson")  # needs a rate
    with pytest.raises(ValueError):
        ScenarioConfig(traffic_model="bursty", traffic_rate=-1.0)
    with pytest.raises(ValueError):
        # uniform draws from message_interval; a rate would be silently dead
        ScenarioConfig(traffic_model="uniform", traffic_rate=2.0)
    with pytest.raises(ValueError):
        ScenarioConfig(traffic_model="bursty", traffic_rate=1.0,
                       traffic_burst_size=0)
    with pytest.raises(ValueError):
        ScenarioConfig(traffic_model="bursty", traffic_rate=1.0,
                       traffic_burst_spacing=-0.5)
    config = ScenarioConfig(traffic_model="poisson", traffic_rate=2.0)
    assert config.traffic_rate == 2.0


def test_new_defaults_keep_scenario_identity_stable():
    """The traffic fields default to values that drop out of the identity
    payload, so store keys written before they existed keep resolving."""
    payload = ScenarioConfig(name="x").identity_payload()
    for field in ("traffic_model", "traffic_rate", "traffic_burst_size",
                  "traffic_burst_spacing"):
        assert field not in payload
