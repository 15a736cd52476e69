"""The resume-equality contract, exercised across the whole feature matrix.

``assert_resume_equality`` runs a scenario straight through, then replays it
with a full serialize → tear down → deserialize → resume cycle at each
checkpoint time and requires the canonical report bytes (metrics, counters,
per-protocol extras — everything but wall-clock timings) to match exactly.
Covered here: the four headline protocols and MaxProp, every admissible tick boundary of
a short run, the reference tick (repro.testing.reference), columnar and disabled
collectors, the sharded detector of a 1 000-node world, file trace replay,
and online community detection (CR with the Newman tracker).
"""

import pytest

from repro.experiments.builder import SHARDED_MIN_NODES, build_detector
from repro.experiments.catalog import make_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.testing import admissible_checkpoint_times, assert_resume_equality
from repro.world.sharded import ShardedConnectivity


def bench(protocol, **overrides):
    """A small-but-busy bus scenario: buffers churn, every phase runs."""
    return ScenarioConfig.bench_scale(
        protocol=protocol, num_nodes=16, seed=3, sim_time=360.0, **overrides)


@pytest.mark.parametrize("protocol", ["direct", "prophet", "eer", "cr",
                                      "maxprop"])
def test_resume_equality_headline_protocols(protocol):
    assert_resume_equality(bench(protocol), checkpoint_times=[120.0, 250.0])


def test_resume_equality_at_every_admissible_boundary():
    """Checkpoint/restore is invisible at *any* tick boundary, not just the
    convenient ones (strided to keep the suite fast; stride 7 is coprime to
    every periodic structure in the scenario)."""
    config = ScenarioConfig.bench_scale(
        protocol="epidemic", num_nodes=10, seed=5, sim_time=60.0,
        mobility="random_waypoint")
    times = admissible_checkpoint_times(config, stride=7)
    assert times[0] == config.update_interval  # the earliest boundary
    assert times[-1] > config.sim_time - 7 * config.update_interval
    assert_resume_equality(config, checkpoint_times=times)


def test_resume_equality_historical_flat_tick_off():
    assert_resume_equality(bench("epidemic"), checkpoint_times=[180.0],
                           reference=True)


@pytest.mark.parametrize("record_mode", ["columnar", "off"])
def test_resume_equality_collector_modes(record_mode):
    assert_resume_equality(bench("eer", keep_records=record_mode != "off"),
                           checkpoint_times=[180.0])


def test_resume_equality_sharded_detector():
    """A snapshot of a world whose detector fans over a thread pool restores
    in-process (the pool is dropped on save and lazily recreated) without
    perturbing the rebuild schedule."""
    config = ScenarioConfig.bench_scale(
        protocol="epidemic", num_nodes=SHARDED_MIN_NODES, seed=2,
        sim_time=30.0, mobility="random_waypoint")
    assert isinstance(build_detector(config), ShardedConnectivity)
    assert_resume_equality(config, checkpoint_times=[15.0])


def test_resume_equality_trace_replay():
    config = make_scenario("trace-csv", {"sim_time": 400.0, "seed": 7})
    assert_resume_equality(config, checkpoint_times=[150.0, 380.0])


def test_resume_equality_online_community_detection():
    """CR with the Newman tracker: detected communities, the MEMD cache and
    the tracker's incremental state all travel through the snapshot."""
    config = make_scenario("community-detect",
                           {"protocol": "cr-newman", "sim_time": 600.0})
    assert_resume_equality(config, checkpoint_times=[300.0])
