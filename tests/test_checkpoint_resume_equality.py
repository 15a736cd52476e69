"""The resume-equality contract, exercised across the whole feature matrix.

``assert_resume_equality`` runs a scenario straight through, then replays it
with a full serialize → tear down → deserialize → resume cycle at each
checkpoint time and requires the canonical report bytes (metrics, counters,
per-protocol extras) and the counter telemetry to match exactly; only the
wall-clock meters may differ.
Covered here: the four headline protocols and MaxProp, every admissible tick boundary of
a short run, the reference tick (repro.testing.reference), columnar and disabled
collectors, a 1 000-node world snapshotted while its detector holds a
candidate cache, file trace replay,
online community detection (CR with the Newman tracker), and a snapshot
that holds stdlib streams in all three ``LazyRandom`` stages.
"""

import pytest

from repro.checkpoint import load_checkpoint_bytes, save_checkpoint_bytes
from repro.experiments.builder import build_scenario
from repro.experiments.catalog import make_scenario
from repro.experiments.runner import finalize_report
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.collector import COUNTER_METERS
from repro.sim.rng import PREFETCH
from repro.testing import (
    admissible_checkpoint_times,
    assert_resume_equality,
    canonical_report_bytes,
    run_report,
)


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


def rebuild_schedule(world, ticks):
    """The detector's rebuild count after each of the next *ticks* ticks."""
    schedule = []
    for _ in range(ticks):
        world.simulator.run(until=world.simulator.now + world.update_interval)
        schedule.append(world.detector.rebuilds)
    return schedule


def test_resume_equality_with_a_live_candidate_cache():
    """A 1 000-node world snapshotted while its detector holds a candidate
    cache resumes to the straight run's outcome, and the restored detector
    keeps the straight run's rebuild schedule: the snapshot's next tick
    reuses the cache instead of rebuilding it."""
    config = ScenarioConfig.bench_scale(
        protocol="epidemic", num_nodes=1_000, seed=2, sim_time=30.0,
        mobility="random_waypoint")
    at, ticks = 15.0, 14
    assert_resume_equality(config, checkpoint_times=[at])

    straight = build_scenario(config)
    try:
        straight.simulator.run(until=at)
        before = straight.world.detector.rebuilds
        expected = rebuild_schedule(straight.world, ticks)
    finally:
        straight.world.stop()
    assert expected[0] == before  # the first tick after the snapshot reuses
    assert expected[-1] > before  # and a later one rebuilds

    built = build_scenario(config)
    try:
        built.simulator.run(until=at)
        assert len(built.world.detector._cand_i) > 0  # the cache is live
        blob = save_checkpoint_bytes(built.world, config=config)
    finally:
        built.world.stop()
    world = load_checkpoint_bytes(blob).world
    try:
        assert world.detector.rebuilds == before
        assert rebuild_schedule(world, ticks) == expected
    finally:
        world.stop()


def test_resume_equality_with_streams_in_every_stage():
    """A snapshot taken while some stdlib streams are unseeded, some hold
    their prefetched draws and some a materialized generator resumes to the
    straight run's report, and every stream restores in its stage and goes
    on drawing the values it would have drawn."""
    # a small map and short waits: most nodes are past their prefetch by
    # the snapshot, a few still inside it
    config = ScenarioConfig.bench_scale(
        protocol="epidemic", num_nodes=12, seed=6, sim_time=300.0,
        mobility="random_waypoint", map_width=400.0, map_height=400.0,
        stop_wait=(0.0, 30.0))
    at = 120.0
    assert_resume_equality(config, checkpoint_times=[at])

    built = build_scenario(config)
    try:
        built.simulator.run(until=at)
        streams = built.simulator.random
        streams.python("spare")  # handed out, never drawn from
        stages = {name: gen.stage
                  for name, gen in streams._python_streams.items()}
        assert set(stages.values()) == {"unseeded", "prefetched",
                                        "materialized"}
        blob = save_checkpoint_bytes(built.world, config=config)
        expected = {name: [gen.random() for _ in range(2 * PREFETCH)]
                    for name, gen in streams._python_streams.items()}
    finally:
        built.world.stop()
    world = load_checkpoint_bytes(blob).world
    try:
        restored = world.simulator.random._python_streams
        assert {name: gen.stage for name, gen in restored.items()} == stages
        assert {name: [gen.random() for _ in range(2 * PREFETCH)]
                for name, gen in restored.items()} == expected
    finally:
        world.stop()


def test_resume_equality_trace_replay():
    config = make_scenario("trace-csv", {"sim_time": 400.0, "seed": 7})
    assert_resume_equality(config, checkpoint_times=[150.0, 380.0])


def test_resume_equality_online_community_detection():
    """CR with the Newman tracker: detected communities, the MEMD cache and
    the tracker's incremental state all travel through the snapshot."""
    config = make_scenario("community-detect",
                           {"protocol": "cr-newman", "sim_time": 600.0})
    assert_resume_equality(config, checkpoint_times=[300.0])


def test_restored_collector_without_a_meter_counts_it_from_zero():
    """A snapshot whose collector lacks a scalar meter (as one taken before
    the meter existed would) restores and resumes to the straight run's
    outcome, and reports that meter counted from 0 at the restore; every
    other counter meter resumes where it stopped."""
    config = bench("eer")
    straight = run_report(config)
    built = build_scenario(config)
    try:
        built.simulator.run(until=180.0)
        at_save = built.stats.routers_skipped
        del built.stats.routers_skipped
        blob = save_checkpoint_bytes(built.world, config=config)
    finally:
        built.world.stop()
    restored = load_checkpoint_bytes(blob)
    assert restored.world.stats.routers_skipped == 0
    try:
        restored.world.simulator.run(until=config.sim_time)
    finally:
        restored.world.stop()
    resumed = finalize_report(restored.world.stats, config)
    assert canonical_report_bytes(resumed) == canonical_report_bytes(straight)
    assert 0 < at_save < straight.routers_skipped
    assert resumed.routers_skipped == straight.routers_skipped - at_save
    for name in COUNTER_METERS:
        if name != "routers_skipped":
            assert resumed.telemetry[name] == straight.telemetry[name], name
