"""MovementEngine: batch advance must be bit-identical to the follower loop.

The engine's contract (see repro/mobility/engine.py) is that enabling batch
movement changes *cost only*: every position the simulation observes is the
same 64-bit float pattern the per-follower ``move`` loop would have written.
These tests drive mirrored follower populations — one through the engine,
one through the plain loop — from identical RNG streams and require exact
array equality at every tick, across waypoint changes, pauses, teleports,
halted models, mixed batchable/non-batchable populations and mid-run
registration.
"""

import random

import numpy as np

from repro.mobility.base import MovementModel, PathFollower
from repro.mobility.engine import MovementEngine
from repro.mobility.hcmm import HomeCellMovement
from repro.mobility.community import CommunityLayout
from repro.mobility.path import Path
from repro.mobility.random_waypoint import RandomWaypointMovement
from repro.mobility.stationary import StationaryMovement
from repro.world.positions import PositionStore


def make_population(model_factory, count, seed, batch):
    """A (store, engine, followers) triple with one follower per model."""
    store = PositionStore()
    engine = MovementEngine(store, batch=batch)
    followers = []
    for index in range(count):
        follower = PathFollower(model_factory(index),
                                random.Random(seed * 10_000 + index))
        row = store.add(follower.position)
        follower.bind(store.row(row))
        engine.register(follower)
        followers.append(follower)
    return store, engine, followers


def rwp_factory(index):
    return RandomWaypointMovement(area=(300.0, 200.0), min_speed=0.5,
                                  max_speed=2.0, wait=(0.0, 5.0))


def assert_bit_identical_trajectories(model_factory, count=30, ticks=400,
                                      dt=1.0, seed=3):
    batch_store, batch_engine, _ = make_population(
        model_factory, count, seed, batch=True)
    loop_store, loop_engine, _ = make_population(
        model_factory, count, seed, batch=False)
    now = 0.0
    for _ in range(ticks):
        now += dt
        batch_engine.advance(dt, now)
        loop_engine.advance(dt, now)
        batch = batch_store.view()
        loop = loop_store.view()
        assert np.array_equal(batch, loop), (
            f"positions diverged at t={now}: "
            f"{(batch != loop).any(axis=1).nonzero()[0].tolist()}")
    return batch_engine, loop_engine


def test_random_waypoint_batch_is_bit_identical():
    batch_engine, _ = assert_bit_identical_trajectories(rwp_factory)
    # the point of the engine: almost every node-tick takes the fast path
    assert batch_engine.fast_moves > batch_engine.loop_moves * 5


def test_hcmm_batch_is_bit_identical():
    layout = CommunityLayout(area=(300.0, 200.0), num_communities=4)

    def factory(index):
        return HomeCellMovement(layout, index % 4, roaming_probability=0.3,
                                wait=(0.0, 10.0), rehome_interval=120.0)

    batch_engine, _ = assert_bit_identical_trajectories(factory)
    assert batch_engine.fast_moves > 0


def test_fractional_dt_batch_is_bit_identical():
    assert_bit_identical_trajectories(rwp_factory, count=12, ticks=600,
                                      dt=0.1, seed=11)


def test_mixed_population_and_stationary_nodes():
    def factory(index):
        if index % 3 == 0:
            return StationaryMovement((float(index), 0.0))
        return rwp_factory(index)

    batch_engine, _ = assert_bit_identical_trajectories(factory, count=18)
    # stationary models halt and must be skipped thereafter
    assert batch_engine.fast_moves > 0


def test_non_batchable_model_stays_on_the_loop():
    class LoopOnly(MovementModel):
        def initial_position(self, rng):
            return np.array([0.0, 0.0])

        def next_path(self, position, now, rng):
            destination = (position[0] + rng.uniform(1.0, 5.0), position[1])
            return Path([position, destination], speed=1.0, wait_time=1.0)

    store, engine, followers = make_population(
        lambda index: LoopOnly(), 4, seed=5, batch=True)
    for tick in range(20):
        engine.advance(1.0, float(tick + 1))
    assert engine.fast_moves == 0
    assert engine.loop_moves > 0
    assert not followers[0].model.supports_batch_advance


def test_teleport_invalidates_the_batch_mirror():
    seed, count = 9, 10
    batch_store, batch_engine, batch_followers = make_population(
        rwp_factory, count, seed, batch=True)
    loop_store, loop_engine, loop_followers = make_population(
        rwp_factory, count, seed, batch=False)
    now = 0.0
    for tick in range(300):
        now += 1.0
        if tick in (40, 41, 150):  # mid-run jumps, including back-to-back
            batch_followers[3].teleport((10.0, 20.0))
            loop_followers[3].teleport((10.0, 20.0))
        batch_engine.advance(1.0, now)
        loop_engine.advance(1.0, now)
        assert np.array_equal(batch_store.view(), loop_store.view()), tick


def test_mid_run_registration_grows_the_engine():
    seed = 21
    batch_store, batch_engine, _ = make_population(rwp_factory, 6, seed,
                                                   batch=True)
    loop_store, loop_engine, _ = make_population(rwp_factory, 6, seed,
                                                 batch=False)
    now = 0.0
    for tick in range(200):
        now += 1.0
        if tick == 50:
            for engine, store in ((batch_engine, batch_store),
                                  (loop_engine, loop_store)):
                follower = PathFollower(rwp_factory(6),
                                        random.Random(seed * 10_000 + 6))
                row = store.add(follower.position)
                follower.bind(store.row(row))
                engine.register(follower)
        batch_engine.advance(1.0, now)
        loop_engine.advance(1.0, now)
        assert np.array_equal(batch_store.view(), loop_store.view()), tick
    assert batch_engine.num_followers == 7


def test_world_batch_movement_toggle_is_invisible_in_results():
    # the production world batches movement, the reference tick runs the
    # per-follower loop; covered end-to-end in test_world_sharded, here:
    # the engine objects
    from repro.experiments.builder import build_scenario
    from repro.experiments.catalog import make_scenario

    config = make_scenario("bench", {"mobility": "random_waypoint",
                                     "num_nodes": 12, "sim_time": 60.0})
    batch = build_scenario(config)
    batch.run()
    assert batch.world.movement.batch_enabled
    assert batch.world.movement.fast_moves > 0
    loop = build_scenario(config, reference=True)
    loop.run()
    assert not loop.world.movement.batch_enabled
    assert loop.world.movement.fast_moves == 0
    assert np.array_equal(batch.world.positions(), loop.world.positions())
