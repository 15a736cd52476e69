"""MovementEngine: batch advance must be bit-identical to the follower loop.

The engine's contract (see repro/mobility/engine.py) is that the batch
kernel changes *cost only*: every position the simulation observes is the
same 64-bit float pattern the per-follower ``move`` loop would have written.
These tests drive mirrored follower populations — one through the engine,
one through the reference world's plain loop
(:class:`repro.testing.reference.ReferenceMovement`) — from identical RNG
streams and require exact array equality at every tick, across waypoint
changes, pauses, teleports, halted models, mixed moving/stationary
populations, a model defined outside the package, mid-run registration and
the paper's bus lines.
"""

import random

import numpy as np

from repro.mobility.base import MovementModel, PathFollower
from repro.mobility.engine import MovementEngine
from repro.mobility.hcmm import HomeCellMovement
from repro.mobility.community import CommunityLayout
from repro.mobility.map_generator import assign_districts, generate_downtown_map
from repro.mobility.map_route import (BusRoute, MapRouteMovement, at_point,
                                      generate_bus_routes)
from repro.mobility.path import Path
from repro.mobility.random_waypoint import RandomWaypointMovement
from repro.mobility.stationary import StationaryMovement
from repro.testing.reference import ReferenceMovement
from repro.world.positions import PositionStore


def make_population(model_factory, count, seed, batch):
    """A (store, engine, followers) triple with one follower per model.

    ``batch=False`` moves the population through the reference loop.
    """
    store = PositionStore()
    engine = MovementEngine(store) if batch else ReferenceMovement()
    followers = []
    for index in range(count):
        follower = PathFollower(model_factory(index),
                                random.Random(seed * 10_000 + index))
        row = store.add(follower.position)
        follower.bind(store.row(row))
        engine.register_many([follower])
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


def test_one_shared_random_waypoint_model_moves_like_one_per_node():
    # the builder gives every node of a random-waypoint world one model
    shared = rwp_factory(0)
    frames = {}
    for name, factory in (("shared", lambda index: shared),
                          ("per-node", rwp_factory)):
        store, engine, _ = make_population(factory, 40, seed=5, batch=True)
        trace = []
        for tick in range(1, 301):
            engine.advance(1.0, float(tick))
            trace.append(store.view().copy())
        frames[name] = np.stack(trace)
    assert frames["shared"].tobytes() == frames["per-node"].tobytes()


def test_a_fresh_slot_refreshes_its_mirror_once_per_move():
    # a new slot already holds the FALLBACK values, so its first move
    # re-mirrors it once, after the move
    _, engine, _ = make_population(rwp_factory, 25, seed=1, batch=True)
    refreshed = []
    refresh = engine._refresh

    def counting(slot):
        refreshed.append(slot)
        refresh(slot)
    engine._refresh = counting
    assert engine.advance(1.0, 1.0) == (0, 25)
    assert sorted(refreshed) == list(range(25))


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


def test_custom_model_is_batched_bit_identically():
    # a model written outside the package gets the batch kernel too, and
    # moves bit-identically to the reference loop
    class Hops(MovementModel):
        def initial_position(self, rng):
            return np.array([0.0, 0.0])

        def next_path(self, position, now, rng):
            destination = (position[0] + rng.uniform(1.0, 5.0), position[1])
            return Path([position, destination], speed=1.0, wait_time=1.0)

    batch_engine, _ = assert_bit_identical_trajectories(
        lambda index: Hops(), count=4, ticks=60, seed=5)
    assert batch_engine.fast_moves > 0
    assert batch_engine.loop_moves > 0


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
                engine.register_many([follower])
        batch_engine.advance(1.0, now)
        loop_engine.advance(1.0, now)
        assert np.array_equal(batch_store.view(), loop_store.view()), tick
    assert batch_engine.num_followers == 7


def test_world_batch_movement_toggle_is_invisible_in_results():
    # the production world batches movement, the reference tick runs the
    # per-follower loop; covered end-to-end in test_reference_tick, here:
    # the engine objects
    from repro.experiments.builder import build_scenario
    from repro.experiments.catalog import make_scenario

    config = make_scenario("bench", {"mobility": "random_waypoint",
                                     "num_nodes": 12, "sim_time": 60.0})
    batch = build_scenario(config)
    batch.run()
    assert isinstance(batch.world.movement, MovementEngine)
    assert batch.world.movement.fast_moves > 0
    loop = build_scenario(config, reference=True)
    loop.run()
    assert isinstance(loop.world.movement, ReferenceMovement)
    assert loop.stats.moves_batched == 0
    assert loop.stats.moves_loop == 12 * loop.stats.tick_phase_samples["move"]
    assert np.array_equal(batch.world.positions(), loop.world.positions())


def test_engine_has_one_path():
    import inspect

    assert list(inspect.signature(MovementEngine).parameters) == ["positions"]
    assert not hasattr(MovementEngine(PositionStore()), "batch_enabled")


# --------------------------------------------------------------- bus lines
BUS_MAP = generate_downtown_map(width=1500, height=1200, spacing=300, seed=4)
BUS_ROUTES = generate_bus_routes(BUS_MAP, assign_districts(BUS_MAP, 3),
                                 lines_per_district=2, stops_per_line=4,
                                 express_lines=1, seed=5)


def bus_factory(stop_wait=(10.0, 30.0), start_stop=None, routes=BUS_ROUTES):
    def factory(index):
        return MapRouteMovement(routes[index % len(routes)],
                                stop_wait=stop_wait, start_stop=start_stop)
    return factory


def assert_on_the_kernel(model_factory, ticks, dt):
    """Every follower is attached to the engine, and the kernel moves them."""
    _, engine, followers = make_population(model_factory, 6, seed=1,
                                           batch=True)
    assert all(follower._engine is engine for follower in followers)
    for tick in range(ticks):
        engine.advance(dt, (tick + 1) * dt)
    assert engine.fast_moves > engine.loop_moves


def test_bus_lines_opt_into_the_kernel():
    assert_on_the_kernel(bus_factory(), ticks=300, dt=1.0)
    # every leg of these lines crosses several road segments
    assert any(len(BUS_ROUTES[0].leg(i)) > 2
               for i in range(BUS_ROUTES[0].num_stops))


def test_bus_batch_is_bit_identical_at_paper_ticks():
    batch_engine, _ = assert_bit_identical_trajectories(
        bus_factory(), count=14, ticks=3_000, dt=0.1, seed=2)
    assert batch_engine.fast_moves > batch_engine.loop_moves * 20


def test_bus_batch_is_bit_identical_at_one_second_ticks():
    batch_engine, _ = assert_bit_identical_trajectories(
        bus_factory(), count=14, ticks=1_500, dt=1.0, seed=3)
    assert batch_engine.fast_moves > batch_engine.loop_moves * 5


def test_bus_without_stop_pauses_is_bit_identical():
    for dt in (0.1, 1.0):
        assert_bit_identical_trajectories(
            bus_factory(stop_wait=(0.0, 0.0)), count=10, ticks=800, dt=dt,
            seed=4)


def test_bus_from_a_fixed_start_stop_is_bit_identical():
    assert_bit_identical_trajectories(
        bus_factory(start_stop=2), count=10, ticks=1_000, dt=0.1, seed=5)


def test_bus_route_with_a_repeated_stop_is_bit_identical():
    # a stop listed twice in a row makes a one-waypoint leg: no segment at
    # all, only the stop pause (and a zero-wait "leg" with stop_wait 0)
    stops = [0, BUS_MAP.num_vertices - 1, BUS_MAP.num_vertices - 1,
             BUS_MAP.num_vertices // 2]
    route = BusRoute(BUS_MAP, stops, name="repeat")
    assert route.leg(1) == [stops[1]]
    for stop_wait in ((0.0, 0.0), (1.0, 3.0)):
        for dt in (0.1, 1.0):
            assert_bit_identical_trajectories(
                bus_factory(stop_wait=stop_wait, routes=[route]), count=4,
                ticks=1_200, dt=dt, seed=6)


def test_bus_teleport_makes_the_drift_guard_prepend_the_position():
    seed, count, dt = 7, 8, 0.1
    batch_store, batch_engine, batch_followers = make_population(
        bus_factory(), count, seed, batch=True)
    loop_store, loop_engine, loop_followers = make_population(
        bus_factory(), count, seed, batch=False)
    stop = BUS_MAP.coordinates(BUS_ROUTES[2].stops[0])
    jumps = {
        300: (1.0, 2.0),                 # off the road: the leg gains a
        301: (5.0, 7.0),                 # first segment from here
        900: (float(stop[0]), float(stop[1]) + 1e-9),  # allclose, not equal
    }
    now = 0.0
    for tick in range(2_000):
        now += dt
        if tick in jumps:
            batch_followers[2].teleport(jumps[tick])
            loop_followers[2].teleport(jumps[tick])
        batch_engine.advance(dt, now)
        loop_engine.advance(dt, now)
        assert np.array_equal(batch_store.view(), loop_store.view()), tick
        if tick == 300:
            # the fresh leg starts at the teleport target, not at a stop
            path = batch_followers[2].path
            assert tuple(path.waypoints[0]) == jumps[300]
            assert len(path.waypoints) == \
                len(loop_followers[2].path.waypoints)
    assert batch_engine.fast_moves > 0


def test_leg_waypoint_cache_is_lazy_shared_and_not_pickled():
    import pickle

    route = BusRoute(BUS_MAP, [0, BUS_MAP.num_vertices - 1])
    assert route._leg_waypoints == {}
    first = route.leg_waypoints(0)
    again = route.leg_waypoints(2)          # index wraps around the loop
    assert first is not again               # callers get their own list
    assert all(a is b for a, b in zip(first, again))
    assert not first[0].flags.writeable
    expected = BUS_MAP.path_coordinates(route.leg(0))
    assert all(np.array_equal(a, b) for a, b in zip(first, expected))
    restored = pickle.loads(pickle.dumps(route))
    assert restored._leg_waypoints == {}
    assert all(np.array_equal(a, b)
               for a, b in zip(restored.leg_waypoints(0), expected))


# ------------------------------------------------------------- drift guard
TOLERANCE_CASES = [
    ((0.0, 0.0), (0.0, 0.0)),                    # origin, exact
    ((0.0, 0.0), (-0.0, 0.0)),                   # signed zero
    ((0.0, 0.0), (1e-9, 0.0)),                   # inside atol
    ((0.0, 0.0), (1.1e-8, 0.0)),                 # just outside atol
    ((1200.5, 830.25), (1200.5, 830.25)),        # exact
    ((1200.5, 830.25), (1200.5 + 1e-3, 830.25)),  # inside rtol
    ((1200.5, 830.25), (1200.5 + 1.3e-2, 830.25)),  # just outside rtol
    ((-450.0, -12.5), (-450.0, -12.5)),          # negative, exact
    ((-450.0, -12.5), (-450.0, -12.5 - 1e-7)),   # negative, inside
    ((-450.0, -12.5), (-450.0 + 1e-2, -12.5)),   # negative, outside
    ((3.0, 4.0), (4.0, 3.0)),                    # swapped coordinates
]


def test_drift_guard_decides_like_allclose():
    cases = list(TOLERANCE_CASES)
    rng = np.random.default_rng(17)
    for _ in range(300):
        point = rng.uniform(-5_000.0, 5_000.0, size=2)
        scale = 10.0 ** rng.integers(-12, 1)
        cases.append((point, point + rng.normal(0.0, scale, size=2)))
        cases.append((point, point.copy()))
    outcomes = set()
    for point, position in cases:
        point = np.asarray(point, dtype=float)
        position = np.asarray(position, dtype=float)
        expected = bool(np.allclose(point, position))
        assert at_point(point, position) is expected, (point, position)
        assert at_point(position, point) is bool(np.allclose(position, point))
        outcomes.add(expected)
    assert outcomes == {True, False}


# ------------------------------------------------------------- scenarios
def _bus_world_fast_share(name, overrides):
    from repro.experiments.builder import build_scenario
    from repro.experiments.catalog import make_scenario

    config = make_scenario(name, dict({"mobility": "bus"}, **overrides))
    built = build_scenario(config)
    try:
        built.run()
    finally:
        built.world.stop()
    movement = built.world.movement
    moves = movement.fast_moves + movement.loop_moves
    assert (built.stats.moves_batched, built.stats.moves_loop) \
        == (movement.fast_moves, movement.loop_moves)
    return movement.fast_moves / moves


def test_paper_scale_bus_world_moves_on_the_kernel():
    share = _bus_world_fast_share("paper", {"num_nodes": 12,
                                            "sim_time": 300.0})
    assert share >= 0.95, share


def test_bench_scale_bus_world_moves_on_the_kernel():
    share = _bus_world_fast_share("bench", {"num_nodes": 20,
                                            "sim_time": 1_500.0})
    assert share >= 0.95, share


# ------------------------------------------------- shortest-path pedestrians
SPM_MAP = generate_downtown_map(width=1200, height=900, spacing=150, seed=8)


def spm_factory(wait=(0.0, 20.0), districts=None):
    from repro.mobility.shortest_path import ShortestPathMapBasedMovement

    by_district = {}
    if districts:
        for vertex, district in assign_districts(SPM_MAP, districts).items():
            by_district.setdefault(district, []).append(vertex)

    def factory(index):
        allowed = by_district.get(index % districts) if districts else None
        return ShortestPathMapBasedMovement(SPM_MAP, min_speed=0.8,
                                            max_speed=1.4, wait=wait,
                                            allowed_vertices=allowed)
    return factory


def test_shortest_path_walkers_opt_into_the_kernel():
    assert_on_the_kernel(spm_factory(), ticks=300, dt=1.0)


def test_shortest_path_batch_is_bit_identical_at_paper_ticks():
    batch_engine, _ = assert_bit_identical_trajectories(
        spm_factory(), count=12, ticks=3_000, dt=0.1, seed=21)
    assert batch_engine.fast_moves > batch_engine.loop_moves * 20


def test_shortest_path_batch_is_bit_identical_at_one_second_ticks():
    batch_engine, _ = assert_bit_identical_trajectories(
        spm_factory(), count=12, ticks=1_500, dt=1.0, seed=22)
    assert batch_engine.fast_moves > batch_engine.loop_moves * 5


def test_shortest_path_without_pauses_is_bit_identical():
    for dt in (0.1, 1.0):
        assert_bit_identical_trajectories(
            spm_factory(wait=(0.0, 0.0)), count=10, ticks=800, dt=dt,
            seed=23)


def test_shortest_path_within_districts_is_bit_identical():
    # trips restricted to one district's vertices still cross the others
    assert_bit_identical_trajectories(
        spm_factory(districts=3), count=9, ticks=1_200, dt=0.5, seed=24)


def test_shortest_path_teleport_is_bit_identical():
    seed, count, dt = 25, 6, 0.1
    batch_store, batch_engine, batch_followers = make_population(
        spm_factory(), count, seed, batch=True)
    loop_store, loop_engine, loop_followers = make_population(
        spm_factory(), count, seed, batch=False)
    now = 0.0
    for tick in range(1_500):
        now += dt
        if tick == 400:
            # off the road: the next trip starts from here
            batch_followers[1].teleport((3.0, 4.0))
            loop_followers[1].teleport((3.0, 4.0))
        batch_engine.advance(dt, now)
        loop_engine.advance(dt, now)
        assert np.array_equal(batch_store.view(), loop_store.view()), tick
    assert batch_engine.fast_moves > 0
