"""The cyclic collector's scope: paused while a world is built or restored,
the heap frozen while it runs, and the caller's collector state restored
either way."""

import gc
import sys
import weakref

import pytest

from repro import checkpoint
from repro.checkpoint import load_checkpoint_bytes, save_checkpoint_bytes
from repro.experiments import builder
from repro.experiments.builder import build_scenario
from repro.experiments.catalog import make_scenario
from repro.sim import _collector
from repro.sim.engine import Simulator


def small_config(**overrides):
    params = {"num_nodes": 12, "sim_time": 60.0}
    params.update(overrides)
    return make_scenario("bench", params)


@pytest.fixture
def collector_state():
    """Leave the collector enabled and unfrozen, whatever a test did."""
    enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if gc.get_freeze_count() and not frozen:
        gc.unfreeze()


def failing_router(name, **params):
    raise RuntimeError("router construction failed")


@pytest.mark.parametrize("enabled", [True, False])
def test_build_restores_the_collector_when_it_returns(collector_state,
                                                      monkeypatch, enabled):
    if not enabled:
        gc.disable()
    seen = []
    original = builder.create_router

    def spy(name, **params):
        seen.append(gc.isenabled())
        return original(name, **params)

    monkeypatch.setattr(builder, "create_router", spy)
    built = build_scenario(small_config())
    built.world.stop()
    assert seen and not any(seen)  # paused while the world was assembled
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_build_restores_the_collector_when_it_raises(collector_state,
                                                     monkeypatch, enabled):
    if not enabled:
        gc.disable()
    monkeypatch.setattr(builder, "create_router", failing_router)
    with pytest.raises(RuntimeError, match="router construction failed"):
        build_scenario(small_config())
    assert gc.isenabled() is enabled


def test_run_freezes_the_heap_and_unfreezes_it(collector_state):
    assert gc.get_freeze_count() == 0
    simulator = Simulator(seed=1, end_time=10.0)
    during = []
    simulator.schedule(1.0, lambda sim: during.append(gc.get_freeze_count()))
    simulator.run()
    assert during and during[0] > 0
    assert gc.get_freeze_count() == 0


def test_run_unfreezes_the_heap_when_an_event_raises(collector_state):
    simulator = Simulator(seed=1, end_time=10.0)

    def explode(sim):
        raise ValueError("event failed")

    simulator.schedule(1.0, explode)
    with pytest.raises(ValueError, match="event failed"):
        simulator.run()
    assert gc.get_freeze_count() == 0
    assert simulator.run() == 10.0  # the simulator is still usable


def test_run_leaves_a_callers_frozen_set_alone(collector_state):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        simulator = Simulator(seed=1, end_time=10.0)
        during = []
        simulator.schedule(
            1.0, lambda sim: during.append(gc.get_freeze_count()))
        simulator.run()
        assert during == [frozen]  # nothing re-frozen on top
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_a_run_and_discarded_world_is_collectable(collector_state):
    built = build_scenario(small_config(protocol="eer"))
    built.run()
    built.world.stop()
    world_ref = weakref.ref(built.world)
    del built
    gc.collect()
    assert world_ref() is None


def full_collections():
    return gc.get_stats()[-1]["collections"]


def test_the_next_build_frees_a_discarded_world_once_the_heap_grew(
        collector_state, monkeypatch):
    # no explicit gc.collect(): a process that runs cell after cell must
    # not keep (and re-freeze) every finished world
    built = build_scenario(small_config(seed=1))
    built.run()
    built.world.stop()
    world_ref = weakref.ref(built.world)
    del built
    # as if the heap had grown past the trigger since the last collection
    monkeypatch.setattr(_collector, "_blocks_after_collect", 1)
    build_scenario(small_config(seed=2)).world.stop()
    assert world_ref() is None
    assert _collector._blocks_after_collect > 1  # re-based on the new heap


def test_builds_do_not_collect_while_the_heap_is_steady(collector_state,
                                                        monkeypatch):
    monkeypatch.setattr(_collector, "_blocks_after_collect",
                        sys.getallocatedblocks())
    before = full_collections()
    for seed in (1, 2, 3):
        built = build_scenario(small_config(seed=seed))
        built.world.stop()
        del built
    assert full_collections() == before


@pytest.mark.parametrize("enabled", [True, False])
def test_checkpoint_restore_pauses_and_restores_the_collector(
        collector_state, monkeypatch, enabled):
    built = build_scenario(small_config())
    built.simulator.run(until=20.0)
    data = save_checkpoint_bytes(built.world)
    built.world.stop()
    seen = []

    class Spy(checkpoint._StateUnpickler):
        def load(self):
            seen.append(gc.isenabled())
            return super().load()

    monkeypatch.setattr(checkpoint, "_StateUnpickler", Spy)
    if not enabled:
        gc.disable()
    restored = load_checkpoint_bytes(data)
    restored.world.stop()
    assert seen == [False]  # unpickled with the collector paused
    assert gc.isenabled() is enabled
