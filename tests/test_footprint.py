"""Bytes per node: what every node of a large world holds.

A world's memory grows with its node count, so the per-node objects are
kept small: nodes, path followers and message buffers are slotted, a path
keeps its waypoints once as float pairs, and every node of a
random-waypoint world shares one stateless movement model.  The footprint
test builds its world in a *fresh* interpreter: a process that has already
built a world can hide an instance ``__dict__`` that a first build
materialises, and ``peak_rss_mb`` moves by 1-2 MB with allocator layout
alone, so the count is live ``tracemalloc`` bytes per node instead.
"""

import json
import random
import subprocess
import sys
from pathlib import Path as FilePath

import numpy as np

from repro.experiments.builder import build_scenario
from repro.experiments.catalog import make_scenario
from repro.experiments.scenario import MobilityKind, ScenarioConfig
from repro.mobility.path import Path
from repro.mobility.random_waypoint import RandomWaypointMovement
from repro.mobility.stationary import StationaryMovement
from repro.world.node import DTNNode

SRC = str(FilePath(__file__).resolve().parent.parent / "src")

#: live tracemalloc bytes per node of a fresh 2 000-node rwp world after one
#: tick.  Measured 5 089 B on CPython 3.11.7 (6 618 B before the per-node
#: objects were slotted and the model shared; 2 560 B of it is each node's
#: Mersenne Twister state); the ceiling leaves a 10 % margin.
BYTES_PER_NODE_CEILING = 5_600

_FOOTPRINT_CHILD = """
import json, sys, tracemalloc
sys.path.insert(0, {src!r})
from repro.experiments.builder import build_scenario
from repro.experiments.catalog import make_scenario

config = make_scenario("rwp-100k", seed=1, num_nodes=2000, sim_time=4.0)
tracemalloc.start()
built = build_scenario(config)
built.simulator.run(until=config.update_interval)
current, _ = tracemalloc.get_traced_memory()
world = built.world
with_dict = {{}}
for node in world.nodes:
    for obj in (node, node.follower, node.buffer):
        if hasattr(obj, "__dict__"):
            name = type(obj).__name__
            with_dict[name] = with_dict.get(name, 0) + 1
print(json.dumps({{"nodes": world.num_nodes, "updates": world.updates,
                  "bytes": current, "with_dict": with_dict,
                  "types": sorted({{type(o).__name__ for node in world.nodes
                                   for o in (node, node.follower,
                                             node.buffer)}})}}))
world.stop()
"""


def test_fresh_rwp_world_is_slotted_and_within_its_bytes_per_node():
    result = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_CHILD.format(src=SRC)],
        capture_output=True, text=True, check=True, timeout=300)
    payload = json.loads(result.stdout)
    assert payload["nodes"] == 2000
    assert payload["updates"] == 1
    assert payload["types"] == ["DTNNode", "MessageBuffer", "PathFollower"]
    assert payload["with_dict"] == {}
    per_node = payload["bytes"] / payload["nodes"]
    assert per_node < BYTES_PER_NODE_CEILING, (
        f"{per_node:.0f} B per node, ceiling {BYTES_PER_NODE_CEILING} B")


def test_path_snapshots_a_live_position_view():
    positions = np.array([[1.0, 2.0], [5.0, 6.0]])
    live = positions[0]
    path = Path([live, (4.0, 6.0)], speed=1.0)
    live[:] = (100.0, 200.0)
    assert path.waypoints == [(1.0, 2.0), (4.0, 6.0)]
    assert all(type(c) is float for point in path.waypoints for c in point)
    out = np.empty(2)
    path.position_into(out)
    assert out.tolist() == [1.0, 2.0]
    path.advance_into(5.0, out)
    assert out.tolist() == [4.0, 6.0]


def test_builder_shares_only_the_stateless_model():
    base = ScenarioConfig.bench_scale(protocol="direct", num_nodes=12,
                                      sim_time=10.0)
    rwp = build_scenario(base.with_overrides(
        mobility=MobilityKind.RANDOM_WAYPOINT))
    models = {id(node.movement) for node in rwp.world.nodes}
    assert len(models) == 1
    assert isinstance(rwp.world.nodes[0].movement, RandomWaypointMovement)
    for kind in (MobilityKind.BUS, MobilityKind.COMMUNITY, MobilityKind.HCMM,
                 MobilityKind.SHORTEST_PATH):
        built = build_scenario(base.with_overrides(mobility=kind))
        models = {id(node.movement) for node in built.world.nodes}
        assert len(models) == 12, kind


def test_node_name_is_derived_from_its_id_unless_given():
    config = make_scenario("rwp-100k", seed=1, num_nodes=3, sim_time=1.0)
    nodes = build_scenario(config).world.nodes
    assert [node.name for node in nodes] == ["n0", "n1", "n2"]
    depot = DTNNode(5, StationaryMovement((0.0, 0.0)), random.Random(0),
                    name="depot")
    assert depot.name == "depot"
