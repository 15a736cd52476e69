"""The knowledge layer's shortest-path kernel and its two users.

``repro.contacts.paths.shortest_path_lengths`` must return exactly the
floats of the heap Dijkstra (``repro.testing.reference``) on any valid
matrix: zero-weight edges (MaxProp's cost for a likelihood of 1), exact
ties, rows with no edges, CR's excluded rows and columns, one vertex,
unreachable vertices, and weights so large their sums overflow or so small
they are subnormal.  MaxProp's dense cost table must give the same path
costs as the dict-of-vectors router it replaced, kept below as
:class:`DictVectorSpec`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.contacts.memd import dijkstra_delays
from repro.contacts.paths import shortest_path_lengths
from repro.mobility.stationary import StationaryMovement
from repro.routing.maxprop import MaxPropRouter
from repro.sim.engine import Simulator
from repro.testing import make_contact_plan, make_world
from repro.testing.reference import dijkstra_delays_reference
from repro.traces.replay import TraceReplayWorld
from repro.world.interface import Interface
from repro.world.node import DTNNode

#: edge weights that stress the rounding argument: zero, exact small
#: integers (ties), ordinary floats, sums that overflow, subnormals
WEIGHTS = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 2.0, 3.0, 0.5, 0.25]),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    st.sampled_from([1e300, 1e308, np.finfo(float).max]),
    st.sampled_from([5e-324, 1e-310, np.finfo(float).tiny]),
    st.just(np.inf),
)


@st.composite
def weight_matrices(draw):
    """A square weight matrix, a source, and the shapes MEMD/MaxProp build."""
    n = draw(st.integers(1, 9))
    values = draw(st.lists(WEIGHTS, min_size=n * n, max_size=n * n))
    weights = np.array(values, dtype=float).reshape(n, n)
    # rows with no outgoing edge at all
    for row in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        weights[row] = np.inf
    if draw(st.booleans()):
        # CR's node_filter: excluded rows and columns are disconnected
        excluded = np.array(draw(st.lists(st.booleans(), min_size=n,
                                          max_size=n)))
        weights[excluded, :] = np.inf
        weights[:, excluded] = np.inf
    if draw(st.booleans()):
        np.fill_diagonal(weights, 0.0)
    return weights, draw(st.integers(0, n - 1))


#: sums of the huge weights overflow to inf, as they should
overflow_ok = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning")


@overflow_ok
@given(weight_matrices())
@settings(max_examples=300, deadline=None)
def test_kernel_is_bit_identical_to_heap_dijkstra(case):
    weights, source = case
    expected = dijkstra_delays_reference(weights, source)
    assert np.array_equal(shortest_path_lengths(weights, source), expected)
    assert np.array_equal(dijkstra_delays(weights, source), expected)
    assert np.array_equal(dijkstra_delays(weights, source, validate=False),
                          expected)


@overflow_ok
@given(weight_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_kernel_treats_nan_as_a_missing_edge(case, data):
    weights, source = case
    n = weights.shape[0]
    holes = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)), max_size=n))
    with_nan = weights.copy()
    without = weights.copy()
    for u, v in holes:
        with_nan[u, v] = np.nan
        without[u, v] = np.inf
    assert np.array_equal(shortest_path_lengths(with_nan, source),
                          shortest_path_lengths(without, source))


def test_zero_weight_edges_and_ties():
    inf = np.inf
    weights = np.array([[0.0, 0.0, 1.0, inf],
                        [inf, 0.0, 1.0, 0.0],
                        [inf, inf, 0.0, 0.0],
                        [0.0, inf, inf, 0.0]])
    assert shortest_path_lengths(weights, 0).tolist() == [0.0, 0.0, 1.0, 0.0]
    assert shortest_path_lengths(weights, 2).tolist() == [0.0, 0.0, 0.0, 0.0]


def test_single_vertex_and_unreachable():
    assert shortest_path_lengths(np.array([[np.inf]]), 0).tolist() == [0.0]
    weights = np.full((3, 3), np.inf)
    weights[0, 1] = 2.0
    assert shortest_path_lengths(weights, 0).tolist() == [0.0, 2.0, np.inf]
    assert shortest_path_lengths(weights, 2).tolist() == [np.inf, np.inf, 0.0]


def test_rounded_path_sums_not_exact_ones():
    # 1 + 2**-53 rounds back to 1, so the two-hop path ties the direct edge
    # in floating point; every algorithm must agree on the rounded value
    eps = 2.0 ** -53
    weights = np.array([[0.0, 1.0, 1.0 + 2 * eps],
                        [np.inf, 0.0, eps],
                        [np.inf, np.inf, 0.0]])
    got = shortest_path_lengths(weights, 0)
    assert got[2] == 1.0
    assert np.array_equal(got, dijkstra_delays_reference(weights, 0))


# ----------------------------------------------------------- MaxProp parity
class DictVectorSpec:
    """MaxProp's likelihood state as dicts of vectors, with a heap Dijkstra.

    This is the router's previous production representation: each known
    vector is a ``(timestamp, {node: likelihood})`` pair, merged by copying
    newer vectors and searched by a dict-and-heap Dijkstra with per-hop
    cost ``1 - P(meet)``.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.probs: Dict[int, float] = {}
        self.known: Dict[int, Tuple[float, Dict[int, float]]] = {}

    def update(self, now: float, peer_id: int) -> None:
        self.probs[peer_id] = self.probs.get(peer_id, 0.0) + 1.0
        total = 0.0
        for value in self.probs.values():
            total += value
        for key in self.probs:
            self.probs[key] /= total
        self.known[self.node_id] = (now, dict(self.probs))

    def merge(self, other: "DictVectorSpec") -> int:
        copied = 0
        for node_id, (stamp, vector) in other.known.items():
            if node_id == self.node_id:
                continue
            mine = self.known.get(node_id)
            if mine is None or stamp > mine[0]:
                self.known[node_id] = (stamp, dict(vector))
                copied += 1
        return copied

    def path_cost(self, destination: int) -> float:
        if destination == self.node_id:
            return 0.0
        dist: Dict[int, float] = {self.node_id: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, self.node_id)]
        visited: Set[int] = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in visited:
                continue
            visited.add(u)
            entry = self.known.get(u)
            if entry is None:
                continue
            for v, p in entry[1].items():
                cost = d + (1.0 - min(max(p, 0.0), 1.0))
                if cost < dist.get(v, float("inf")):
                    dist[v] = cost
                    heapq.heappush(heap, (cost, v))
        return dist.get(destination, float("inf"))


def _shadow(router: MaxPropRouter, specs: Dict[int, DictVectorSpec]) -> None:
    """Mirror every likelihood update and merge of *router* into its spec."""
    spec = specs[router.node_id]
    update = router._update_meeting_probability
    merge = router._merge_vectors

    def shadowed_update(peer_id: int) -> None:
        update(peer_id)
        spec.update(router.now, peer_id)

    def shadowed_merge(other: MaxPropRouter) -> int:
        copied = merge(other)
        assert copied == spec.merge(specs[other.node_id])
        return copied

    router._update_meeting_probability = shadowed_update
    router._merge_vectors = shadowed_merge


@st.composite
def contact_scripts(draw):
    """Back-to-back contacts among a few nodes (pairs repeat, so vectors
    go stale and get refreshed)."""
    n = draw(st.integers(2, 6))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda pair: pair[0] != pair[1])
    script = []
    start = 5.0
    for a, b in draw(st.lists(pairs, min_size=1, max_size=25)):
        gap = draw(st.sampled_from([1.0, 2.0, 7.0]))
        script.append((start, start + 3.0, a, b))
        start += 3.0 + gap
    return n, script


@given(contact_scripts())
@settings(max_examples=40, deadline=None)
def test_maxprop_path_costs_match_the_dict_vector_spec(case):
    n, script = case
    simulator, world = make_world(make_contact_plan(script),
                                  protocol="maxprop", num_nodes=n)
    specs = {node.node_id: DictVectorSpec(node.node_id) for node in world.nodes}
    for node in world.nodes:
        _shadow(node.router, specs)
    checkpoints = sorted({end + 1.0 for _, end, _, _ in script[::4]}
                         | {script[-1][1] + 1.0})
    for until in checkpoints:
        simulator.run(until=until)
        for node in world.nodes:
            router, spec = node.router, specs[node.node_id]
            assert router.meeting_probabilities() == spec.probs
            for destination in range(-1, n + 1):
                assert router.path_cost(destination) == spec.path_cost(
                    destination)


# --------------------------------------------------------- MaxProp bounds
def test_maxprop_path_cost_is_inf_outside_the_node_range():
    trace = make_contact_plan([(10.0, 20.0, 0, 1), (30.0, 40.0, 1, 2)])
    simulator, world = make_world(trace, protocol="maxprop", num_nodes=3)
    router = world.get_node(0).router
    assert router.path_cost(1) == float("inf")  # nothing known yet
    simulator.run(until=50.0)
    assert router.path_cost(0) == 0.0
    assert router.path_cost(1) < float("inf")
    # a negative id must not wrap around to the last node
    assert router.path_cost(-1) == float("inf")
    assert router.path_cost(3) == float("inf")
    assert router.path_cost(10 ** 6) == float("inf")


def test_maxprop_rejects_node_ids_outside_zero_to_n():
    simulator = Simulator(seed=1)
    world = TraceReplayWorld(simulator, make_contact_plan([(10.0, 20.0, 0, 7)]),
                             update_interval=1.0)
    interface = Interface(transmit_range=10.0, transmit_speed=250_000)
    nodes = []
    for node_id in (0, 7):
        node = DTNNode(node_id=node_id,
                       movement=StationaryMovement((float(node_id), 0.0)),
                       rng=simulator.random.python(f"node-{node_id}"),
                       interface=interface, buffer_capacity=10_000)
        MaxPropRouter().attach(node, world)
        nodes.append(node)
    world.add_nodes(nodes)
    with pytest.raises(RuntimeError, match="node ids must be 0..n-1"):
        simulator.run(until=30.0)
