"""Unit tests for the named random streams."""

import _random
import contextlib
import pickle
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import rng as rng_module
from repro.sim.rng import PREFETCH, LazyRandom, RandomStreams


def test_same_seed_same_streams():
    a = RandomStreams(7)
    b = RandomStreams(7)
    assert [a.python("x").random() for _ in range(5)] == \
           [b.python("x").random() for _ in range(5)]
    assert a.numpy("y").integers(0, 1000, 10).tolist() == \
           b.numpy("y").integers(0, 1000, 10).tolist()


def test_different_names_are_independent():
    streams = RandomStreams(7)
    xs = [streams.python("mobility").random() for _ in range(5)]
    ys = [streams.python("traffic").random() for _ in range(5)]
    assert xs != ys


def test_different_seeds_differ():
    a = RandomStreams(1)
    b = RandomStreams(2)
    assert [a.python("x").random() for _ in range(5)] != \
           [b.python("x").random() for _ in range(5)]


def test_request_order_does_not_matter():
    a = RandomStreams(3)
    b = RandomStreams(3)
    # request streams in different orders
    a_traffic_first = a.python("traffic").random()
    a_mobility = a.python("mobility").random()
    b_mobility = b.python("mobility").random()
    b_traffic_first = b.python("traffic").random()
    assert a_mobility == b_mobility
    assert a_traffic_first == b_traffic_first


def test_stream_instances_are_cached():
    streams = RandomStreams(0)
    assert streams.python("a") is streams.python("a")
    assert streams.numpy("a") is streams.numpy("a")


def test_spawn_creates_deterministic_children():
    parent_a = RandomStreams(11)
    parent_b = RandomStreams(11)
    child_a = parent_a.spawn("node-3")
    child_b = parent_b.spawn("node-3")
    assert child_a.python("m").random() == child_b.python("m").random()
    other_child = parent_a.spawn("node-4")
    assert child_a.seed != other_child.seed


def test_derive_is_pinned_to_the_fnv1a_stream_keys():
    # recorded from the uncached FNV-1a loop over f"{seed}:{name}": caching
    # the seed-prefix state must not move a single stream seed
    pinned = {
        0: {"mobility-0": 7991004516195935261,
            "mobility-99999": 5019150376882322174,
            "traffic": 871749580425841882,
            "trace-node-3": 4889214121293216969,
            "": 1948964627900738377},
        1: {"mobility-0": 9209564958133501164,
            "mobility-99999": 1380153932220806155,
            "traffic": 4972984011448765,
            "trace-node-3": 5340135538002008696,
            "community-provider": 9105127551283164929},
        12345: {"mobility-0": 368879550794534400,
                "mobility-99999": 5450964477896411919,
                "traffic": 6787674385973598089},
    }
    for seed, expected in pinned.items():
        streams = RandomStreams(seed)
        assert {name: streams._derive(name) for name in expected} == expected
    child = RandomStreams(1).spawn("x")
    assert child.seed == 4599114546621263444
    assert child._derive("mobility-5") == 585235643378998516


def test_pickled_streams_derive_the_same_keys():
    import pickle

    streams = RandomStreams(12345)
    streams.python("traffic").random()
    restored = pickle.loads(pickle.dumps(streams))
    assert "_prefix_hash" not in streams.__getstate__()
    assert restored._derive("mobility-7") == streams._derive("mobility-7")
    assert restored.python("traffic").random() == \
        streams.python("traffic").random()


def test_python_family_keys_match_the_per_name_derivation():
    # the builder's mobility-{id} streams hash the shared prefix once; the
    # keys must equal the per-name FNV-1a loop on every id
    ids = [0, 1, 9, 10, 99, 100, 4321, 65_535, 99_999, 2**31 - 1]
    for seed in (0, 1, 12345):
        streams = RandomStreams(seed)
        assert streams._derive_family("mobility-", ids) == \
            [streams._derive(f"mobility-{node_id}") for node_id in ids]


def test_python_family_hands_out_the_cached_named_streams():
    streams = RandomStreams(5)
    early = streams.python("mobility-3")
    family = streams.python_family("mobility-", range(6))
    assert family[3] is early
    assert [gen is streams.python(f"mobility-{i}")
            for i, gen in enumerate(family)] == [True] * 6
    fresh = RandomStreams(5)
    assert [gen.random() for gen in RandomStreams(5).python_family(
        "mobility-", range(6))] == \
        [fresh.python(f"mobility-{i}").random() for i in range(6)]


# ------------------------------------------------------ lazy stdlib streams
#: one call of each kind a simulation component makes on a stdlib stream,
#: as (method, arguments)
_CALLS = st.one_of(
    st.just(("random", ())),
    st.tuples(st.just("uniform"),
              st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))),
    st.tuples(st.just("randrange"), st.tuples(st.integers(1, 10**6))),
    st.tuples(st.just("choice"), st.just(("abcdefg",))),
    st.tuples(st.just("sample"),
              st.tuples(st.just(range(20)), st.integers(0, 6))),
    st.tuples(st.just("expovariate"), st.tuples(st.floats(0.01, 10.0))),
    st.tuples(st.just("gauss"),
              st.tuples(st.floats(-5.0, 5.0), st.floats(0.1, 3.0))),
)


@contextlib.contextmanager
def seedings():
    """Record every generator a stream seeds: the bare C generator it
    prefetches from and the ``random.Random`` it materializes."""
    seeded = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            seeded.append(args)
            super().__init__(*args)

    def counting_twister(key):
        seeded.append(key)
        return _random.Random(key)

    with mock.patch.object(rng_module.random, "Random", CountingRandom), \
            mock.patch.object(rng_module, "_Twister", counting_twister):
        yield seeded


def _seedings_expected(calls):
    """Seedings :class:`LazyRandom` may make for *calls*: none for a stream
    never drawn, one for a stream that stays in its prefetch or starts with
    a call other than ``random()``/``uniform()``, two otherwise."""
    if not calls:
        return 0
    names = [name for name, _ in calls]
    if names[0] not in ("random", "uniform"):
        return 1
    prefix = 0
    while prefix < len(names) and names[prefix] in ("random", "uniform"):
        prefix += 1
    return 1 if prefix == len(names) and prefix <= PREFETCH else 2


@settings(max_examples=150, deadline=None)
@given(key=st.integers(0, 2**63 - 1),
       leading=st.integers(0, 2 * PREFETCH),
       mixed=st.lists(_CALLS, max_size=12))
# a stream that serves exactly its prefetch, and one draw past it
@example(key=1, leading=PREFETCH, mixed=[])
@example(key=1, leading=PREFETCH + 1, mixed=[])
def test_lazy_stream_gives_exactly_random_randoms_outputs(key, leading, mixed):
    """Any interleaving of calls, across the prefetch boundary and through a
    pickle round trip after every call, gives ``random.Random(key)``'s
    outputs, seeding at most twice."""
    calls = [("random", ())] * leading + mixed
    reference = random.Random(key)
    expected = [getattr(reference, name)(*args) for name, args in calls]
    with seedings() as seeded:
        stream = LazyRandom(key)
        outputs = [getattr(stream, name)(*args) for name, args in calls]
    assert outputs == expected
    assert len(seeded) == _seedings_expected(calls)

    stream, outputs = LazyRandom(key), []
    for name, args in calls:
        stream = pickle.loads(pickle.dumps(stream))
        outputs.append(getattr(stream, name)(*args))
    assert outputs == expected
    assert pickle.loads(pickle.dumps(stream)).random() == reference.random()


def test_lazy_stream_stages_and_their_seedings():
    key = 987654321
    reference = random.Random(key)
    with seedings() as seeded:
        stream = LazyRandom(key)
        assert stream.stage == "unseeded"
        assert not hasattr(stream, "__dict__")
        assert len(seeded) == 0
        draws = [stream.random() for _ in range(PREFETCH)]
        assert stream.stage == "prefetched"
        assert len(seeded) == 1
        draws.append(stream.random())  # draw PREFETCH + 1 materializes
        assert stream.stage == "materialized"
        assert len(seeded) == 2
        draws += [stream.random() for _ in range(5)]
        assert len(seeded) == 2

        bus = LazyRandom(key)
        bus.randrange(7)  # a bus model's first call: seed once, keep it
        assert bus.stage == "materialized"
        [bus.random() for _ in range(3 * PREFETCH)]
        assert len(seeded) == 3
    assert draws == [reference.random() for _ in range(PREFETCH + 6)]


@pytest.mark.parametrize("first, draws, stage", [
    (None, 0, "unseeded"),
    (None, 1, "prefetched"),
    (None, PREFETCH, "prefetched"),
    (None, PREFETCH + 1, "materialized"),
    ("choice", 0, "materialized"),
    ("choice", 3, "materialized"),
])
def test_lazy_stream_pickles_in_every_stage(first, draws, stage):
    key = 2**62 + 17
    reference, stream = random.Random(key), LazyRandom(key)
    if first is not None:
        assert getattr(stream, first)("xyz") == getattr(reference, first)("xyz")
    for _ in range(draws):
        assert stream.random() == reference.random()
    assert stream.stage == stage
    restored = pickle.loads(pickle.dumps(stream))
    assert restored.stage == stage
    assert pickle.loads(pickle.dumps(stream)).getstate() == reference.getstate()
    assert [restored.random() for _ in range(2 * PREFETCH)] == \
        [reference.random() for _ in range(2 * PREFETCH)]


def test_private_names_do_not_seed_a_stream():
    # pickle, copy and hasattr probes look up dunder and private names;
    # they must not reach the generator
    stream = LazyRandom(3)
    for name in ("__dict__", "__array__", "__deepcopy__", "_randbelow"):
        assert not hasattr(stream, name)
    assert stream.stage == "unseeded"
