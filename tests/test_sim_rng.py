"""Unit tests for the named random streams."""

from repro.sim.rng import RandomStreams


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
