"""Checkpoint codecs and container: round trips, typed errors, RNG capture.

Three layers are pinned here:

* **codec round trips** (property-based): arbitrary arrays, message-buffer
  states, contact-history ring buffers and event-queue heaps survive
  save→load→save with *identical bytes* — serialization is a pure function
  of simulation state;
* **container integrity**: truncated, corrupted, version-mismatched and
  plain-garbage snapshots raise the typed
  :exc:`~repro.checkpoint.CheckpointError` instead of yielding garbage
  state;
* **RNG stream capture**: streams advanced mid-run restore to the exact
  generator state, in-process and in a fresh interpreter (the process-pool
  resume scenario).

The behavioural half of the contract — resumed runs produce byte-identical
reports — lives in ``test_checkpoint_resume_equality.py``.
"""

import io
import json
import subprocess
import sys
import textwrap
import threading
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    config_from_payload,
    config_to_payload,
    decode_array,
    decode_state,
    encode_array,
    encode_state,
    load_checkpoint,
    load_checkpoint_bytes,
    read_manifest,
    save_checkpoint,
    save_checkpoint_bytes,
)
from repro.contacts.history import ContactHistory
from repro.experiments.builder import build_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.reports import build_report, canonical_report_json
from repro.net.buffer import MessageBuffer
from repro.net.message import Message
from repro.sim.engine import Simulator
from repro.sim.events import CallbackEvent, EventQueue
from repro.sim.rng import RandomStreams
from repro.testing import inject_message, make_contact_plan, make_world


def roundtrip(obj):
    """One full save→load cycle through the state + array codecs."""
    state, arrays = encode_state(obj)
    restored = decode_state(
        state, [decode_array(encode_array(array)) for array in arrays])
    return state, arrays, restored


def assert_stable_bytes(obj):
    """save→load→save yields identical bytes for *obj*; returns the copy."""
    state, arrays, restored = roundtrip(obj)
    state2, arrays2 = encode_state(restored)
    assert state2 == state
    assert [encode_array(a) for a in arrays2] \
        == [encode_array(a) for a in arrays]
    return restored


# ------------------------------------------------------------- array codec
@given(hnp.arrays(
    dtype=st.sampled_from(["float64", "float32", "int64", "int32",
                           "uint8", "bool"]),
    shape=hnp.array_shapes(max_dims=3, max_side=9)))
def test_array_codec_roundtrip_any_dtype_shape(array):
    blob = encode_array(array)
    back = decode_array(blob)
    assert back.dtype == array.dtype and back.shape == array.shape
    assert back.tobytes() == array.tobytes()
    # re-encoding the decoded array is byte-stable
    assert encode_array(back) == blob


def test_array_codec_rejects_garbage():
    with pytest.raises(CheckpointError):
        decode_array(b"\x93NUMPY-bad-header")
    with pytest.raises(CheckpointError):
        decode_array(b"")


# ------------------------------------------------------ buffer/history/heap
@st.composite
def buffer_operations(draw):
    """A (capacity, operations) script for a MessageBuffer."""
    capacity = draw(st.integers(min_value=8_000, max_value=40_000))
    count = draw(st.integers(min_value=0, max_value=25))
    ops = []
    for index in range(count):
        size = draw(st.integers(min_value=100, max_value=6_000))
        ttl = draw(st.floats(min_value=1.0, max_value=500.0,
                             allow_nan=False, allow_infinity=False))
        created = draw(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False, allow_infinity=False))
        destination = draw(st.integers(min_value=0, max_value=5))
        ops.append(("add", f"m{index}", size, created, ttl, destination))
        if draw(st.booleans()):
            ops.append(("remove", f"m{draw(st.integers(0, index))}"))
    return capacity, ops


@settings(max_examples=40, deadline=None)
@given(buffer_operations())
def test_message_buffer_state_is_byte_stable(script):
    capacity, ops = script
    buffer = MessageBuffer(capacity)
    for op in ops:
        if op[0] == "add":
            _, mid, size, created, ttl, dest = op
            buffer.add(Message(mid, 0, dest, size, created, ttl, 1))
        else:
            buffer.remove(op[1])
    restored = assert_stable_bytes(buffer)
    assert restored.message_ids() == buffer.message_ids()
    assert restored.occupancy == buffer.occupancy
    assert restored.next_expiry() == buffer.next_expiry()
    # per-destination indexes survive too
    for dest in range(6):
        assert ([m.message_id for m in restored.messages_for_destination(dest)]
                == [m.message_id for m in buffer.messages_for_destination(dest)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6),
                          st.floats(min_value=0.01, max_value=50.0,
                                    allow_nan=False, allow_infinity=False)),
                max_size=40),
       st.integers(min_value=1, max_value=8))
def test_contact_history_ring_buffer_is_byte_stable(meetings, window):
    history = ContactHistory(owner_id=9, window_size=window)
    now = 0.0
    for peer, gap in meetings:
        now += gap
        history.record_contact(peer, now)
    restored = assert_stable_bytes(history)
    for ours, theirs in zip(history.interval_arrays(),
                            restored.interval_arrays()):
        assert np.array_equal(ours, theirs)
    for ours, theirs in zip(history.contact_count_arrays(),
                            restored.contact_count_arrays()):
        assert np.array_equal(ours, theirs)


def _heap_callback(simulator):  # module-level: pickles by reference
    pass


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1_000.0,
                                    allow_nan=False, allow_infinity=False),
                          st.integers(0, 30)),
                max_size=30),
       st.integers(min_value=0, max_value=10))
def test_event_queue_heap_is_byte_stable(schedule, pops):
    queue = EventQueue()
    for time, priority in schedule:
        queue.push(CallbackEvent(time, _heap_callback, priority))
    for _ in range(min(pops, len(queue))):
        queue.pop()
    restored = assert_stable_bytes(queue)
    # the restored heap drains in the identical order
    ours, theirs = [], []
    while len(queue):
        event = queue.pop()
        ours.append((event.time, event.priority))
    while len(restored):
        event = restored.pop()
        theirs.append((event.time, event.priority))
    assert theirs == ours


def test_shared_array_references_survive_restore():
    shared = np.arange(64, dtype=np.float64)
    holder = {"a": shared, "b": shared, "c": shared[:32]}
    state, arrays, restored = roundtrip(holder)
    # one externalized entry for the shared base (the view pickles inline)
    assert len(arrays) == 1
    assert restored["a"] is restored["b"]
    assert np.array_equal(restored["c"], shared[:32])


# ---------------------------------------------------------------- container
@pytest.fixture(scope="module")
def world_blob():
    """Container bytes of a small mid-run trace world."""
    trace = make_contact_plan([(1.0, 5.0, 0, 1), (2.0, 8.0, 1, 2)])
    simulator, world = make_world(trace, num_nodes=3)
    inject_message(world, 0, 2, ttl=100.0)
    simulator.run(until=4.0)
    blob = save_checkpoint_bytes(
        world, config=ScenarioConfig(name="ckpt-test", num_nodes=3))
    world.stop()
    return blob


def _rewrite_entry(blob, name, data):
    """Re-pack *blob* with entry *name* replaced by *data* (valid zip)."""
    source = zipfile.ZipFile(io.BytesIO(blob))
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as archive:
        for info in source.infolist():
            payload = data if info.filename == name \
                else source.read(info.filename)
            archive.writestr(info.filename, payload)
    return out.getvalue()


def _rewrite_manifest(blob, **fields):
    manifest = json.loads(zipfile.ZipFile(io.BytesIO(blob))
                          .read("MANIFEST.json"))
    manifest.update(fields)
    return _rewrite_entry(blob, "MANIFEST.json",
                          json.dumps(manifest).encode("utf-8"))


def test_container_roundtrips_and_manifest(world_blob, tmp_path):
    restored = load_checkpoint_bytes(world_blob)
    assert restored.manifest["magic"] == "repro-checkpoint"
    assert restored.manifest["format_version"] == FORMAT_VERSION
    assert restored.manifest["num_nodes"] == 3
    assert restored.sim_now == 4.0
    assert restored.config is not None and restored.config.name == "ckpt-test"
    # arrays actually externalize (the compact-container requirement)
    assert restored.manifest["array_count"] > 0
    restored.world.stop()
    # file-level API + manifest reader
    path = tmp_path / "world.ckpt"
    path.write_bytes(world_blob)
    manifest = read_manifest(str(path))
    assert manifest == restored.manifest
    world = load_checkpoint(str(path)).world
    assert world.num_nodes == 3 and world.simulator.now == 4.0
    world.stop()


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_truncated_snapshot_raises_checkpoint_error(world_blob, fraction):
    cut = int(len(world_blob) * fraction)
    assume(cut < len(world_blob))
    with pytest.raises(CheckpointError):
        load_checkpoint_bytes(world_blob[:cut])


def test_corrupted_entries_raise_checkpoint_error(world_blob):
    # flipped state bytes -> state digest mismatch
    state = zipfile.ZipFile(io.BytesIO(world_blob)).read("state.pkl")
    tampered = bytes([state[0] ^ 0xFF]) + state[1:]
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint_bytes(_rewrite_entry(world_blob, "state.pkl", tampered))
    # flipped array bytes -> array digest mismatch
    first = zipfile.ZipFile(io.BytesIO(world_blob)).read("arrays/0.npy")
    tampered = first[:-1] + bytes([first[-1] ^ 0xFF])
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint_bytes(_rewrite_entry(world_blob, "arrays/0.npy",
                                             tampered))


def test_version_and_magic_mismatch_raise_checkpoint_error(world_blob):
    with pytest.raises(CheckpointError, match="format version"):
        load_checkpoint_bytes(_rewrite_manifest(world_blob,
                                                format_version=999))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint_bytes(_rewrite_manifest(world_blob, magic="nope"))
    with pytest.raises(CheckpointError, match="manifest"):
        load_checkpoint_bytes(_rewrite_entry(world_blob, "MANIFEST.json",
                                             b"{not json"))


def test_version_1_container_is_rejected_before_its_config(world_blob):
    # a version-1 snapshot pickles a world with the retired tick-mode
    # attributes and embeds a config with the retired tick-mode fields; the
    # version check must reject it up front instead of reporting an invalid
    # scenario config (or restoring stale attributes)
    manifest = json.loads(zipfile.ZipFile(io.BytesIO(world_blob))
                          .read("MANIFEST.json"))
    config = dict(manifest["config"], flat_tick=True, router_skiplist=True,
                  router_soa=True, transfer_engine=True, batch_movement=True)
    v1 = _rewrite_manifest(world_blob, format_version=1, config=config)
    with pytest.raises(CheckpointError,
                       match=r"^unsupported checkpoint format version 1 "):
        load_checkpoint_bytes(v1)


def test_version_2_container_is_rejected_before_its_config(world_blob):
    # a version-2 snapshot pickles the collector's lists record store and
    # the sharded detector's workers_mode, and embeds a config with the
    # retired detector / worker / record-mode fields; the version check must
    # reject it before the config is read
    manifest = json.loads(zipfile.ZipFile(io.BytesIO(world_blob))
                          .read("MANIFEST.json"))
    config = dict(manifest["config"], detector="sharded", rebuild_margin=0.5,
                  world_workers=2, world_workers_mode="process",
                  record_mode="lists")
    v2 = _rewrite_manifest(world_blob, format_version=2, config=config)
    with pytest.raises(CheckpointError,
                       match=r"^unsupported checkpoint format version 2 "):
        load_checkpoint_bytes(v2)


def test_version_3_container_is_rejected(world_blob):
    # a version-3 snapshot pickles a stats collector without the move-phase
    # split and a movement engine with the retired batch_enabled flag
    v3 = _rewrite_manifest(world_blob, format_version=3)
    with pytest.raises(CheckpointError,
                       match=r"^unsupported checkpoint format version 3 "):
        load_checkpoint_bytes(v3)


def test_version_4_container_is_rejected(world_blob):
    # a version-4 snapshot pickles MaxProp routers with dict likelihood
    # vectors instead of the dense cost table, and a stats collector without
    # the knowledge-layer split
    v4 = _rewrite_manifest(world_blob, format_version=4)
    with pytest.raises(CheckpointError,
                       match=r"^unsupported checkpoint format version 4 "):
        load_checkpoint_bytes(v4)


def test_version_5_container_is_rejected(world_blob):
    # a version-5 snapshot pickles routers holding per-contact dicts, and
    # connections, router stores and transfer engines without the
    # per-contact slots, listener column and endpoint-row columns
    v5 = _rewrite_manifest(world_blob, format_version=5)
    with pytest.raises(CheckpointError,
                       match=r"^unsupported checkpoint format version 5 "):
        load_checkpoint_bytes(v5)


def test_version_6_container_is_rejected(world_blob):
    # a version-6 snapshot pickles a world carrying its own routers-phase
    # counters next to the stats collector's
    v6 = _rewrite_manifest(world_blob, format_version=6)
    with pytest.raises(CheckpointError,
                       match=r"^unsupported checkpoint format version 6 "):
        load_checkpoint_bytes(v6)


def test_version_7_container_is_rejected(world_blob):
    # a version-7 snapshot pickles nodes holding their connection maps,
    # connections holding an engine link, and a stats collector holding
    # its open-contact table
    v7 = _rewrite_manifest(world_blob, format_version=7)
    with pytest.raises(CheckpointError,
                       match=r"^unsupported checkpoint format version 7 "):
        load_checkpoint_bytes(v7)


def test_version_8_container_is_rejected(world_blob):
    # a version-8 snapshot pickles a k-d tree detector (or the sharded one
    # with its dropped worker pool) instead of the cached-candidate detector
    v8 = _rewrite_manifest(world_blob, format_version=8)
    with pytest.raises(CheckpointError,
                       match=r"^unsupported checkpoint format version 8 "):
        load_checkpoint_bytes(v8)


def test_version_9_container_is_rejected(world_blob):
    # a version-9 snapshot pickles nodes, path followers and message buffers
    # with a __dict__ (and paths with ndarray waypoints) instead of slots
    v9 = _rewrite_manifest(world_blob, format_version=9)
    with pytest.raises(CheckpointError,
                       match=r"^unsupported checkpoint format version 9 "):
        load_checkpoint_bytes(v9)


def test_version_10_container_is_rejected(world_blob):
    # a version-10 snapshot pickles every stdlib stream as a seeded
    # random.Random instead of a LazyRandom
    v10 = _rewrite_manifest(world_blob, format_version=10)
    with pytest.raises(CheckpointError,
                       match=r"^unsupported checkpoint format version 10 "):
        load_checkpoint_bytes(v10)


# ------------------------------------------------------ a flat link graph
def path_world(num_nodes):
    """A trace world whose live links form one path through every node,
    with one message flooding along it."""
    trace = make_contact_plan([(1.0, 30.0, i, i + 1)
                               for i in range(num_nodes - 1)])
    simulator, world = make_world(trace, num_nodes=num_nodes)
    inject_message(world, 0, num_nodes - 1, ttl=1_000.0)
    return simulator, world


def outcome(world):
    stats = world.stats
    return (canonical_report_json(build_report(
                stats, protocol="epidemic", num_nodes=world.num_nodes,
                sim_time=world.simulator.now, seed=1)),
            {name: column.tolist() for name, column in
             stats.record_columns("contacts").items()})


def test_long_path_world_checkpoints_on_the_calling_thread(monkeypatch):
    """3 000 nodes in one chain of live links: saving and restoring recurses
    no deeper than the default interpreter limit, spawns no thread, and the
    resumed run equals the straight one (contacts close after the restore)."""
    num_nodes = 3_000
    simulator, world = path_world(num_nodes)
    simulator.run(until=40.0)
    straight = outcome(world)
    world.stop()

    def no_threads(*args, **kwargs):
        raise AssertionError("the checkpoint codec started a thread")

    monkeypatch.setattr(threading, "Thread", no_threads)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        simulator, world = path_world(num_nodes)
        simulator.run(until=5.0)
        assert len(world._connections) == num_nodes - 1
        maps = [list(node.connections.items()) for node in world.nodes]
        blob = save_checkpoint_bytes(world)
        world.stop()
        restored = load_checkpoint_bytes(blob).world
    finally:
        sys.setrecursionlimit(limit)
    try:
        # every node's connection map is rebuilt, in its original order,
        # onto the restored link table's own objects
        table = restored._connections
        for node, before in zip(restored.nodes, maps):
            after = list(node.connections.items())
            assert [peer for peer, _ in after] == [peer for peer, _ in before]
            for peer, connection in after:
                assert table[connection.key] is connection
        restored.simulator.run(until=40.0)
        assert outcome(restored) == straight
    finally:
        restored.stop()


def test_missing_entries_and_garbage_raise_checkpoint_error(world_blob,
                                                            tmp_path):
    source = zipfile.ZipFile(io.BytesIO(world_blob))
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as archive:
        for info in source.infolist():
            if info.filename != "state.pkl":
                archive.writestr(info.filename, source.read(info.filename))
    with pytest.raises(CheckpointError, match="missing"):
        load_checkpoint_bytes(out.getvalue())
    with pytest.raises(CheckpointError):
        load_checkpoint_bytes(b"definitely not a zip archive")
    with pytest.raises(CheckpointError, match="no snapshot"):
        load_checkpoint(str(tmp_path / "absent.ckpt"))


def test_container_bytes_are_deterministic(world_blob):
    """The container is a pure function of state (fixed zip timestamps)."""
    trace = make_contact_plan([(1.0, 5.0, 0, 1)])
    simulator, world = make_world(trace)
    simulator.run(until=2.0)
    first = save_checkpoint_bytes(world)
    second = save_checkpoint_bytes(world)
    world.stop()
    assert first == second


def test_config_payload_roundtrip():
    config = ScenarioConfig.bench_scale(
        protocol="cr", num_nodes=12, seed=4, keep_records=False,
        router_params={"alpha": 0.3})
    payload = json.loads(json.dumps(config_to_payload(config)))
    assert config_from_payload(payload) == config
    with pytest.raises(CheckpointError):
        config_from_payload({"num_nodes": -3})


# ---------------------------------------------------------------- RNG pins
def test_rng_streams_restore_to_exact_generator_state():
    streams = RandomStreams(seed=42)
    gen = streams.numpy("traffic")
    rng = streams.python("mobility-3")
    gen.standard_normal(17)
    [rng.random() for _ in range(11)]
    restored = assert_stable_bytes(streams)
    assert restored.seed == streams.seed
    assert restored.numpy("traffic").bit_generator.state \
        == gen.bit_generator.state
    assert restored.python("mobility-3").getstate() == rng.getstate()
    # advanced streams continue identically...
    assert restored.numpy("traffic").standard_normal(8).tolist() \
        == gen.standard_normal(8).tolist()
    assert [restored.python("mobility-3").random() for _ in range(8)] \
        == [rng.random() for _ in range(8)]
    # ...and so do streams first derived *after* the restore
    assert [restored.python("late").random() for _ in range(4)] \
        == [streams.python("late").random() for _ in range(4)]


def test_mid_run_rng_streams_restore_exactly_in_a_fresh_process(tmp_path):
    """The process-pool resume scenario: a snapshot taken mid-run restores
    every advanced RNG stream to its exact state in a fresh interpreter."""
    config = ScenarioConfig.bench_scale(
        protocol="epidemic", num_nodes=8, seed=9, sim_time=200.0,
        mobility="random_waypoint")
    built = build_scenario(config)
    built.simulator.run(until=90.0)
    path = tmp_path / "mid.ckpt"
    built.world.save_checkpoint(str(path), config=config)
    streams = built.simulator.random
    # pin the streams the run actually advanced, not ones we invent here
    assert streams._python_streams or streams._numpy_streams
    expected = {
        "python": {name: [streams.python(name).random() for _ in range(3)]
                   for name in sorted(streams._python_streams)},
        "numpy": {name: streams.numpy(name).standard_normal(3).tolist()
                  for name in sorted(streams._numpy_streams)},
    }
    built.world.stop()
    src = str(Path(repro.__file__).resolve().parents[1])
    code = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {src!r})
        from repro.checkpoint import load_checkpoint
        world = load_checkpoint({str(path)!r}).world
        streams = world.simulator.random
        print(json.dumps({{
            "python": {{n: [streams.python(n).random() for _ in range(3)]
                        for n in sorted(streams._python_streams)}},
            "numpy": {{n: streams.numpy(n).standard_normal(3).tolist()
                       for n in sorted(streams._numpy_streams)}},
        }}))
        world.stop()
    """)
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) == expected
