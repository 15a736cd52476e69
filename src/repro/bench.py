"""The ``python -m repro bench`` performance-trajectory harness.

Every PR that touches a hot path needs a number to beat.  This module runs a
small set of *paired* benchmarks — each workload executes twice, once through
the pure-Python reference implementations of :mod:`repro.testing.reference`
(the pre-vectorization baseline, imported only when a baseline runs) and
once through the production vectorized path — and writes one
machine-readable ``BENCH_*.json`` holding both timings, the speedup, and
checksums proving the two paths computed the same answers:

``encounter_pipeline``
    The headline: a 1000-node EER knowledge layer fed a synthetic encounter
    stream.  Every encounter records a contact, refreshes the owner's MI row
    and evaluates the expected encounter value (Theorem 1); every few
    encounters a batch of single-replica forwarding decisions queries the
    MEMD (Theorems 2+3).  Baseline: dict-of-deques history, the per-peer
    estimator specs of :mod:`repro.testing.reference`, and one fresh MD
    build and Dijkstra per (source, destination) query.
    Current: ring-buffer history, batch kernels, and the version-keyed
    delay-vector cache.  The EEV/MEMD checksums must match bit for bit.
``buffer_churn``
    Message adds under eviction pressure plus per-tick expiry sweeps.
    Baseline: the sort-per-add / scan-per-tick reference buffer.  Current:
    the heap-indexed buffer.
``scenario_eer``
    An end-to-end catalog scenario run on the reference world of
    :mod:`repro.testing.reference` (naive tick, dict-of-deques contact
    histories) vs the production world:
    wall-clock ms/tick, encounters processed per wall-second, and the full
    delivery-metric checksum set, which must be identical — the vectorized
    hot path must not change a single routing decision.
``community_detection``
    The community pipeline's aggregation step: per-node contact histories
    from a planted-community contact stream are reduced to one aggregate
    contact graph, repeatedly (as the online tracker does between
    detections), then Newman detection runs once on the result.  Baseline:
    the per-edge spec builder of :mod:`repro.testing.reference` (one
    ``contact_count``/``mean_interval`` call per peer).  Current: the
    vectorized builder over the zero-copy
    ``interval_arrays()``/``contact_count_arrays()`` views.  The graph
    checksums (edge count, total weight, mean-interval sum) and the detected
    assignment CRC must match bit for bit.
``world_tick_10k``
    The ``rwp-10k`` catalog scenario (10 000 pedestrians at quick/full
    scale) run through the staged tick pipeline.  Baseline: the reference
    tick of :mod:`repro.testing.reference` (per-follower movement, fresh
    connections, a scan over every live link, every router ticked) on the
    single-threaded ``KDTreeConnectivity``.  Current: the production world,
    whose builder picks ``ShardedConnectivity`` at this size.  The throughput key is detection throughput
    (ticks per second of pure detector time, from the
    ``connectivity.detect`` sub-meter); the per-phase wall-time breakdown
    and ``router_ticks_per_s`` (the routers sweep against tick-every-router)
    ride along.  The delivery/contact checksums plus an end-of-run position
    checksum must be bit-identical.

``world_tick_100k``
    The *paired* half re-uses the ``world_tick_10k`` runs but gates on
    **whole-tick** throughput of the production world against the
    reference world at 10k nodes, with bit-identical checksums.  A
    ``scale_100k`` section rides along holding one completed ``rwp-100k``
    run (100 000 pedestrians at city scale) and a re-run of the same seed
    on the reference world; its ``reference_checksums_match`` bit is the
    scale correctness claim.

``--compare`` turns the harness into a regression gate: current throughputs
are checked against a committed baseline JSON (CI fails on >25% regression
by default).  See docs/performance.md for the JSON schema and CI wiring.
"""

from __future__ import annotations

import datetime
import json
import platform
import sys
import time
import zlib
from typing import Dict, List, Optional

import numpy as np

from repro.contacts.history import ContactHistory
from repro.contacts.memd import MemdCache, minimum_expected_meeting_delay
from repro.contacts.mi_matrix import MeetingIntervalMatrix
from repro.core.expectation import expected_encounter_value
from repro.experiments.builder import build_scenario
from repro.experiments.catalog import make_scenario
from repro.net.buffer import DropPolicy, MessageBuffer
from repro.net.message import Message
from repro.version import __version__

#: benchmark scales: (encounter stream, buffer ops, scenario sim_time,
#: world sizes) — "smoke" exists so tests and pre-merge hooks finish in
#: seconds; "quick" is the CI default; "full" is for real trajectory points
SCALES: Dict[str, Dict[str, float]] = {
    "smoke": dict(nodes=120, encounters=150, memd_every=8, memd_batch=2,
                  buffer_ops=2_000,
                  scenario_time=200.0, scenario_repeats=1,
                  detect_nodes=60, detect_contacts=4_000, detect_rounds=3,
                  world_nodes=1_500, world_ticks=15, world_repeats=1,
                  world100k_nodes=2_000, world100k_ticks=5,
                  traffic_nodes=1_500, traffic_ticks=60, traffic_repeats=1,
                  traffic_rate=20.0),
    "quick": dict(nodes=1000, encounters=600, memd_every=8, memd_batch=4,
                  buffer_ops=20_000,
                  scenario_time=600.0, scenario_repeats=3,
                  detect_nodes=200, detect_contacts=30_000, detect_rounds=5,
                  world_nodes=10_000, world_ticks=40, world_repeats=3,
                  world100k_nodes=100_000, world100k_ticks=6,
                  traffic_nodes=10_000, traffic_ticks=60, traffic_repeats=3,
                  traffic_rate=50.0),
    "full": dict(nodes=1000, encounters=2_400, memd_every=8, memd_batch=4,
                 buffer_ops=100_000,
                 scenario_time=2_000.0, scenario_repeats=3,
                 detect_nodes=300, detect_contacts=100_000, detect_rounds=8,
                 world_nodes=10_000, world_ticks=120, world_repeats=3,
                 world100k_nodes=100_000, world100k_ticks=12,
                 traffic_nodes=10_000, traffic_ticks=180, traffic_repeats=3,
                 traffic_rate=50.0),
}


def peak_rss_mb() -> Optional[float]:
    """Peak resident set size of this process in MiB (``None`` off-POSIX).

    Process-wide and monotonic: per-benchmark values record the high-water
    mark *up to* that point of the run, which is why the memory-sensitive
    benchmarks run their lean mode first.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS
    if sys.platform == "darwin":  # pragma: no cover
        return peak / (1024 * 1024)
    return peak / 1024


# ------------------------------------------------------------------ encounter
def _encounter_stream(num_nodes: int, encounters: int, seed: int):
    """Deterministic synthetic contact stream for the knowledge layer."""
    rng = np.random.default_rng(seed)
    peers = rng.integers(1, num_nodes, size=encounters)
    # strictly increasing integer-ish times, several contacts per tick
    times = np.cumsum(rng.integers(1, 30, size=encounters)).astype(float)
    dests = rng.integers(1, num_nodes, size=encounters)
    return peers, times, dests


def _seed_mi_matrix(num_nodes: int, owner: int, seed: int) -> MeetingIntervalMatrix:
    """An MI matrix populated as if rows had been learned from exchanges."""
    rng = np.random.default_rng(seed + 1)
    values = rng.integers(60, 3600, size=(num_nodes, num_nodes)).astype(float)
    # mark a share of pairs unknown, symmetrically-ish
    values[rng.random((num_nodes, num_nodes)) < 0.3] = np.inf
    np.fill_diagonal(values, 0.0)
    mi = MeetingIntervalMatrix(num_nodes, owner)
    mi.load_state(values, np.zeros(num_nodes))
    return mi


def bench_encounter_pipeline(scale: Dict[str, float], seed: int,
                             reference: bool) -> Dict[str, object]:
    """Run the contacts -> estimators -> MEMD pipeline in one mode."""
    num_nodes = int(scale["nodes"])
    encounters = int(scale["encounters"])
    memd_every = int(scale["memd_every"])
    memd_batch = int(scale["memd_batch"])
    peers, times, dests = _encounter_stream(num_nodes, encounters, seed)
    owner = 0
    mi = _seed_mi_matrix(num_nodes, owner, seed)
    if reference:
        from repro.testing.reference import (
            ContactHistoryReference,
            build_delay_matrix_reference,
            expected_encounter_value_reference,
        )
        history = ContactHistoryReference(owner, 20)
        eev = expected_encounter_value_reference
    else:
        history = ContactHistory(owner, 20)
        eev = expected_encounter_value
    cache = MemdCache(refresh=0.0)
    horizon = 0.28 * 1200.0  # alpha * TTL, the paper's operating point
    eev_checksum = 0.0
    memd_checksum = 0.0
    memd_finite = 0
    start = time.perf_counter()
    for i in range(encounters):
        now = float(times[i])
        history.record_contact(int(peers[i]), now)
        mean = history.mean_interval(int(peers[i]))
        if mean is not None:
            mi.update_own_row({int(peers[i]): mean}, now)
        eev_checksum += eev(history, now, horizon)
        if i % memd_every == memd_every - 1:
            # a batch of single-replica forwarding decisions
            for j in range(memd_batch):
                dest = int(dests[(i + j) % encounters])
                if dest == owner:
                    continue
                if reference:
                    # naive pattern: fresh MD build + Dijkstra per query
                    md = build_delay_matrix_reference(history, mi, now)
                    value = minimum_expected_meeting_delay(md, owner, dest)
                else:
                    value = float(cache.delays(history, mi, now)[dest])
                if np.isfinite(value):
                    memd_checksum += value
                    memd_finite += 1
    seconds = time.perf_counter() - start
    return {
        "seconds": round(seconds, 4),
        "encounters_per_s": round(encounters / seconds, 2),
        "checksums": {
            "eev_sum": eev_checksum,
            "memd_sum": memd_checksum,
            "memd_finite": memd_finite,
        },
    }


# --------------------------------------------------------------------- buffer
def bench_buffer_churn(scale: Dict[str, float], seed: int,
                       reference: bool) -> Dict[str, object]:
    """Adds under eviction pressure + per-tick expiry sweeps, one mode."""
    ops = int(scale["buffer_ops"])
    rng = np.random.default_rng(seed)
    sizes = rng.integers(10_000, 40_000, size=ops)
    ttls = rng.integers(200, 2_000, size=ops).astype(float)
    buffer_cls = MessageBuffer
    if reference:
        from repro.testing.reference import ReferenceMessageBuffer
        buffer_cls = ReferenceMessageBuffer
    buffer = buffer_cls(capacity=1024 * 1024,
                        drop_policy=DropPolicy.OLDEST_RECEIVED)
    evicted_total = 0
    expired_total = 0
    start = time.perf_counter()
    for i in range(ops):
        now = float(i)
        message = Message(f"m{i}", 0, 1, int(sizes[i]), now, ttl=float(ttls[i]))
        message.received_time = now
        evicted_total += len(buffer.add(message))
        # the per-tick TTL sweep every router performs
        expired_total += len(buffer.drop_expired(now))
    seconds = time.perf_counter() - start
    return {
        "seconds": round(seconds, 4),
        "ops_per_s": round(ops / seconds, 2),
        "checksums": {
            "evicted": evicted_total,
            "expired": expired_total,
            "stored": len(buffer),
            "occupancy": buffer.occupancy,
        },
    }


# ------------------------------------------------------------------- scenario
def bench_scenario(scale: Dict[str, float], seed: int,
                   reference: bool) -> Dict[str, object]:
    """One end-to-end catalog scenario run, reference vs production world.

    The run repeats ``scenario_repeats`` times (fresh world each time,
    identical results by construction) and reports the fastest wall time —
    the standard way to strip allocator/OS noise from a sub-second workload.
    """
    overrides: Dict[str, object] = {
        "sim_time": float(scale["scenario_time"]),
        "protocol": "eer",
        "seed": seed,
    }
    config = make_scenario("bench", overrides)
    seconds = float("inf")
    for _ in range(int(scale.get("scenario_repeats", 1))):
        built = build_scenario(config, reference=reference)
        start = time.perf_counter()
        built.run()
        seconds = min(seconds, time.perf_counter() - start)
    stats = built.stats
    ticks = max(1, built.world.updates)
    return {
        "seconds": round(seconds, 4),
        "ms_per_tick": round(1000.0 * seconds / ticks, 4),
        "encounters_per_s": round(stats.contacts / seconds, 2),
        "ticks": ticks,
        "checksums": {
            "created": stats.created,
            "delivered": stats.delivered,
            "relayed": stats.relayed,
            "dropped": stats.dropped,
            "contacts": stats.contacts,
            "control_rows_exchanged": stats.control_rows_exchanged,
            "delivery_ratio": stats.delivery_ratio,
            "average_latency": stats.average_latency,
            "goodput": stats.goodput,
            "overhead_ratio": stats.overhead_ratio,
            "average_hop_count": stats.average_hop_count,
        },
    }


# ------------------------------------------------------------ 10k world tick
def _best_of_runs(config, repeats: int, reference: bool):
    """Run *config* *repeats* times, each on a fresh world.

    Returns the best wall seconds, the best seconds per tick phase and the
    last (stopped) :class:`~repro.experiments.builder.BuiltScenario`; the
    runs are identical by construction, so only the timings differ.
    """
    seconds = float("inf")
    best_phases: Dict[str, float] = {}
    for _ in range(repeats):
        # let go of the previous world first, so the build can free it
        built = None
        built = build_scenario(config, reference=reference)
        start = time.perf_counter()
        built.run()
        seconds = min(seconds, time.perf_counter() - start)
        for name, value in built.stats.tick_phase_seconds.items():
            best_phases[name] = min(value, best_phases.get(name, value))
        built.world.stop()  # releases the sharded detector's worker pool
    return seconds, best_phases, built


def _world_checksums(built) -> Dict[str, object]:
    """Delivery counters plus the summed end-of-run position matrix."""
    stats = built.stats
    return {
        "created": stats.created,
        "delivered": stats.delivered,
        "relayed": stats.relayed,
        "dropped": stats.dropped,
        "contacts": stats.contacts,
        "delivery_ratio": stats.delivery_ratio,
        "average_latency": stats.average_latency,
        "positions_sum": float(built.world.positions().sum()),
    }


def bench_world_tick(scale: Dict[str, float], seed: int,
                     reference: bool) -> Dict[str, object]:
    """The ``rwp-10k`` scenario through the staged tick pipeline, one world.

    Reference: the reference tick (:mod:`repro.testing.reference`) on
    single-threaded k-d tree detection.  Current: the production world on
    sharded connectivity.  Both run the *same* seed and must end in the
    same state bit for bit; the checksums include the summed end-of-run
    position matrix, so a single diverging float64 anywhere in 10 000
    trajectories fails the pair.

    The run repeats ``world_repeats`` times (fresh world each time, results
    identical by construction) and every reported timing is the
    best-of-repeats — the phase wall times at 10k nodes are small enough
    that a single run is hostage to scheduler noise on shared CI machines,
    and the gate compares timing *ratios*.
    """
    overrides: Dict[str, object] = {
        "num_nodes": int(scale["world_nodes"]),
        "sim_time": float(scale["world_ticks"]),
        "seed": seed,
    }
    config = make_scenario("rwp-10k", overrides)
    seconds, best_phases, built = _best_of_runs(
        config, int(scale.get("world_repeats", 1)), reference)
    world = built.world
    ticks = max(1, world.updates)
    phases = {name: round(value, 4)
              for name, value in sorted(best_phases.items())}
    detect_seconds = max(best_phases.get("connectivity.detect", 0.0), 1e-9)
    move_seconds = max(best_phases.get("move", 0.0), 1e-9)
    routers_seconds = max(best_phases.get("routers", 0.0), 1e-9)
    return {
        "seconds": round(seconds, 4),
        "ms_per_tick": round(1000.0 * seconds / ticks, 4),
        "ticks_per_s": round(ticks / seconds, 2),
        "detect_ticks_per_s": round(ticks / detect_seconds, 2),
        "move_ticks_per_s": round(ticks / move_seconds, 2),
        "router_ticks_per_s": round(ticks / routers_seconds, 2),
        "phase_seconds": phases,
        "detector_rebuilds": getattr(world.detector, "rebuilds", None),
        "routers_ticked": world.routers_ticked,
        "routers_skipped": world.routers_skipped,
        "routers_batched": world.routers_batched,
        "ticks": ticks,
        "checksums": _world_checksums(built),
    }


# ----------------------------------------------------------- 100k world tick
def bench_world_tick_100k_run(scale: Dict[str, float],
                              seed: int) -> Dict[str, object]:
    """One completed ``rwp-100k`` run, plus a reference-world parity check.

    The current run is the scenario as catalogued on the production world.
    The reference re-runs the same seed on the reference tick over the
    single-threaded k-d tree, and the two checksum sets (delivery counters
    + summed end-of-run positions) must be identical:
    ``reference_checksums_match`` is the scale correctness bit.  Single run
    per world; at 100 000 nodes the workload is long enough that
    best-of-repeats buys nothing.
    """
    nodes = int(scale["world100k_nodes"])
    sim_time = float(scale["world100k_ticks"])

    def run_once(reference: bool) -> Dict[str, object]:
        overrides: Dict[str, object] = {
            "num_nodes": nodes,
            "sim_time": sim_time,
            "seed": seed,
        }
        config = make_scenario("rwp-100k", overrides)
        seconds, phases, built = _best_of_runs(config, 1, reference)
        world = built.world
        ticks = max(1, world.updates)
        return {
            "seconds": round(seconds, 4),
            "ms_per_tick": round(1000.0 * seconds / ticks, 4),
            "ticks_per_s": round(ticks / seconds, 2),
            "phase_seconds": {name: round(value, 4)
                              for name, value in sorted(phases.items())},
            "routers_ticked": world.routers_ticked,
            "routers_skipped": world.routers_skipped,
            "routers_batched": world.routers_batched,
            "ticks": ticks,
            "checksums": _world_checksums(built),
        }

    current = run_once(reference=False)
    reference = run_once(reference=True)
    return {
        "nodes": nodes,
        "sim_time": sim_time,
        "current": current,
        "reference": reference,
        "speedup_vs_reference": (
            round(float(current["ticks_per_s"])
                  / float(reference["ticks_per_s"]), 3)
            if float(reference["ticks_per_s"]) else None),
        "reference_checksums_match":
            current["checksums"] == reference["checksums"],
    }


# ------------------------------------------------------------ transfer churn
def _records_crc(records, fields) -> int:
    """Chained CRC-32 over the given *fields* of every record, in order.

    ``repr`` of each field keeps floats exact (``repr(float)`` is the
    shortest round-tripping form), so a single diverging byte count or
    completion time anywhere in the run changes the checksum.
    """
    crc = 0
    for record in records:
        line = ":".join(repr(getattr(record, field)) for field in fields)
        crc = zlib.crc32(line.encode(), crc)
    return crc


def bench_transfer_churn(scale: Dict[str, float], seed: int,
                         reference: bool) -> Dict[str, object]:
    """The ``rwp-10k-traffic`` scenario on one world.

    Reference: the reference tick, whose transfers phase scans every live
    link through ``Connection.advance`` (its k-d tree detection cost stays
    outside the transfers phase the pair is gated on).  Current: the
    production world's columnar
    :class:`~repro.net.engine.TransferEngine` sweep.  Same seed, and the
    checksums chain a CRC-32 over every relayed, delivered and aborted
    record — field-exact completion times and byte counts — so the pair
    fails if the engine reorders or mistimes a single completion.

    The throughput key is ``transfer_bytes_per_s``: payload bytes moved to
    completion per wall-second spent in the transfers phase
    (best-of-repeats, like the other world benchmarks).
    """
    overrides: Dict[str, object] = {
        "num_nodes": int(scale["traffic_nodes"]),
        "sim_time": float(scale["traffic_ticks"]),
        # denser arrivals than the catalogued scenario so thousands of
        # links drain concurrently even over a short benchmark horizon
        "traffic_rate": float(scale["traffic_rate"]),
        "seed": seed,
    }
    config = make_scenario("rwp-10k-traffic", overrides)
    seconds, best_phases, built = _best_of_runs(
        config, int(scale.get("traffic_repeats", 1)), reference)
    stats = built.stats
    world = built.world
    ticks = max(1, world.updates)
    transfers_seconds = max(best_phases.get("transfers", 0.0), 1e-9)
    engine = world.transfer_engine
    return {
        "seconds": round(seconds, 4),
        "ms_per_tick": round(1000.0 * seconds / ticks, 4),
        "ticks_per_s": round(ticks / seconds, 2),
        "transfers_phase_seconds": round(transfers_seconds, 4),
        "transfer_bytes_per_s": round(
            stats.bytes_delivered / transfers_seconds, 2),
        "transfers_ticks_per_s": round(ticks / transfers_seconds, 2),
        "phase_seconds": {name: round(value, 4)
                          for name, value in sorted(best_phases.items())},
        "engine_rows_attached": None if reference else engine.rows_attached,
        "engine_rows_completed": None if reference else engine.rows_completed,
        "ticks": ticks,
        "checksums": {
            "created": stats.created,
            "delivered": stats.delivered,
            "relayed": stats.relayed,
            "dropped": stats.dropped,
            "transfers_completed": stats.transfers_completed,
            "transfers_aborted": stats.transfers_aborted,
            "bytes_delivered": stats.bytes_delivered,
            "delivery_ratio": stats.delivery_ratio,
            "average_latency": stats.average_latency,
            "relayed_crc": _records_crc(
                stats.relayed_records,
                ("message_id", "from_node", "to_node", "time", "copies")),
            "delivered_crc": _records_crc(
                stats.delivered_records,
                ("message_id", "source", "destination", "delivered_at")),
            "aborted_crc": _records_crc(
                stats.aborted_records,
                ("message_id", "from_node", "to_node", "time", "bytes_left")),
        },
    }


# ---------------------------------------------------------- community pipeline
def _planted_history_set(num_nodes: int, contacts: int,
                         seed: int) -> List[ContactHistory]:
    """Per-node contact histories from a planted-community contact stream.

    Four round-robin communities; 85% of contacts are intra-community.
    Global time increases monotonically, so per-pair contact times are valid
    for :meth:`~repro.contacts.history.ContactHistory.record_contact`.
    """
    rng = np.random.default_rng(seed)
    histories = [ContactHistory(node, 20) for node in range(num_nodes)]
    communities = 4
    members: List[List[int]] = [
        [node for node in range(num_nodes) if node % communities == c]
        for c in range(communities)]
    intra = rng.random(contacts) < 0.85
    steps = rng.integers(1, 5, size=contacts)
    now = 0.0
    for index in range(contacts):
        now += float(steps[index])
        a = int(rng.integers(0, num_nodes))
        if intra[index]:
            pool = members[a % communities]
            b = int(pool[int(rng.integers(0, len(pool)))])
        else:
            b = int(rng.integers(0, num_nodes))
        if a == b:
            continue
        histories[a].record_contact(b, now)
        histories[b].record_contact(a, now)
    return histories


def _graph_checksums(graph, groups) -> Dict[str, object]:
    """Deterministic checksums of an aggregate contact graph + detection.

    Pure verification bookkeeping (the caller times the workload — this
    runs outside the timer).  Edges are visited in sorted ``(lo, hi)``
    order, so the floating-point mean-interval accumulation order is
    identical for any two graphs with identical contents — a
    reference/vectorized attribute mismatch of even one ULP changes the
    sum.
    """
    import math
    import zlib

    from repro.community.online import assignment_from_groups

    weight_sum = 0
    means: List[float] = []
    missing_means = 0
    for lo, hi in sorted((min(u, v), max(u, v)) for u, v in graph.edges):
        data = graph[lo][hi]
        weight_sum += int(data["weight"])
        mean = data.get("mean_interval")
        if mean is None:
            missing_means += 1
        else:
            means.append(float(mean))
    assignment = assignment_from_groups(
        [set(g) for g in groups], max(graph.nodes) + 1 if graph.nodes else 1)
    signature = ",".join(f"{node}:{community}" for node, community
                         in sorted(assignment.as_dict().items()))
    return {
        "nodes": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "weight_sum": weight_sum,
        "mean_sum": math.fsum(means),
        "missing_means": missing_means,
        "communities": len(groups),
        "assignment_crc": zlib.crc32(signature.encode()),
    }


def bench_community_detection(scale: Dict[str, float], seed: int,
                              reference: bool) -> Dict[str, object]:
    """Aggregation rounds + one graph build + one detection, per mode.

    The reference mode re-materialises the aggregate graph per round through
    the per-edge spec builder (the pre-vectorization pattern).  The current
    mode reduces the histories to edge *arrays* per round — that is what the
    online pipeline keeps fresh — and materialises a graph only once, when
    detection runs, exactly like the tracker's flush.  Both modes end in the
    same Newman detection and must produce bit-identical graph checksums and
    assignment CRC.
    """
    from repro.community.graph import contact_edge_arrays, graph_from_edge_arrays
    from repro.community.newman import newman_modularity_communities

    num_nodes = int(scale["detect_nodes"])
    contacts = int(scale["detect_contacts"])
    rounds = int(scale["detect_rounds"])
    histories = _planted_history_set(num_nodes, contacts, seed)
    if reference:
        from repro.testing.reference import (
            contact_graph_from_history_reference)
    start = time.perf_counter()
    if reference:
        for _ in range(rounds):
            graph = contact_graph_from_history_reference(histories,
                                                         min_contacts=1)
    else:
        for _ in range(rounds):
            arrays = contact_edge_arrays(histories, min_contacts=1)
        graph = graph_from_edge_arrays(*arrays)
    groups = newman_modularity_communities(graph)
    seconds = time.perf_counter() - start
    checksums = _graph_checksums(graph, groups)
    return {
        "seconds": round(seconds, 4),
        "aggregations_per_s": round(rounds / seconds, 2),
        "checksums": checksums,
    }


# ------------------------------------------------------------------- assembly
def _paired(name: str, baseline: Dict[str, object], current: Dict[str, object],
            throughput_key: str, workload: Dict[str, object]) -> Dict[str, object]:
    base_rate = float(baseline[throughput_key])  # type: ignore[arg-type]
    cur_rate = float(current[throughput_key])  # type: ignore[arg-type]
    return {
        "workload": workload,
        "throughput_key": throughput_key,
        "baseline": baseline,
        "current": current,
        "speedup": round(cur_rate / base_rate, 3) if base_rate else None,
        "checksums_match": baseline["checksums"] == current["checksums"],
    }


def run_benchmarks(scale_name: str = "quick", seed: int = 1) -> Dict[str, object]:
    """Run every paired benchmark at *scale_name* and assemble the payload."""
    if scale_name not in SCALES:
        raise KeyError(f"unknown bench scale {scale_name!r}; "
                       f"known: {', '.join(SCALES)}")
    scale = SCALES[scale_name]
    benchmarks: Dict[str, object] = {}

    benchmarks["encounter_pipeline"] = _paired(
        "encounter_pipeline",
        bench_encounter_pipeline(scale, seed, reference=True),
        bench_encounter_pipeline(scale, seed, reference=False),
        "encounters_per_s",
        {"nodes": int(scale["nodes"]), "encounters": int(scale["encounters"]),
         "memd_every": int(scale["memd_every"]),
         "memd_batch": int(scale["memd_batch"])})

    benchmarks["buffer_churn"] = _paired(
        "buffer_churn",
        bench_buffer_churn(scale, seed, reference=True),
        bench_buffer_churn(scale, seed, reference=False),
        "ops_per_s",
        {"ops": int(scale["buffer_ops"])})

    benchmarks["scenario_eer"] = _paired(
        "scenario_eer",
        bench_scenario(scale, seed, reference=True),
        bench_scenario(scale, seed, reference=False),
        "encounters_per_s",
        {"scenario": "bench", "protocol": "eer",
         "sim_time": float(scale["scenario_time"])})

    benchmarks["community_detection"] = _paired(
        "community_detection",
        bench_community_detection(scale, seed, reference=True),
        bench_community_detection(scale, seed, reference=False),
        "aggregations_per_s",
        {"nodes": int(scale["detect_nodes"]),
         "contacts": int(scale["detect_contacts"]),
         "rounds": int(scale["detect_rounds"])})

    world_reference = bench_world_tick(scale, seed, reference=True)
    world_current = bench_world_tick(scale, seed, reference=False)
    benchmarks["world_tick_10k"] = _paired(
        "world_tick_10k",
        world_reference,
        world_current,
        "detect_ticks_per_s",
        {"scenario": "rwp-10k", "nodes": int(scale["world_nodes"]),
         "ticks": int(scale["world_ticks"])})

    # the transfers phase under load: the rwp-10k-traffic workload (Poisson
    # arrivals, 1 MiB payloads over a slow radio keep thousands of links
    # draining at once) on the reference and the production world; gated on
    # payload bytes completed per wall-second of transfers phase.
    # The CRC checksums chain every relayed/delivered/aborted record, so
    # the pair also pins completion order and byte accounting
    benchmarks["transfer_churn"] = _paired(
        "transfer_churn",
        bench_transfer_churn(scale, seed, reference=True),
        bench_transfer_churn(scale, seed, reference=False),
        "transfer_bytes_per_s",
        {"scenario": "rwp-10k-traffic", "nodes": int(scale["traffic_nodes"]),
         "ticks": int(scale["traffic_ticks"]),
         "traffic_rate": float(scale["traffic_rate"]),
         "baseline": "reference tick (live-link scan)"})

    # the world_tick_10k runs gate a second claim: whole-tick throughput of
    # the production world against the reference world, at 10k nodes where
    # repeats are cheap; the completed 100k run rides along with its own
    # parity bit
    entry = _paired(
        "world_tick_100k",
        world_reference,
        world_current,
        "ticks_per_s",
        {"scenario": "rwp-10k", "nodes": int(scale["world_nodes"]),
         "ticks": int(scale["world_ticks"]),
         "scale_scenario": "rwp-100k",
         "scale_nodes": int(scale["world100k_nodes"])})
    entry["scale_100k"] = bench_world_tick_100k_run(scale, seed)
    benchmarks["world_tick_100k"] = entry

    return {
        "schema": 1,
        "tool": "python -m repro bench",
        "repro_version": __version__,
        "scale": scale_name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        # provenance, aligned with the results store's per-row fields: when
        # and on what platform this trajectory point was measured
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
                       .isoformat(timespec="seconds"),
        "platform": platform.platform(),
        "peak_rss_mb": peak_rss_mb(),
        "benchmarks": benchmarks,
    }


def compare_to_baseline(payload: Dict[str, object], baseline: Dict[str, object],
                        max_regression: float = 0.25) -> List[str]:
    """Regressions of *payload* against a committed baseline payload.

    Every benchmark is *paired* — reference and vectorized run back to back
    on the same machine — so the hardware-neutral trajectory metric is the
    **speedup ratio**, not the absolute throughput (a CI runner is not the
    laptop that wrote the committed baseline).  A benchmark regresses when
    its current speedup fell more than ``max_regression`` (fraction) below
    the committed one: that means the vectorized path lost ground against
    the very same reference code on the very same machine.  Returns
    human-readable failure strings (empty = gate passes); a scale mismatch
    is reported as a failure since workloads would not be comparable.
    """
    failures: List[str] = []
    if payload.get("scale") != baseline.get("scale"):
        failures.append(
            f"scale mismatch: current {payload.get('scale')!r} vs "
            f"baseline {baseline.get('scale')!r}")
        return failures
    current_benchmarks = payload.get("benchmarks", {})
    for name, base_entry in baseline.get("benchmarks", {}).items():
        entry = current_benchmarks.get(name)  # type: ignore[union-attr]
        if entry is None:
            failures.append(f"{name}: benchmark missing from current run")
            continue
        base_speedup = base_entry.get("speedup")
        cur_speedup = entry.get("speedup")
        if base_speedup is None or cur_speedup is None:
            continue
        floor = (1.0 - max_regression) * float(base_speedup)
        if float(cur_speedup) < floor:
            failures.append(
                f"{name}: speedup {float(cur_speedup):.2f}x fell below "
                f"{floor:.2f}x ({(1.0 - max_regression) * 100:.0f}% of the "
                f"committed {float(base_speedup):.2f}x)")
    return failures


def format_summary(payload: Dict[str, object]) -> str:
    """Human-readable table of one bench payload."""
    lines = [f"repro bench — scale {payload['scale']}, seed {payload['seed']}, "
             f"python {payload['python']}, numpy {payload['numpy']}"]
    header = (f"{'benchmark':<22}{'baseline':>14}{'current':>14}"
              f"{'speedup':>9}  {'checksums':<9}")
    lines.append(header)
    lines.append("-" * len(header))
    for name, entry in payload["benchmarks"].items():  # type: ignore[union-attr]
        key = entry["throughput_key"]
        base = entry["baseline"][key]
        cur = entry["current"][key]
        match = "match" if entry["checksums_match"] else "MISMATCH"
        speedup = entry["speedup"]
        lines.append(f"{name:<22}{base:>14,.0f}{cur:>14,.0f}"
                     f"{speedup:>8.2f}x  {match:<9} ({key})")
    rss = payload.get("peak_rss_mb")
    if rss is not None:
        lines.append(f"peak RSS: {rss:.1f} MiB")
    return "\n".join(lines)


def write_payload(payload: Dict[str, object], path: str) -> None:
    """Write the payload as pretty JSON (the ``BENCH_*.json`` artifact)."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_payload(path: str) -> Dict[str, object]:
    """Read a previously written ``BENCH_*.json``."""
    with open(path) as handle:
        return json.load(handle)
