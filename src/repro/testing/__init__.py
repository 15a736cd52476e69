"""Importable test helpers.

The test-suite builds most router-level scenarios on small, fully
deterministic *trace-replay* worlds: connectivity is prescribed by an
explicit contact trace, so the exact sequence of meetings (and therefore of
routing decisions) is known in advance.  The helpers live here — inside the
installed package rather than in ``tests/conftest.py`` — so test modules can
import them without relying on pytest's ``conftest`` path insertion (which
broke when ``benchmarks/conftest.py`` shadowed ``tests/conftest.py``).

Two submodules hold the behavioural contract: :mod:`repro.testing.golden`
defines the committed golden-digest lockfile, and
:mod:`repro.testing.reference` is the naive executable specification of the
world tick.  Neither is imported by production code.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.collector import COUNTER_METERS
from repro.metrics.reports import canonical_report_json
from repro.net.message import Message
from repro.sim.engine import Simulator
from repro.traces.contact_trace import ContactEvent, ContactTrace
from repro.traces.replay import TraceReplayWorld, build_trace_world

__all__ = ["make_trace", "make_contact_plan", "make_world", "inject_message",
           "run_report", "canonical_report_bytes",
           "admissible_checkpoint_times", "assert_resume_equality"]


def make_trace(events: Iterable[Tuple[float, int, int, bool]]) -> ContactTrace:
    """Build a :class:`ContactTrace` from ``(time, a, b, up)`` tuples."""
    return ContactTrace([ContactEvent(t, a, b, up) for t, a, b, up in events])


def make_contact_plan(contacts: Iterable[Tuple[float, float, int, int]]) -> ContactTrace:
    """Build a trace from ``(start, end, a, b)`` contact intervals."""
    events = []
    for start, end, a, b in contacts:
        events.append(ContactEvent(start, a, b, True))
        events.append(ContactEvent(end, a, b, False))
    return ContactTrace(events)


def make_world(trace: ContactTrace, protocol: str = "epidemic", *,
               num_nodes: Optional[int] = None,
               communities: Optional[Dict[int, int]] = None,
               update_interval: float = 1.0,
               buffer_capacity: float = 10 * 1024 * 1024,
               router_params: Optional[dict] = None,
               seed: int = 1) -> Tuple[Simulator, TraceReplayWorld]:
    """Build a deterministic trace-replay world for router tests."""
    return build_trace_world(
        trace, protocol=protocol, seed=seed, update_interval=update_interval,
        buffer_capacity=buffer_capacity, num_nodes=num_nodes,
        communities=communities, router_params=router_params)


def inject_message(world, source: int, destination: int, *, now: float = 0.0,
                   size: int = 1000, ttl: float = 10_000.0, copies: int = 1,
                   message_id: str = "M1") -> Message:
    """Create and inject one message at *source*; returns the message."""
    message = Message(message_id, source, destination, size, now, ttl, copies,
                      dest_community=world.community_of(destination))
    world.create_message(source, message)
    return message


def run_report(config, *, reference: bool = False):
    """Build, run and summarise *config* — :func:`~repro.experiments.runner.
    run_scenario`, optionally on the reference tick."""
    from repro.experiments.builder import build_scenario
    from repro.experiments.runner import finalize_report

    built = build_scenario(config, reference=reference)
    try:
        built.run()
    finally:
        built.world.stop()
    return finalize_report(built.stats, config)


# ------------------------------------------------------ resume equality
def canonical_report_bytes(report) -> bytes:
    """The canonical byte form of a :class:`SimulationReport`.

    :func:`~repro.metrics.reports.canonical_report_json` encoded: the bytes
    the results store persists and the golden-digest lockfile pins, and the
    ones compared between production and reference worlds, serial and
    process-pool backends, and resumed and straight runs.
    """
    return canonical_report_json(report).encode()


def admissible_checkpoint_times(config, *, stride: int = 1) -> List[float]:
    """Every interior tick boundary of *config*'s run, optionally strided.

    A checkpoint is admissible at any multiple of ``update_interval`` in the
    open interval ``(0, sim_time)``: the world tick scheduled at that time
    has fired, so a save/restore there resumes on exactly the next event.
    ``stride=k`` keeps every *k*-th boundary (for affordable sweeps of long
    scenarios).
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    ticks = int(round(config.sim_time / config.update_interval))
    return [k * config.update_interval for k in range(1, ticks, stride)]


def assert_resume_equality(config,
                           checkpoint_times: Optional[Sequence[float]] = None,
                           *, stride: int = 1, reference: bool = False) -> None:
    """Assert that checkpoint/restore is invisible in *config*'s report.

    Runs the scenario straight through, then — for every checkpoint time —
    re-runs it with a full save/restore cycle at that boundary (serialize
    the world to container bytes, tear the original down, deserialize,
    resume) and requires the resumed run's canonical report bytes and
    counter telemetry to equal the straight-through run's exactly.
    ``checkpoint_times`` defaults to :func:`admissible_checkpoint_times`
    with *stride*; ``reference=True`` runs both on the reference tick
    (:mod:`repro.testing.reference`).

    Raises ``AssertionError`` naming the first diverging checkpoint time.
    """
    from repro.checkpoint import load_checkpoint_bytes, save_checkpoint_bytes
    from repro.experiments.builder import build_scenario
    from repro.experiments.runner import finalize_report

    if checkpoint_times is None:
        checkpoint_times = admissible_checkpoint_times(config, stride=stride)
    straight = run_report(config, reference=reference)
    baseline = canonical_report_bytes(straight)
    counters = _counter_meters(straight)
    for at in checkpoint_times:
        if not 0.0 < at < config.sim_time:
            raise ValueError(
                f"checkpoint time {at:g} outside (0, {config.sim_time:g})")
        built = build_scenario(config, reference=reference)
        try:
            built.simulator.run(until=at)
            blob = save_checkpoint_bytes(built.world, config=config)
        finally:
            built.world.stop()
        restored = load_checkpoint_bytes(blob)
        try:
            restored.world.simulator.run(until=config.sim_time)
            resumed = finalize_report(restored.world.stats, config)
        finally:
            restored.world.stop()
        if canonical_report_bytes(resumed) != baseline:
            raise AssertionError(
                f"resumed report diverged from the straight-through run "
                f"(scenario {config.name!r}, checkpoint at t={at:g})")
        if _counter_meters(resumed) != counters:
            raise AssertionError(
                f"resumed counter telemetry diverged from the straight-through "
                f"run (scenario {config.name!r}, checkpoint at t={at:g}): "
                f"{_counter_meters(resumed)} != {counters}")


def _counter_meters(report) -> Dict[str, object]:
    return {name: report.telemetry[name] for name in COUNTER_METERS}
