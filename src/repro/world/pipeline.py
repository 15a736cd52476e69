"""The staged world-tick pipeline.

:class:`TickPipeline` turns the world update from one opaque method into an
explicit sequence of named phases — ``move``, ``connectivity``,
``transfers``, ``routers`` — each independently replaceable and metered.
A phase is a plain callable ``(now, dt) -> None``, so another
implementation of a stage slots in behind the same phase name without the
world loop changing shape.

Every phase execution is wall-clock metered through
:meth:`~repro.metrics.collector.StatsCollector.tick_phase`; the accumulated
per-phase seconds surface in :class:`~repro.metrics.reports.SimulationReport`
(as a timing side channel excluded from the canonical serialisation — wall
time is machine-specific, the simulation result is not).  The repository
benchmark (``perfbench/``) wraps each phase by name through
:meth:`TickPipeline.replace_phase` to time it tick by tick.

The metering overhead is two ``perf_counter`` calls per phase per tick
(sub-microsecond), which is why it stays on even for benchmark runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.metrics.collector import StatsCollector

#: phase callable signature: ``(now, dt) -> None``
PhaseFn = Callable[[float, float], None]


@dataclass(frozen=True)
class TickPhase:
    """One named stage of the world tick."""

    name: str
    fn: PhaseFn

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a tick phase needs a non-empty name")
        if not callable(self.fn):
            raise ValueError(f"phase {self.name!r} needs a callable fn")


class TickPipeline:
    """Runs an ordered list of :class:`TickPhase` once per world update.

    Parameters
    ----------
    phases:
        The stages, in execution order.  Phase names must be unique — they
        key the per-phase timing aggregation.
    stats:
        Collector receiving one :meth:`~StatsCollector.tick_phase` sample
        per phase per run; ``None`` disables metering entirely.
    """

    def __init__(self, phases: Sequence[TickPhase],
                 stats: Optional[StatsCollector] = None) -> None:
        if not phases:
            raise ValueError("a tick pipeline needs at least one phase")
        names = [phase.name for phase in phases]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate phase names in {names}")
        self._phases: Tuple[TickPhase, ...] = tuple(phases)
        self.stats = stats
        self.runs = 0

    @property
    def phase_names(self) -> List[str]:
        """The phase names, in execution order."""
        return [phase.name for phase in self._phases]

    def replace_phase(self, name: str, fn: PhaseFn) -> None:
        """Swap the implementation of phase *name* (same position, same name).

        This is the extension point for tracers that time a stage and for
        tests that stub one out; unknown names raise ``KeyError``.
        """
        for index, phase in enumerate(self._phases):
            if phase.name == name:
                phases = list(self._phases)
                phases[index] = TickPhase(name, fn)
                self._phases = tuple(phases)
                return
        raise KeyError(f"no tick phase named {name!r}; "
                       f"known: {', '.join(self.phase_names)}")

    def run(self, now: float, dt: float) -> None:
        """Execute every phase in order, metering each one."""
        stats = self.stats
        perf_counter = time.perf_counter
        for phase in self._phases:
            if stats is None:
                phase.fn(now, dt)
            else:
                start = perf_counter()
                phase.fn(now, dt)
                stats.tick_phase(phase.name, perf_counter() - start)
        self.runs += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TickPipeline({' -> '.join(self.phase_names)}, runs={self.runs})"
