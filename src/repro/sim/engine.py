"""The simulation engine.

:class:`Simulator` owns the clock and the event queue, and exposes
``schedule``/``schedule_at``/``run`` primitives.  It knows nothing about DTNs;
the world, traffic generators and reports all hook in through events.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim._collector import heap_frozen
from repro.sim.events import CallbackEvent, Event, EventQueue
from repro.sim.rng import RandomStreams


class SimulationError(RuntimeError):
    """Raised for engine misuse (scheduling in the past, running twice, ...)."""


class Simulator:
    """Discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the :class:`~repro.sim.rng.RandomStreams` family.
    end_time:
        Default simulation horizon used by :meth:`run` when no explicit
        ``until`` is given.

    Notes
    -----
    The clock only moves forward, to the timestamp of each fired event.
    Events scheduled for the same timestamp fire in (priority, insertion)
    order.
    """

    def __init__(self, seed: int = 0, end_time: float = float("inf")) -> None:
        self._now = 0.0
        self.end_time = float(end_time)
        self.queue = EventQueue()
        self.random = RandomStreams(seed)
        self._running = False
        self._stopped = False
        self._finish_hooks: List[Callable[["Simulator"], None]] = []
        self.fired_events = 0

    def __getstate__(self) -> dict:
        # checkpoint support: a snapshot may be taken between two `run`
        # segments (or, via an event callback, *during* one) — either way
        # the restored simulator must be startable, not "already running"
        state = self.__dict__.copy()
        state["_running"] = False
        state["_stopped"] = False
        return state

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[["Simulator"], None],
                 priority: int = 10) -> Event:
        """Schedule *callback* to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.queue.push(CallbackEvent(self._now + delay, callback, priority))

    def schedule_at(self, time: float, callback: Callable[["Simulator"], None],
                    priority: int = 10) -> Event:
        """Schedule *callback* to run at absolute simulation time *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (t={time}, now={self._now})")
        return self.queue.push(CallbackEvent(time, callback, priority))

    def schedule_event(self, event: Event) -> Event:
        """Schedule a pre-built :class:`Event` subclass instance."""
        if event.time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (t={event.time}, now={self._now})")
        return self.queue.push(event)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event."""
        self.queue.cancel(event)

    def add_finish_hook(self, hook: Callable[["Simulator"], None]) -> None:
        """Register *hook* to be invoked once when the run finishes."""
        self._finish_hooks.append(hook)

    # ------------------------------------------------------------------- run
    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains or the horizon is reached.

        Parameters
        ----------
        until:
            Absolute stop time.  Defaults to ``end_time``.  Events scheduled
            exactly at the horizon still fire; later events remain queued.

        Returns
        -------
        float
            The simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        horizon = self.end_time if until is None else float(until)
        if horizon < self._now:
            raise SimulationError(f"horizon {horizon} is before current time {self._now}")
        self._running = True
        self._stopped = False
        # everything alive now (the built world) outlives the run: keep the
        # cyclic collector from re-scanning it on every collection
        with heap_frozen():
            try:
                while self.queue and not self._stopped:
                    next_time = self.queue.peek_time()
                    if next_time is None or next_time > horizon:
                        break
                    event = self.queue.pop()
                    self._now = event.time
                    event.fire(self)
                    self.fired_events += 1
                self._now = max(self._now, min(horizon, self.end_time)
                                if horizon != float("inf") else self._now)
            finally:
                self._running = False
            for hook in self._finish_hooks:
                hook(self)
            self._finish_hooks.clear()
        return self._now

    def step(self) -> bool:
        """Fire exactly one event.  Returns ``False`` if the queue is empty."""
        if not self.queue:
            return False
        event = self.queue.pop()
        self._now = event.time
        event.fire(self)
        self.fired_events += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Simulator(now={self._now:.2f}, pending={len(self.queue)}, "
                f"fired={self.fired_events})")
