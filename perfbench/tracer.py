"""Per-layer tracing, applied from outside the program.

The traced run wraps the public functions each layer exposes; the simulator
itself carries no benchmark instrumentation.  Two kinds of hook are used:

* **Spans.**  Every world tick records a ``tick`` span and one span per
  pipeline phase (``move``, ``connectivity``, ``transfers``, ``routers``),
  plus ``mobility.advance`` under ``move`` and ``connectivity.detect``
  under ``connectivity``.  A span is ``(name, start, end, parent, cell)``;
  spans live in compact in-memory arrays and are written out once, when
  the run ends (:meth:`Tracer.save`).
* **Counters.**  Knowledge-layer calls are far too frequent for one span
  each, so every call adds to a count and a summed time, kept per
  enclosing phase span (``-1`` outside any tick).

The hooks patch the names the program actually calls:
``expected_encounter_value`` is imported by name into ``repro.core.eer``
and ``repro.core.cr`` (patching ``repro.core.expectation`` alone would
count nothing), and ``dijkstra_delays`` is looked up as a module global of
``repro.contacts.memd`` inside ``MemdCache.delays``.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List

import numpy as np

#: span names, indexed by the integer code stored in the span arrays
SPAN_NAMES = ("tick", "move", "connectivity", "transfers", "routers",
              "mobility.advance", "connectivity.detect")
_CODE = {name: code for code, name in enumerate(SPAN_NAMES)}

#: knowledge-layer call kinds, indexed by the code stored in the counter rows
KINDS = ("memd.lookup", "memd.dijkstra", "expectation.eev", "maxprop.path_cost")

#: the pipeline phases, in tick order
PHASES = ("move", "connectivity", "transfers", "routers")


def tail_percentile(samples: np.ndarray, q: float = 99.0) -> float:
    """Percentile *q* of *samples*, capped so at least ten samples lie beyond it.

    With fewer than ``10 / (1 - q/100)`` samples the q-th percentile would
    rest on fewer than ten observations; the cap reports the highest
    percentile that still has ten above it (never below the median).
    """
    n = len(samples)
    if n == 0:
        return 0.0
    capped = min(q, 100.0 * (1.0 - 10.0 / n)) if n > 10 else 50.0
    return float(np.percentile(samples, max(50.0, capped)))


class Tracer:
    """Records spans and knowledge-layer counters for one traced run."""

    def __init__(self) -> None:
        self.names = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.cells = array("h")
        # sparse knowledge-layer rows: (span, kind, calls, seconds)
        self.k_span = array("i")
        self.k_kind = array("b")
        self.k_calls = array("q")
        self.k_seconds = array("d")
        self.cell = 0
        self._open: List[int] = []
        self._calls = [0] * len(KINDS)
        self._seconds = [0.0] * len(KINDS)
        #: summed time of outermost knowledge-layer calls per open phase
        self._knowledge_outer = 0.0
        self._depth = 0
        self.outer_knowledge: Dict[int, float] = {}
        self.totals_calls = [0] * len(KINDS)
        self.totals_seconds = [0.0] * len(KINDS)
        self.memd_misses = 0
        self.add_node_seconds = 0.0
        self._restore: List[Callable[[], None]] = []

    # ----------------------------------------------------------- spans
    def _begin(self, code: int) -> int:
        index = len(self.names)
        self.names.append(code)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._open[-1] if self._open else -1)
        self.cells.append(self.cell)
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    def _flush_knowledge(self, span: int) -> None:
        """Move the counters accumulated under phase *span* into rows."""
        for kind, calls in enumerate(self._calls):
            if calls:
                self.k_span.append(span)
                self.k_kind.append(kind)
                self.k_calls.append(calls)
                self.k_seconds.append(self._seconds[kind])
                self._calls[kind] = 0
                self._seconds[kind] = 0.0
        if self._knowledge_outer:
            self.outer_knowledge[span] = (
                self.outer_knowledge.get(span, 0.0) + self._knowledge_outer)
            self._knowledge_outer = 0.0

    def span(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped so every call records one span called *name*."""
        code = _CODE[name]
        is_phase = name in PHASES

        def traced(*args, **kwargs):
            if is_phase:
                self._flush_knowledge(-1)
            index = self._begin(code)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index)
                if is_phase:
                    self._flush_knowledge(index)
        return traced

    # -------------------------------------------------------- counters
    def counted(self, kind: str, fn: Callable) -> Callable:
        """*fn* wrapped so every call adds to *kind*'s count and time."""
        code = KINDS.index(kind)
        perf_counter = time.perf_counter

        def counted(*args, **kwargs):
            self._depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._depth -= 1
                self._calls[code] += 1
                self._seconds[code] += elapsed
                self.totals_calls[code] += 1
                self.totals_seconds[code] += elapsed
                if self._depth == 0:
                    self._knowledge_outer += elapsed
        return counted

    # ----------------------------------------------------------- hooks
    def _patch(self, owner, name: str, replacement) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, replacement)
        self._restore.append(lambda: setattr(owner, name, original))

    def install_module_hooks(self) -> None:
        """Wrap the layer functions that live on classes and modules."""
        import repro.contacts.memd as memd
        import repro.core.cr as cr
        import repro.core.eer as eer
        import repro.core.expectation as expectation
        from repro.routing.maxprop import MaxPropRouter
        from repro.world.world import World

        tracer = self
        self._patch(memd, "dijkstra_delays",
                    self.counted("memd.dijkstra", memd.dijkstra_delays))
        lookup = self.counted("memd.lookup", memd.MemdCache.delays)
        dijkstra = KINDS.index("memd.dijkstra")

        def delays(cache, *args, **kwargs):
            before = tracer.totals_calls[dijkstra]
            try:
                return lookup(cache, *args, **kwargs)
            finally:
                if tracer.totals_calls[dijkstra] != before:
                    tracer.memd_misses += 1
        self._patch(memd.MemdCache, "delays", delays)
        eev = self.counted("expectation.eev",
                           expectation.expected_encounter_value)
        for module in (expectation, eer, cr):
            self._patch(module, "expected_encounter_value", eev)
        self._patch(MaxPropRouter, "path_cost",
                    self.counted("maxprop.path_cost", MaxPropRouter.path_cost))
        add_node = World.add_node

        def traced_add_node(world, node):
            start = time.perf_counter()
            try:
                return add_node(world, node)
            finally:
                tracer.add_node_seconds += time.perf_counter() - start
        self._patch(World, "add_node", traced_add_node)

    def attach(self, world, cell: int) -> None:
        """Wrap one built world's tick, phases, movement and detector."""
        self.cell = cell
        pipeline = world.pipeline
        for phase in pipeline._phases:
            pipeline.replace_phase(phase.name, self.span(phase.name, phase.fn))
        pipeline.run = self.span("tick", pipeline.run)
        world.movement.advance = self.span("mobility.advance",
                                           world.movement.advance)
        world.detector.update = self.span("connectivity.detect",
                                          world.detector.update)

    def uninstall(self) -> None:
        """Undo every class- and module-level patch (reverse order)."""
        while self._restore:
            self._restore.pop()()

    # ---------------------------------------------------------- output
    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans and counter rows as NumPy arrays."""
        return {
            "span_name": np.frombuffer(self.names, dtype=np.int8).copy(),
            "span_start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "span_end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "span_parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "span_cell": np.frombuffer(self.cells, dtype=np.int16).copy(),
            "knowledge_span": np.frombuffer(self.k_span, dtype=np.int32).copy(),
            "knowledge_kind": np.frombuffer(self.k_kind, dtype=np.int8).copy(),
            "knowledge_calls": np.frombuffer(self.k_calls, dtype=np.int64).copy(),
            "knowledge_seconds": np.frombuffer(self.k_seconds, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write the spans and counter rows to *path* (``.npz``)."""
        np.savez_compressed(path, span_names=np.array(SPAN_NAMES),
                            knowledge_kinds=np.array(KINDS), **self.arrays())

    def _durations(self) -> Dict[str, np.ndarray]:
        """Span name -> the durations of every span of that name."""
        names = np.frombuffer(self.names, dtype=np.int8)
        duration = (np.frombuffer(self.ends, dtype=np.float64)
                    - np.frombuffer(self.starts, dtype=np.float64))
        return {name: duration[names == code] for name, code in _CODE.items()}

    def layer_metrics(self, reports, run_seconds: float,
                      finalize_seconds: float) -> Dict[str, float]:
        """Per-layer metrics of the run (``layer.metric`` -> value)."""
        spans = self._durations()
        total = {name: float(values.sum()) for name, values in spans.items()}
        routers_spans = np.flatnonzero(
            np.frombuffer(self.names, dtype=np.int8) == _CODE["routers"])
        routers_knowledge = sum(self.outer_knowledge.get(int(i), 0.0)
                                for i in routers_spans)
        calls = dict(zip(KINDS, self.totals_calls))
        seconds = dict(zip(KINDS, self.totals_seconds))
        lookups = calls["memd.lookup"]

        def field_sum(field: str) -> int:
            return int(sum(getattr(report, field) for report in reports))

        def ms(value: float) -> float:
            return value * 1e3

        return {
            "world.add_node_s": self.add_node_seconds,
            "mobility.advance_s": total["mobility.advance"],
            "mobility.tick_ms_p50": ms(np.percentile(spans["mobility.advance"], 50)),
            "mobility.tick_ms_p99": ms(tail_percentile(spans["mobility.advance"])),
            "connectivity.detect_s": total["connectivity.detect"],
            "connectivity.detect_ms_p99": ms(tail_percentile(spans["connectivity.detect"])),
            "connectivity.links_s": total["connectivity"] - total["connectivity.detect"],
            "connectivity.link_ups": field_sum("contacts"),
            "transfers.phase_s": total["transfers"],
            "transfers.completed": field_sum("transfers_completed"),
            "transfers.aborted": field_sum("transfers_aborted"),
            "routers.phase_s": total["routers"],
            "routers.tick_ms_p50": ms(np.percentile(spans["routers"], 50)),
            "routers.tick_ms_p99": ms(tail_percentile(spans["routers"])),
            "routers.self_s": total["routers"] - routers_knowledge,
            "routers.ticked": field_sum("routers_ticked"),
            "routers.batched": field_sum("routers_batched"),
            "routers.skipped": field_sum("routers_skipped"),
            "memd.lookups": lookups,
            "memd.dijkstra_calls": calls["memd.dijkstra"],
            "memd.dijkstra_s": seconds["memd.dijkstra"],
            "memd.hit_ratio": (lookups - self.memd_misses) / lookups if lookups else 0.0,
            "expectation.eev_calls": calls["expectation.eev"],
            "expectation.eev_s": seconds["expectation.eev"],
            "maxprop.path_cost_calls": calls["maxprop.path_cost"],
            "maxprop.path_cost_s": seconds["maxprop.path_cost"],
            "sim.ticks": len(spans["tick"]),
            "sim.loop_s": run_seconds - sum(total[name] for name in PHASES),
            "reports.finalize_s": finalize_seconds,
        }

    def phase_shares(self, run_seconds: float) -> Dict[str, float]:
        """Share of run time per phase (detection split out of connectivity)."""
        total = {name: float(values.sum())
                 for name, values in self._durations().items()}
        shares = {
            "move": total["move"],
            "connectivity.detect": total["connectivity.detect"],
            "connectivity.links": total["connectivity"] - total["connectivity.detect"],
            "transfers": total["transfers"],
            "routers": total["routers"],
        }
        shares["sim.loop"] = run_seconds - sum(shares.values())
        return {name: round(value / run_seconds, 3) for name, value in shares.items()}
