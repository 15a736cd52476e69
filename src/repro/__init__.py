"""Reproduction of Chen & Lou, "On Using Contact Expectation for Routing in
Delay Tolerant Networks" (ICPP 2011).

The package is organised as a small set of substrates (a discrete-event DTN
simulator comparable to the subset of the ONE simulator the paper uses) and
the paper's contributions on top of them:

``repro.sim``
    Discrete-event engine: event queue, simulation clock, periodic processes
    and seeded random-number streams.
``repro.world``
    Nodes, radio interfaces, range-based connectivity detection and the world
    update loop.
``repro.mobility``
    Movement models, including the map-route (bus line) mobility the paper
    evaluates on and a community-structured movement model.
``repro.net``
    Messages, bounded buffers, bandwidth-limited connections and traffic
    generators.
``repro.contacts``
    Per-pair contact histories, the meeting-interval matrix (MI), the
    expected-meeting-delay matrix (MD), the MEMD solver and the shortest-path
    kernel it shares with MaxProp.
``repro.core``
    The paper's contribution: expected encounter value (Theorem 1), expected
    meeting delay (Theorem 2), expected number of encountering communities
    (Theorem 4), replica splitting, and the EER and CR routing protocols.
``repro.routing``
    Baseline routers: Epidemic, Direct Delivery, First Contact, PRoPHET,
    MaxProp, Spray-and-Wait, Spray-and-Focus and EBR.
``repro.community``
    Community assignment and detection (k-clique, Newman modularity, Clauset
    local detection).
``repro.metrics``
    Event-driven statistics collection and the paper's three metrics
    (delivery ratio, latency, goodput).
``repro.traces``
    Contact-trace export/import (ONE report + CSV), replay and synthetic
    trace generators.
``repro.experiments``
    Scenario configuration and catalog, runners, sweeps and per-figure
    experiment drivers.
``repro.analysis``
    Series assembly, summary statistics and text rendering of figures.
``repro.store``
    Append-only SQLite results store keyed by the canonical
    ``(scenario, protocol, seed, config_hash)`` identity, plus the spool-
    directory experiment service behind ``repro serve``.
``repro.api``
    The stable public facade: blessed entry points (``run``,
    ``run_averaged``, ``sweep``, ``figure``, ``open_store``, ...) that stay
    put across refactors of the packages above.
``repro.cli``
    The ``python -m repro`` command line
    (list/run/sweep/figure/serve/bench).
"""

from repro.version import __version__

__all__ = ["__version__"]
