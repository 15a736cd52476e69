"""The scenario registry.

Every runnable workload is a named, discoverable :class:`ScenarioEntry` here:
the paper's bus scenario at both scales, the other geometric mobility models,
synthetic trace-replay scenarios, and two file-backed demo traces (one per
supported on-disk format).  The CLI's ``list``/``run``/``sweep`` commands and
future workload PRs all go through this module — a scenario that is not in
the catalog is invisible to users who are not reading the source.

Registering a new scenario is one call::

    from repro.experiments.catalog import register_scenario
    from repro.experiments.scenario import ScenarioConfig

    register_scenario(
        "rush-hour",
        lambda: ScenarioConfig.bench_scale(num_nodes=120,
                                           message_interval=(5.0, 10.0)),
        summary="bus scenario under 4x traffic load",
    )

Factories return a fresh :class:`ScenarioConfig`; per-invocation overrides
(protocol, seeds, ``router.alpha``, …) are applied on top by
:func:`make_scenario`, so one entry covers every protocol and sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional

from repro.experiments.scenario import MobilityKind, ScenarioConfig, apply_overrides

#: directory holding the demo trace fixtures shipped with the package
TRACE_DATA_DIR = Path(__file__).resolve().parent.parent / "traces" / "data"


@dataclass(frozen=True)
class ScenarioEntry:
    """One named, runnable workload.

    Attributes
    ----------
    name:
        Registry key (what ``python -m repro run <name>`` takes).
    factory:
        Zero-argument callable returning a fresh base :class:`ScenarioConfig`.
    summary:
        One line for ``python -m repro list``.
    kind:
        ``"geometric"`` (mobility-model driven) or ``"trace"`` (replayed).
    provenance:
        Where the workload comes from (paper section, trace format, …).
    """

    name: str
    factory: Callable[[], ScenarioConfig]
    summary: str = ""
    kind: str = "geometric"
    provenance: str = ""

    def describe(self) -> Dict[str, object]:
        """JSON-friendly summary (builds one config to report its shape)."""
        config = self.factory()
        return {
            "name": self.name,
            "kind": self.kind,
            "summary": self.summary,
            "provenance": self.provenance,
            "mobility": config.mobility.value,
            "num_nodes": config.num_nodes,
            "sim_time": config.sim_time,
            "default_protocol": config.protocol,
        }


_SCENARIOS: Dict[str, ScenarioEntry] = {}


def register_scenario(name: str, factory: Callable[[], ScenarioConfig], *,
                      summary: str = "", kind: str = "geometric",
                      provenance: str = "",
                      overwrite: bool = False) -> ScenarioEntry:
    """Register *factory* under *name* and return the created entry.

    Parameters
    ----------
    name:
        Registry key; must be new unless *overwrite* is set.
    factory:
        Zero-argument callable producing the base :class:`ScenarioConfig`.
    summary, kind, provenance:
        Catalog metadata (see :class:`ScenarioEntry`).
    overwrite:
        Allow replacing an existing entry.

    Raises
    ------
    ValueError
        If *name* is taken and *overwrite* is false, or *factory* is not
        callable.
    """
    if not callable(factory):
        raise ValueError("scenario factory must be callable")
    if name in _SCENARIOS and not overwrite:
        raise ValueError(f"scenario {name!r} is already registered "
                         f"(pass overwrite=True to replace it)")
    entry = ScenarioEntry(name=name, factory=factory, summary=summary,
                          kind=kind, provenance=provenance)
    _SCENARIOS[name] = entry
    return entry


def available_scenarios() -> List[str]:
    """Sorted names of every registered scenario."""
    return sorted(_SCENARIOS)


def scenario_entries() -> List[ScenarioEntry]:
    """All registry entries, sorted by name."""
    return [_SCENARIOS[name] for name in available_scenarios()]


def get_scenario_entry(name: str) -> ScenarioEntry:
    """Look up one entry.

    Raises
    ------
    KeyError
        With the list of known names, if *name* is not registered.
    """
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: "
            f"{', '.join(available_scenarios())}") from None


def make_scenario(name: str,
                  overrides: Optional[Mapping[str, object]] = None,
                  **kw_overrides) -> ScenarioConfig:
    """Build the named scenario's config with overrides applied.

    Overrides may be passed as a mapping, as keyword arguments, or both
    (keywords win); ``router.``-prefixed keys go to ``router_params`` as in
    :func:`~repro.experiments.scenario.apply_overrides`.

    Examples
    --------
    >>> config = make_scenario("bench", protocol="cr", num_nodes=60)
    >>> config = make_scenario("trace-periodic", {"router.alpha": 0.5})
    """
    entry = get_scenario_entry(name)
    config = entry.factory()
    merged: Dict[str, object] = dict(overrides or {})
    merged.update(kw_overrides)
    if merged:
        config = apply_overrides(config, merged)
    return config


# --------------------------------------------------------------- built-ins
def _trace_base(**overrides) -> ScenarioConfig:
    """Shared radio/traffic settings for the synthetic trace scenarios.

    The geometry fields are irrelevant (nodes are stationary); radio and
    traffic follow ``bench_scale`` so trace and mobility runs are comparable.
    """
    base = dict(
        mobility=MobilityKind.TRACE,
        num_nodes=40,
        sim_time=3_000.0,
        update_interval=1.0,
        transmit_speed=2_000_000 / 8,
        buffer_capacity=1024 * 1024,
        message_interval=(20.0, 30.0),
        message_ttl=20 * 60.0,
        message_copies=10,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _register_builtins() -> None:
    register_scenario(
        "paper",
        lambda: ScenarioConfig.paper_scale(),
        summary="the paper's bus scenario at full Section V-A settings "
                "(0.1 s updates, 10 m range, 10 000 s)",
        provenance="conf_icpp_ChenL11 Section V-A")
    register_scenario(
        "bench",
        lambda: ScenarioConfig.bench_scale(),
        summary="reduced-scale bus scenario (minutes, not hours; "
                "calibrated contact rate)",
        provenance="conf_icpp_ChenL11 Section V-A, reduced (DESIGN.md)")
    register_scenario(
        "community",
        lambda: ScenarioConfig.bench_scale().with_overrides(
            name="bench-community", mobility=MobilityKind.COMMUNITY),
        summary="community-home random waypoint over the bench map",
        provenance="community ablations (repro.mobility.community)")
    register_scenario(
        "random-waypoint",
        lambda: ScenarioConfig.bench_scale().with_overrides(
            name="bench-rwp", mobility=MobilityKind.RANDOM_WAYPOINT),
        summary="plain random waypoint over the bench rectangle",
        provenance="memoryless mobility baseline")
    register_scenario(
        "shortest-path",
        lambda: ScenarioConfig.bench_scale().with_overrides(
            name="bench-spm", mobility=MobilityKind.SHORTEST_PATH),
        summary="pedestrians on shortest road-map paths (bench map)",
        provenance="ONE simulator's ShortestPathMapBasedMovement lineage")
    register_scenario(
        "rwp-10k",
        lambda: ScenarioConfig.bench_scale(
            protocol="direct", num_nodes=10_000).with_overrides(
            name="rwp-10k", mobility=MobilityKind.RANDOM_WAYPOINT,
            sim_time=600.0,
            min_speed=0.5, max_speed=1.5, stop_wait=(0.0, 120.0),
            message_interval=(2.0, 4.0)),
        summary="10 000 pedestrians on the bench map: cached-candidate "
                "connectivity + batch movement (the scale tentpole)",
        provenance="ROADMAP sharded-worlds item; repro.world.connectivity")
    register_scenario(
        "rwp-10k-traffic",
        lambda: ScenarioConfig.bench_scale(
            protocol="epidemic", num_nodes=10_000).with_overrides(
            name="rwp-10k-traffic", mobility=MobilityKind.RANDOM_WAYPOINT,
            sim_time=600.0,
            # sparse-DTN geometry (~1 neighbour per node, thousands of live
            # links) but *saturated* links: Poisson arrivals at 2 msg/s of
            # 1 MiB payloads over a 62.5 kB/s radio keep each busy link
            # draining one head transfer for ~17 consecutive ticks — the
            # transfers phase is the dominant cost, which is the regime the
            # TransferEngine benchmark (transfer_churn) measures
            map_width=6_000.0, map_height=4_500.0, transmit_range=30.0,
            min_speed=0.5, max_speed=1.5, stop_wait=(0.0, 120.0),
            traffic_model="poisson", traffic_rate=2.0,
            message_size=1024 * 1024, message_ttl=900.0,
            transmit_speed=62_500.0,
            buffer_capacity=32 * 1024 * 1024),
        summary="10 000 pedestrians under Poisson traffic load that "
                "saturates links (1 MiB messages, slow radio): the columnar "
                "transfers-phase benchmark workload",
        provenance="ISSUE 10 traffic workload; repro.net.engine")
    register_scenario(
        "rwp-100k",
        lambda: ScenarioConfig.bench_scale(
            protocol="direct", num_nodes=100_000).with_overrides(
            name="rwp-100k", mobility=MobilityKind.RANDOM_WAYPOINT,
            sim_time=600.0,
            # city-scale rectangle, pedestrian radio: ~1.2 neighbours per
            # node (the paper's sparse-DTN regime), ~60k live links — the
            # contact rate per node-hour stays comparable to rwp-10k while
            # the population grows 10x
            map_width=12_000.0, map_height=9_000.0, transmit_range=20.0,
            min_speed=0.5, max_speed=1.5, stop_wait=(0.0, 120.0),
            message_interval=(2.0, 4.0)),
        summary="100 000 pedestrians at city scale: idle-router skip-list + "
                "batched link events + cached-candidate connectivity",
        provenance="100k-node scale tentpole; repro.world.connectivity")
    register_scenario(
        "hcmm",
        lambda: ScenarioConfig.bench_scale(protocol="cr").with_overrides(
            name="bench-hcmm", mobility=MobilityKind.HCMM,
            roaming_probability=0.15),
        summary="home-cell (caveman/HCMM) mobility; communities emerge from "
                "cell gravitation",
        provenance="repro.mobility.hcmm (Musolesi & Mascolo HCMM lineage)")
    register_scenario(
        "community-sparse",
        lambda: _trace_base(
            name="community-sparse", protocol="cr", num_communities=4,
            trace_generator="community",
            trace_params={"intra_period": 200.0, "inter_period": 2400.0}),
        kind="trace",
        summary="4 well-separated communities (rare inter-community "
                "contacts); CR's best case",
        provenance="repro.traces.generators.community_structured_trace")
    register_scenario(
        "community-dense",
        lambda: _trace_base(
            name="community-dense", protocol="cr", num_communities=8,
            trace_generator="community",
            trace_params={"intra_period": 250.0, "inter_period": 700.0}),
        kind="trace",
        summary="8 weakly-separated communities (frequent inter-community "
                "contacts); detection's hard case",
        provenance="repro.traces.generators.community_structured_trace")
    register_scenario(
        "community-drift",
        lambda: _trace_base(
            name="community-drift", protocol="cr", num_communities=4,
            sim_time=4_000.0,
            trace_generator="drifting",
            trace_params={"drift_interval": 1_000.0, "drift_fraction": 0.3}),
        kind="trace",
        summary="community membership drifts mid-run: the oracle assignment "
                "goes stale, online detection tracks it",
        provenance="repro.traces.generators.drifting_community_trace")
    register_scenario(
        "community-detect",
        lambda: _trace_base(
            name="community-detect", protocol="cr", num_nodes=30,
            num_communities=3, sim_time=2_000.0,
            trace_generator="community",
            trace_params={"intra_period": 150.0, "inter_period": 1500.0}),
        kind="trace",
        summary="detection-vs-oracle comparison bed: run with --protocol "
                "cr / cr-kclique / cr-newman (or sweep "
                "router.community_mode)",
        provenance="CR community modes (docs/communities.md)")
    register_scenario(
        "trace-periodic",
        lambda: _trace_base(name="trace-periodic",
                            trace_generator="periodic"),
        kind="trace",
        summary="synthetic trace: every pair meets near-periodically "
                "(contact expectation's best case)",
        provenance="repro.traces.generators.periodic_contact_trace")
    register_scenario(
        "trace-memoryless",
        lambda: _trace_base(name="trace-memoryless",
                            trace_generator="memoryless"),
        kind="trace",
        summary="synthetic trace: exponential inter-contact times "
                "(memoryless baseline)",
        provenance="repro.traces.generators.random_waypoint_like_trace")
    register_scenario(
        "trace-community",
        lambda: _trace_base(name="trace-community",
                            trace_generator="community"),
        kind="trace",
        summary="synthetic trace with planted community structure "
                "(ground truth for CR)",
        provenance="repro.traces.generators.community_structured_trace")
    register_scenario(
        "trace-csv",
        lambda: _trace_base(
            name="trace-csv",
            num_nodes=12,
            num_communities=3,  # the fixture's planted structure (node % 3)
            sim_time=2_000.0,
            message_interval=(30.0, 60.0),
            trace_path=str(TRACE_DATA_DIR / "demo_contacts.csv"),
            trace_format="csv"),
        kind="trace",
        summary="bundled 12-node CSV contact trace replayed from disk",
        provenance="repro/traces/data/demo_contacts.csv (generic CSV format)")
    register_scenario(
        "trace-one",
        lambda: _trace_base(
            name="trace-one",
            num_nodes=12,
            num_communities=3,  # the fixture's planted structure (node % 3)
            sim_time=2_000.0,
            message_interval=(30.0, 60.0),
            trace_path=str(TRACE_DATA_DIR / "demo_contacts_one.txt"),
            trace_format="one"),
        kind="trace",
        summary="the same bundled trace in the ONE simulator's report format",
        provenance="repro/traces/data/demo_contacts_one.txt (ONE report)")


_register_builtins()
