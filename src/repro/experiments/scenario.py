"""Scenario configuration.

A :class:`ScenarioConfig` captures everything needed to build and run one
simulation: the mobility scenario, radio/buffer parameters, traffic load and
the routing protocol under test.  Two preset factories are provided:

* :meth:`ScenarioConfig.paper_scale` — the paper's settings (Section V-A):
  0.1 s update interval, 10 m range, 2 Mbit/s, 1 MB buffers, 25 KB messages,
  20 min TTL, alpha = 0.28, lambda = 10, 10 000 s runs.
* :meth:`ScenarioConfig.bench_scale` — a reduced-scale variant used by the
  test-suite and the benchmark harness so a full figure regenerates in
  minutes on a laptop.  The update interval is coarser (1 s) and the radio
  range is widened to 40 m to keep the *contact rate per bus-hour* comparable
  to the paper's fine-grained setting (see DESIGN.md, substitutions).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple


class MobilityKind(enum.Enum):
    """Which mobility scenario to build."""

    #: bus lines over the synthetic downtown map (the paper's scenario)
    BUS = "bus"
    #: community-home random waypoint (used by community examples/ablations)
    COMMUNITY = "community"
    #: home-cell attraction with configurable roaming and optional
    #: membership drift (caveman/HCMM-style, repro.mobility.hcmm)
    HCMM = "hcmm"
    #: plain random waypoint over a rectangle
    RANDOM_WAYPOINT = "random_waypoint"
    #: pedestrians walking shortest paths on the road map
    SHORTEST_PATH = "shortest_path"
    #: connectivity replayed from a contact trace (file or named generator);
    #: nodes are stationary and the trace drives link-up/link-down
    TRACE = "trace"


@dataclass
class ScenarioConfig:
    """Full description of one simulation run."""

    # identity
    name: str = "scenario"
    seed: int = 1

    # routing
    protocol: str = "eer"
    router_params: Dict[str, object] = field(default_factory=dict)

    # population / time
    num_nodes: int = 40
    sim_time: float = 10_000.0
    update_interval: float = 1.0

    # mobility
    mobility: MobilityKind = MobilityKind.BUS
    map_width: float = 4500.0
    map_height: float = 3400.0
    map_spacing: float = 300.0
    num_communities: int = 4
    lines_per_district: int = 2
    stops_per_line: int = 5
    express_lines: int = 2
    min_speed: float = 2.7
    max_speed: float = 13.9
    stop_wait: Tuple[float, float] = (10.0, 30.0)
    local_probability: float = 0.85  # community mobility only
    # HCMM mobility only
    #: probability that a waypoint decision leaves the home cell
    roaming_probability: float = 0.15
    #: mean seconds between home-cell migrations (None = static membership)
    rehome_interval: Optional[float] = None

    # trace replay (MobilityKind.TRACE only; exactly one source must be set)
    #: path to an external trace file (ONE report or CSV, see repro.traces.io)
    trace_path: Optional[str] = None
    #: trace file format: "auto", "one" or "csv"
    trace_format: str = "auto"
    #: name of a synthetic generator from repro.traces.generators
    #: ("periodic", "memoryless", "community")
    trace_generator: Optional[str] = None
    #: extra keyword arguments for the generator (seed/num_nodes/duration
    #: default to the scenario's own values)
    trace_params: Dict[str, object] = field(default_factory=dict)
    #: optional (start, end) clip window applied to file traces, rebased to 0
    trace_window: Optional[Tuple[float, Optional[float]]] = None
    #: compact sparse file-trace node ids onto 0..n-1 before building nodes
    trace_remap_ids: bool = True

    # radio / buffers
    transmit_range: float = 10.0
    transmit_speed: float = 2_000_000 / 8
    buffer_capacity: float = 1024 * 1024

    # traffic
    message_interval: Tuple[float, float] = (25.0, 35.0)
    message_size: int = 25 * 1024
    message_ttl: float = 20 * 60.0
    message_copies: int = 10
    traffic_start: float = 0.0
    traffic_end: Optional[float] = None
    #: arrival process for message creation: "uniform" draws inter-arrival
    #: gaps from message_interval (the historical model), "poisson" draws
    #: exponential gaps at traffic_rate messages/s, "bursty" emits bursts of
    #: traffic_burst_size messages traffic_burst_spacing seconds apart with
    #: exponential gaps between bursts (mean burst rate = traffic_rate).
    #: All three are deterministic given the scenario seed
    traffic_model: str = "uniform"
    #: mean arrival rate in messages per second (poisson/bursty only)
    traffic_rate: Optional[float] = None
    #: messages per burst (bursty only)
    traffic_burst_size: int = 20
    #: seconds between messages inside one burst (bursty only)
    traffic_burst_spacing: float = 0.0

    # bookkeeping
    #: keep per-event records (in the collector's columnar store); False
    #: keeps the aggregates only
    keep_records: bool = True

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("a scenario needs at least two nodes")
        if self.sim_time <= 0:
            raise ValueError("sim_time must be positive")
        if self.update_interval <= 0:
            raise ValueError("update_interval must be positive")
        if self.message_copies < 1:
            raise ValueError("message_copies (lambda) must be >= 1")
        if self.num_communities < 1:
            raise ValueError("num_communities must be >= 1")
        if not 0.0 <= self.roaming_probability <= 1.0:
            raise ValueError("roaming_probability must be in [0, 1]")
        if self.rehome_interval is not None and self.rehome_interval <= 0:
            raise ValueError("rehome_interval must be positive (or None)")
        if isinstance(self.mobility, str):
            self.mobility = MobilityKind(self.mobility)
        if self.traffic_model not in ("uniform", "poisson", "bursty"):
            raise ValueError(
                f"traffic_model must be 'uniform', 'poisson' or 'bursty', "
                f"got {self.traffic_model!r}")
        if self.traffic_model == "uniform":
            if self.traffic_rate is not None:
                raise ValueError(
                    "traffic_rate only applies to traffic_model "
                    "'poisson'/'bursty' (uniform draws from message_interval)")
        elif self.traffic_rate is None or self.traffic_rate <= 0:
            raise ValueError(
                f"traffic_model {self.traffic_model!r} requires a positive "
                "traffic_rate (messages per second)")
        if self.traffic_burst_size < 1:
            raise ValueError("traffic_burst_size must be >= 1")
        if self.traffic_burst_spacing < 0:
            raise ValueError("traffic_burst_spacing must be non-negative")
        if self.mobility is MobilityKind.TRACE:
            if (self.trace_path is None) == (self.trace_generator is None):
                raise ValueError(
                    "a TRACE scenario needs exactly one of trace_path or "
                    "trace_generator")
        elif self.trace_path is not None or self.trace_generator is not None:
            raise ValueError(
                "trace_path/trace_generator require mobility=MobilityKind.TRACE")

    # ------------------------------------------------------------------ presets
    @classmethod
    def paper_scale(cls, protocol: str = "eer", num_nodes: int = 40,
                    seed: int = 1, **overrides) -> "ScenarioConfig":
        """The paper's simulation settings (Section V-A)."""
        config = cls(
            name=f"paper-{protocol}-{num_nodes}",
            protocol=protocol,
            num_nodes=num_nodes,
            seed=seed,
            sim_time=10_000.0,
            update_interval=0.1,
            transmit_range=10.0,
            message_ttl=20 * 60.0,
            message_copies=10,
        )
        return replace(config, **overrides) if overrides else config

    @classmethod
    def bench_scale(cls, protocol: str = "eer", num_nodes: int = 40,
                    seed: int = 1, **overrides) -> "ScenarioConfig":
        """Reduced-scale settings used by tests and benchmarks.

        The map is smaller, the update interval coarser and the radio range
        wider; the *shape* of the protocol comparison is preserved (see
        EXPERIMENTS.md for the calibration notes).
        """
        config = cls(
            name=f"bench-{protocol}-{num_nodes}",
            protocol=protocol,
            num_nodes=num_nodes,
            seed=seed,
            sim_time=3_000.0,
            update_interval=1.0,
            map_width=2400.0,
            map_height=1800.0,
            map_spacing=300.0,
            transmit_range=40.0,
            message_interval=(20.0, 30.0),
            message_ttl=20 * 60.0,
            message_copies=10,
            stops_per_line=4,
        )
        return replace(config, **overrides) if overrides else config

    # ------------------------------------------------------------------ helpers
    def with_overrides(self, **overrides) -> "ScenarioConfig":
        """A copy of this configuration with the given fields replaced."""
        return replace(self, **overrides)

    # -------------------------------------------------------- canonical identity
    def canonical_payload(self) -> Dict[str, object]:
        """JSON-ready dict of every field, in a normalised form.

        Enums become their values and tuples become lists (recursively), so
        the payload survives a JSON round trip unchanged.  This is the same
        normalisation checkpoint manifests embed (see
        :func:`repro.checkpoint.config_to_payload`).
        """
        payload = dataclasses.asdict(self)
        payload["mobility"] = self.mobility.value
        return {key: _jsonify(value) for key, value in payload.items()}

    def identity_payload(self) -> Dict[str, object]:
        """The fields that define this scenario's *physics*, canonically.

        Three normalisations make the result a stable hashing basis:

        * ``name`` and ``seed`` are dropped — they are separate columns of
          the results-store identity key, not part of the configuration
          (two labels of the same physics share a hash; every seed of one
          cell shares a hash).
        * fields holding their dataclass default are dropped, so a config
          written before a new default-valued field existed hashes the same
          as one written after (stores and manifests stay valid across
          repro versions).
        * values are JSON-normalised as in :meth:`canonical_payload` and
          keys are emitted sorted, so field ordering never matters.
        """
        defaults = _field_defaults()
        payload = self.canonical_payload()
        identity: Dict[str, object] = {}
        for key in sorted(payload):
            if key in ("name", "seed"):
                continue
            if key in defaults and payload[key] == defaults[key]:
                continue
            identity[key] = payload[key]
        return identity

    def config_hash(self) -> str:
        """SHA-256 hex digest of :meth:`identity_payload`.

        Stable across field ordering, default-valued fields and JSON round
        trips; this is the dedupe key of :class:`repro.store.ResultsStore`
        and the ``config_hash`` field of checkpoint manifests.
        """
        data = json.dumps(self.identity_payload(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(data).hexdigest()

    def identity_key(self) -> Tuple[str, str, int, str]:
        """The results-store identity ``(name, protocol, seed, config_hash)``."""
        return (self.name, self.protocol, int(self.seed), self.config_hash())

    @property
    def effective_traffic_end(self) -> float:
        """When traffic generation stops (defaults to the whole run, as in the
        ONE simulator's default message event generator)."""
        if self.traffic_end is not None:
            return self.traffic_end
        return self.sim_time


def _jsonify(value: object) -> object:
    """Normalise *value* so it round-trips through JSON unchanged."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    return value


_FIELD_DEFAULTS: Optional[Dict[str, object]] = None


def _field_defaults() -> Dict[str, object]:
    """Normalised default value per ScenarioConfig field (memoised).

    Built from a default-constructed instance so ``default_factory`` fields
    (the parameter dicts) are covered too.  ``__post_init__`` requires no
    field combination the defaults violate, so plain construction is safe.
    """
    global _FIELD_DEFAULTS
    if _FIELD_DEFAULTS is None:
        _FIELD_DEFAULTS = ScenarioConfig().canonical_payload()
    return _FIELD_DEFAULTS


def apply_overrides(config: ScenarioConfig,
                    overrides: Mapping[str, object]) -> ScenarioConfig:
    """Apply a flat override mapping, routing ``router.``-prefixed keys.

    Keys like ``router.alpha`` are merged into ``router_params`` (this is the
    convention shared by :func:`repro.experiments.sweep.sweep`, the scenario
    catalog and the CLI's ``--set``); every other key replaces the scenario
    field of the same name.

    Parameters
    ----------
    config:
        The base scenario.
    overrides:
        Field name (or ``router.<param>``) -> new value.

    Returns
    -------
    ScenarioConfig
        A new, re-validated configuration; *config* is untouched.
    """
    plain: Dict[str, object] = {}
    router_params = dict(config.router_params)
    for key, value in overrides.items():
        if key.startswith("router."):
            router_params[key[len("router."):]] = value
        else:
            plain[key] = value
    return config.with_overrides(router_params=router_params, **plain)
