"""Traffic generation.

The paper generates messages between random source/destination pairs with a
fixed size (25 KB), TTL (20 minutes) and an initial replica quota
:math:`\\lambda`.  :class:`MessageEventGenerator` reproduces the ONE
simulator's ``MessageEventGenerator``: creation events at intervals drawn
uniformly from ``[min_interval, max_interval]``, with uniformly random
distinct source/destination pairs.

Beyond the paper's uniform process, :class:`TrafficSpec` supports two load
models for the traffic benchmarks (``rwp-10k-traffic``) and the ROADMAP's
city-scale workloads:

``poisson``
    memoryless arrivals — exponential inter-arrival gaps with mean
    ``1 / rate``,
``bursty``
    bursts of ``burst_size`` messages spaced ``burst_spacing`` seconds
    apart, with exponential gaps between bursts tuned so the long-run mean
    rate is still ``rate`` messages per second.

All models draw from the same seeded ``RandomStreams`` stream, so a given
scenario seed produces the same workload on every run and platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.net.message import Message
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.world.world import World


@dataclass
class TrafficSpec:
    """Parameters of a message-generation process.

    Attributes
    ----------
    interval:
        ``(min, max)`` seconds between consecutive message creations
        (``model="uniform"`` only).
    model:
        Arrival process: ``"uniform"`` (the paper's), ``"poisson"`` or
        ``"bursty"``.
    rate:
        Mean arrivals per second (``poisson``/``bursty`` only).
    burst_size:
        Messages per burst (``bursty`` only).
    burst_spacing:
        Seconds between messages inside one burst (``bursty`` only).
    size:
        Message payload size in bytes (the paper uses 25 KB).
    ttl:
        Message time-to-live in seconds (the paper uses 20 minutes).
    copies:
        Initial replica quota :math:`\\lambda` attached to every message.
    sources, destinations:
        Optional restrictions of the candidate node-id pools; ``None`` means
        all nodes in the world.
    prefix:
        Message-id prefix.
    start, end:
        Active window of the generator within the simulation.
    """

    interval: tuple = (25.0, 35.0)
    model: str = "uniform"
    rate: Optional[float] = None
    burst_size: int = 20
    burst_spacing: float = 0.0
    size: int = 25 * 1024
    ttl: float = 20 * 60.0
    copies: int = 10
    sources: Optional[Sequence[int]] = None
    destinations: Optional[Sequence[int]] = None
    prefix: str = "M"
    start: float = 0.0
    end: float = float("inf")

    def __post_init__(self) -> None:
        lo, hi = self.interval
        if lo <= 0 or hi < lo:
            raise ValueError(f"invalid interval {self.interval!r}")
        if self.model not in ("uniform", "poisson", "bursty"):
            raise ValueError(
                f"model must be 'uniform', 'poisson' or 'bursty', "
                f"got {self.model!r}")
        if self.model != "uniform" and (self.rate is None or self.rate <= 0):
            raise ValueError(
                f"model {self.model!r} requires a positive rate")
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if self.burst_spacing < 0:
            raise ValueError("burst_spacing must be non-negative")
        if self.size <= 0:
            raise ValueError("size must be positive")
        if self.ttl <= 0:
            raise ValueError("ttl must be positive")
        if self.copies < 1:
            raise ValueError("copies must be >= 1")


class MessageEventGenerator:
    """Creates application messages at random intervals.

    Parameters
    ----------
    simulator:
        Engine to schedule creation events on.
    world:
        The world whose nodes receive the messages.
    spec:
        Traffic parameters.
    stream:
        Name of the random stream used for intervals and endpoint choice.
    """

    def __init__(self, simulator: Simulator, world: "World", spec: TrafficSpec,
                 stream: str = "traffic") -> None:
        self.simulator = simulator
        self.world = world
        self.spec = spec
        self._rng = simulator.random.python(stream)
        self._count = 0
        #: messages still due in the current burst (bursty model only);
        #: must exist before the first _next_interval draw below
        self._burst_remaining = 0
        self.created: List[str] = []
        first = max(spec.start, simulator.now) + self._next_interval()
        if first <= spec.end:
            simulator.schedule_at(first, self._create, priority=20)

    # ------------------------------------------------------------------ internals
    def _next_interval(self) -> float:
        spec = self.spec
        if spec.model == "poisson":
            return self._rng.expovariate(spec.rate)
        if spec.model == "bursty":
            if self._burst_remaining > 0:
                self._burst_remaining -= 1
                return spec.burst_spacing
            # gap to the next burst: exponential with the per-burst rate, so
            # the long-run mean is still `rate` messages per second (the
            # intra-burst spacings are a negligible, deterministic offset)
            self._burst_remaining = spec.burst_size - 1
            return self._rng.expovariate(spec.rate / spec.burst_size)
        lo, hi = spec.interval
        return self._rng.uniform(lo, hi)

    def _pick_endpoints(self) -> tuple:
        node_ids = self.world.node_id_tuple
        sources = list(self.spec.sources) if self.spec.sources is not None else node_ids
        destinations = (list(self.spec.destinations)
                        if self.spec.destinations is not None else node_ids)
        if not sources or not destinations:
            raise ValueError("traffic spec has an empty source or destination pool")
        src = self._rng.choice(sources)
        dst = self._rng.choice(destinations)
        attempts = 0
        while dst == src and attempts < 100:
            dst = self._rng.choice(destinations)
            attempts += 1
        if dst == src:
            raise ValueError("could not pick distinct source and destination")
        return src, dst

    def _create(self, simulator: Simulator) -> None:
        if simulator.now > self.spec.end:
            return
        src, dst = self._pick_endpoints()
        self._count += 1
        message_id = f"{self.spec.prefix}{self._count}"
        message = Message(
            message_id=message_id,
            source=src,
            destination=dst,
            size=self.spec.size,
            creation_time=simulator.now,
            ttl=self.spec.ttl,
            copies=self.spec.copies,
            dest_community=self.world.community_of(dst),
        )
        self.world.create_message(src, message)
        self.created.append(message_id)
        nxt = simulator.now + self._next_interval()
        if nxt <= self.spec.end:
            simulator.schedule_at(nxt, self._create, priority=20)

    @property
    def messages_created(self) -> int:
        """Number of messages created so far."""
        return self._count
