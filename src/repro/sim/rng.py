"""Named, seeded random streams.

Every stochastic component of the simulation (mobility, traffic generation,
protocol tie-breaking, ...) draws from its own named stream so that changing
one component's consumption pattern does not perturb the others.  Streams are
derived deterministically from a single master seed with
:class:`numpy.random.SeedSequence` spawning.

Every stdlib stream is a :class:`LazyRandom`: it gives exactly the outputs of
``random.Random(key)`` but holds no Mersenne Twister until it needs one, so
a node whose movement draws a handful of values keeps those values, not the
generator's 2.5 KB state.
"""

from __future__ import annotations

import random
from _random import Random as _Twister
from array import array
from typing import Dict, Iterable, List

import numpy as np


#: FNV-1a offset basis of the stream-key hash
_FNV_OFFSET = 1469598103934665603


def _fnv1a(h: int, data: bytes) -> int:
    """Continue the stream-key hash (FNV-1a, folded to 63 bits) from *h*."""
    for byte in data:
        h ^= byte
        # literal constants: a global lookup per byte costs more than the
        # hashing itself
        h = (h * 1099511628211) & 0x7FFFFFFFFFFFFFFF
    return h


#: ``random()`` values a stream keeps when its first call is ``random()`` or
#: ``uniform()``.  A random-waypoint node draws 2 for its start point and 4
#: per path: 6 in every node of the 4 s ``rwp-100k`` run and of the 300 s
#: ``rwp-10k-traffic`` run bar 0.6 % (10), and over ``rwp-10k``'s 600 s
#: horizon 6 in 82 % of the nodes, 10 in 17.5 % and 14 in 0.4 %.
PREFETCH = 10


class LazyRandom:
    """A stand-in for ``random.Random(key)`` that seeds on first use.

    A stream moves through three states (:attr:`stage`):

    ``"unseeded"``
        It holds only its key.
    ``"prefetched"``
        Its first call was :meth:`random` or :meth:`uniform`: it seeded a
        generator once, kept that generator's first :data:`PREFETCH`
        ``random()`` values and dropped it, and serves them in order.
    ``"materialized"``
        It needed draw ``PREFETCH + 1`` or any other ``Random`` method (the
        attribute lookup falls through to :meth:`__getattr__`).  It seeds
        ``random.Random(key)`` and replays the ``random()`` calls it already
        served, which leaves the generator in the state those calls would
        have left it in, and keeps it for good.  A stream whose first call is
        not ``random()`` seeds once and materializes at once.

    Every output equals ``random.Random(key)``'s: the prefetched values are
    that generator's first draws, :meth:`uniform` is CPython's own
    ``a + (b - a) * self.random()``, and a materialized stream hands every
    call to the generator itself.  A stream is seeded once, or twice if it
    outlives its prefetch.
    """

    __slots__ = ("_key", "_draws", "_gen")

    def __init__(self, key: int) -> None:
        self._key = key
        #: the prefetched values not served yet, last one first (``None``
        #: unless prefetched); ``PREFETCH - len(_draws)`` have been served
        self._draws = None
        #: the generator (``None`` until materialized)
        self._gen = None

    @property
    def stage(self) -> str:
        """``"unseeded"``, ``"prefetched"`` or ``"materialized"``."""
        if self._gen is not None:
            return "materialized"
        return "unseeded" if self._draws is None else "prefetched"

    def random(self) -> float:
        """The next value of ``random.Random(key).random()``."""
        draws = self._draws
        if draws:
            return draws.pop()
        if draws is None and self._gen is None:
            # the bare C generator under random.Random: for an int key
            # ``random.Random(key)`` is seeded by this same ``seed(key)``,
            # and the throwaway generator needs none of its Python layer
            draw = _Twister(self._key).random
            draws = array("d", [draw() for _ in range(PREFETCH)])
            draws.reverse()
            self._draws = draws
            return draws.pop()
        return self._materialize().random()

    def uniform(self, a: float, b: float) -> float:
        """``random.Random.uniform`` over this stream's :meth:`random`."""
        # the prefetched case of random() inlined: movement models draw
        # through uniform(), once per coordinate, speed and wait
        draws = self._draws
        if draws:
            return a + (b - a) * draws.pop()
        return a + (b - a) * self.random()

    def _materialize(self) -> random.Random:
        gen = self._gen
        if gen is None:
            gen = random.Random(self._key)
            if self._draws is not None:
                draw = gen.random
                for _ in range(PREFETCH - len(self._draws)):
                    draw()
                self._draws = None
            self._gen = gen
        return gen

    def __getattr__(self, name: str):
        # reached only for names the class lacks: every other public
        # ``Random`` method runs on the materialized generator
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._materialize(), name)

    def __getstate__(self) -> tuple:
        return self._key, self._draws, self._gen

    def __setstate__(self, state: tuple) -> None:
        self._key, self._draws, self._gen = state


class RandomStreams:
    """A family of independent random generators derived from one seed.

    Parameters
    ----------
    seed:
        Master seed.  Two :class:`RandomStreams` constructed with the same
        seed hand out identical streams for identical names, regardless of
        the order in which the streams are requested.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._numpy_streams: Dict[str, np.random.Generator] = {}
        self._python_streams: Dict[str, LazyRandom] = {}
        self._prefix_hash = _fnv1a(_FNV_OFFSET, f"{self._seed}:".encode())

    def __getstate__(self) -> dict:
        # the prefix hash is derived from the seed: keep it out of
        # checkpoints so the pickled layout is just the seed and the streams
        state = self.__dict__.copy()
        del state["_prefix_hash"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._prefix_hash = _fnv1a(_FNV_OFFSET, f"{self._seed}:".encode())

    @property
    def seed(self) -> int:
        """The master seed."""
        return self._seed

    def _derive(self, name: str) -> int:
        # Stable 63-bit hash of f"{seed}:{name}"; Python's hash() is salted
        # per process so it cannot be used here.  The seed prefix is hashed
        # once per instance and the loop continues from it over the name.
        return _fnv1a(self._prefix_hash, name.encode())

    def _derive_family(self, prefix: str, suffixes: Iterable) -> List[int]:
        # _derive(f"{prefix}{suffix}") for every suffix, with the prefix
        # hashed once: FNV-1a is a left fold, so continuing from the
        # prefix's state over the suffix bytes gives the same key
        base = _fnv1a(self._prefix_hash, prefix.encode())
        return [_fnv1a(base, str(suffix).encode()) for suffix in suffixes]

    def python_family(self, prefix: str, suffixes: Iterable) -> List[LazyRandom]:
        """The stdlib streams ``python(f"{prefix}{suffix}")``, one per suffix.

        The same streams, in order, as one :meth:`python` call per name;
        the shared prefix is hashed once instead of once per name (the
        builder's per-node ``mobility-{id}`` streams).
        """
        suffixes = list(suffixes)
        streams = self._python_streams
        family = []
        for suffix, key in zip(suffixes, self._derive_family(prefix, suffixes)):
            name = f"{prefix}{suffix}"
            gen = streams.get(name)
            if gen is None:
                gen = LazyRandom(key)
                streams[name] = gen
            family.append(gen)
        return family

    def numpy(self, name: str) -> np.random.Generator:
        """Return the NumPy generator for stream *name* (created on demand)."""
        gen = self._numpy_streams.get(name)
        if gen is None:
            gen = np.random.default_rng(self._derive(name))
            self._numpy_streams[name] = gen
        return gen

    def python(self, name: str) -> LazyRandom:
        """Return the stdlib stream *name*: ``random.Random(key)``'s draws
        from a :class:`LazyRandom`."""
        gen = self._python_streams.get(name)
        if gen is None:
            gen = LazyRandom(self._derive(name))
            self._python_streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RandomStreams":
        """Return a child :class:`RandomStreams` keyed by *name*.

        Useful for giving every node its own family of streams.
        """
        return RandomStreams(self._derive(name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed})"
