"""Named, seeded random streams.

Every stochastic component of the simulation (mobility, traffic generation,
protocol tie-breaking, ...) draws from its own named stream so that changing
one component's consumption pattern does not perturb the others.  Streams are
derived deterministically from a single master seed with
:class:`numpy.random.SeedSequence` spawning.
"""

from __future__ import annotations

import random
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
        self._python_streams: Dict[str, random.Random] = {}
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

    def python_family(self, prefix: str, suffixes: Iterable) -> List[random.Random]:
        """The stdlib streams ``python(f"{prefix}{suffix}")``, one per suffix.

        The same generators, in order, as one :meth:`python` call per name;
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
                gen = random.Random(key)
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

    def python(self, name: str) -> random.Random:
        """Return the stdlib :class:`random.Random` for stream *name*."""
        gen = self._python_streams.get(name)
        if gen is None:
            gen = random.Random(self._derive(name))
            self._python_streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RandomStreams":
        """Return a child :class:`RandomStreams` keyed by *name*.

        Useful for giving every node its own family of streams.
        """
        return RandomStreams(self._derive(name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed})"
