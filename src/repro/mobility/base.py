"""Movement-model interface and the per-node path follower."""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.mobility.path import Path


class MovementModel(abc.ABC):
    """Produces an initial position and a stream of paths for a node.

    A model that keeps per-node state (such as the current stop index on a
    bus line) is bound to a single node.  A stateless model, one whose
    answers depend only on its arguments, may be shared by many nodes:
    random waypoint is, and the scenario builder gives every node of a
    random-waypoint world one instance.  All randomness must come from the
    random stream passed in (a :class:`random.Random` or the
    :class:`~repro.sim.rng.LazyRandom` the builder hands out), so runs are
    reproducible.

    Every follower advances through the batch kernel of
    :class:`~repro.mobility.engine.MovementEngine`, which mirrors the
    progress of the current :class:`~repro.mobility.path.Path`, so a model
    must not mutate a path once it has returned it.
    """

    @abc.abstractmethod
    def initial_position(self, rng) -> Sequence[float]:
        """Return the node's starting position as an ``(x, y)`` point."""

    @abc.abstractmethod
    def next_path(self, position: np.ndarray, now: float, rng) -> Optional[Path]:
        """Return the next path to follow from *position*.

        Returning ``None`` means the node stays put indefinitely (stationary
        models and trace replay use this).
        """

    @property
    def community(self) -> Optional[int]:
        """Community id implied by the movement model, if any.

        Map-route and community movement models know which district/community
        their node belongs to; other models return ``None``.
        """
        return None


class PathFollower:
    """Drives one node's position by consuming paths from a movement model.

    Parameters
    ----------
    model:
        The node's movement model.
    rng:
        Node-specific random stream (see :class:`repro.sim.rng.LazyRandom`).

    The follower's :attr:`position` is one persistent ``(2,)`` float64 array
    that is mutated in place.  By default the follower owns it; once the node
    is registered with a world, :meth:`bind` re-points it at the node's row
    view of the world's :class:`~repro.world.positions.PositionStore`, so the
    world-wide position matrix updates as a side effect of movement with no
    per-tick gathering.
    """

    __slots__ = ("model", "_rng", "_position", "_path", "_halted",
                 "_engine", "_engine_slot")

    def __init__(self, model: MovementModel, rng) -> None:
        self.model = model
        self._rng = rng
        self._position = np.array(model.initial_position(rng), dtype=float)
        self._path: Optional[Path] = None
        self._halted = False
        # batch-advance bookkeeping (set by MovementEngine.register)
        self._engine = None
        self._engine_slot = -1

    @property
    def position(self) -> np.ndarray:
        """The node's live position (mutated in place as the node moves)."""
        return self._position

    @position.setter
    def position(self, value) -> None:
        self._position[:] = value

    def bind(self, storage: np.ndarray) -> None:
        """Re-point :attr:`position` at *storage* (a ``(2,)`` writable view).

        The current position is copied in, so binding is transparent to the
        movement state.
        """
        storage[:] = self._position
        self._position = storage

    @property
    def halted(self) -> bool:
        """Whether the model declined to provide further paths."""
        return self._halted

    @property
    def path(self) -> Optional[Path]:
        """The path currently being followed (``None`` before the first and
        after the last one)."""
        return self._path

    def attach_engine(self, engine, slot: int) -> None:
        """Bind this follower to a batch movement engine slot.

        From here on, any out-of-band state change (today: :meth:`teleport`)
        notifies the engine so it re-reads the follower's path state before
        the next batch advance.
        """
        self._engine = engine
        self._engine_slot = int(slot)

    def move(self, dt: float, now: float) -> np.ndarray:
        """Advance the node by *dt* seconds and return the new position."""
        position = self._position
        path = self._path
        # hot path: still travelling along the current path
        if path is not None and not path.done:
            remaining = path.advance_into(dt, position)
            if remaining <= 0:
                return position
        else:
            remaining = float(dt)
        # A tiny guard avoids infinite loops if a model returns zero-length,
        # zero-wait paths forever.
        for _ in range(64):
            if remaining <= 0 or self._halted:
                break
            if self._path is None or self._path.done:
                self._path = self.model.next_path(position, now, self._rng)
                if self._path is None:
                    self._halted = True
                    break
            remaining = self._path.advance_into(remaining, position)
        return position

    def teleport(self, position: np.ndarray) -> None:
        """Force the node to *position* and drop the current path."""
        self._position[:] = np.asarray(position, dtype=float)
        self._path = None
        self._halted = False
        if self._engine is not None:
            self._engine.invalidate(self._engine_slot)
