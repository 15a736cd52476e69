"""DTN nodes.

A :class:`DTNNode` bundles the pieces that belong to one mobile device: its
identity, radio interface, movement driver, message buffer, active
connections and (once attached) its router.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.mobility.base import MovementModel, PathFollower
from repro.net.buffer import DropPolicy, MessageBuffer
from repro.world.interface import Interface

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.net.connection import Connection
    from repro.routing.base import Router


class DTNNode:
    """One mobile node in the DTN.

    Parameters
    ----------
    node_id:
        Unique non-negative integer identity.
    movement:
        The node's movement model.
    interface:
        Radio parameters (defaults to the paper's 10 m / 2 Mbit/s).
    buffer_capacity:
        Buffer size in bytes (the paper uses 1 MB).
    rng:
        Node-specific :class:`random.Random` used by the movement model.
    community:
        Community id; if ``None``, the movement model's
        :attr:`~repro.mobility.base.MovementModel.community` is used.
    name:
        Optional human-readable name; ``"n<id>"`` when not given.
    drop_policy:
        Buffer eviction policy.
    """

    __slots__ = ("node_id", "_name", "interface", "buffer", "follower",
                 "movement", "_community", "router", "connections")

    def __init__(self, node_id: int, movement: MovementModel, rng,
                 interface: Optional[Interface] = None,
                 buffer_capacity: float = 1024 * 1024,
                 community: Optional[int] = None, name: str = "",
                 drop_policy: DropPolicy = DropPolicy.OLDEST_RECEIVED) -> None:
        if node_id < 0:
            raise ValueError("node_id must be non-negative")
        self.node_id = int(node_id)
        # the default name is derived on demand, not stored per node
        self._name = name or None
        self.interface = interface or Interface()
        self.buffer = MessageBuffer(buffer_capacity, drop_policy)
        self.follower = PathFollower(movement, rng)
        self.movement = movement
        self._community = community if community is not None else movement.community
        self.router: Optional["Router"] = None
        #: active connections keyed by the peer's node id: derived state,
        #: kept by the world's link bookkeeping from its link table (which
        #: also rebuilds it on checkpoint restore)
        self.connections: Dict[int, "Connection"] = {}

    def __getstate__(self):
        # the connection map is pickled empty: the world rebuilds it from its
        # link table, so pickling never follows node -> connection -> peer
        # node chains
        state = {name: getattr(self, name) for name in DTNNode.__slots__}
        state["connections"] = {}
        return None, state

    # --------------------------------------------------------------- identity
    @property
    def name(self) -> str:
        """Human-readable name (``"n<id>"`` unless one was given)."""
        return self._name or f"n{self.node_id}"

    @property
    def community(self) -> Optional[int]:
        """The node's community id, or ``None`` if not community-structured."""
        return self._community

    @community.setter
    def community(self, value: Optional[int]) -> None:
        self._community = value

    # --------------------------------------------------------------- position
    @property
    def position(self) -> np.ndarray:
        """Current position (metres)."""
        return self.follower.position

    def move(self, dt: float, now: float) -> np.ndarray:
        """Advance the node's movement by *dt* seconds."""
        return self.follower.move(dt, now)

    # ------------------------------------------------------------ connections
    def connection_to(self, peer_id: int) -> Optional["Connection"]:
        """The active connection to *peer_id*, if any."""
        return self.connections.get(peer_id)

    def connected_peers(self) -> List[int]:
        """Node ids of all peers currently in contact."""
        return list(self.connections)

    # ----------------------------------------------------------------- router
    def set_router(self, router: "Router") -> None:
        """Attach *router* to this node (also wires the back-reference)."""
        self.router = router

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pos = self.position
        return (f"DTNNode({self.node_id}, pos=({pos[0]:.0f},{pos[1]:.0f}), "
                f"buffered={len(self.buffer)})")
