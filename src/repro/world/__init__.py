"""World model: nodes, radio interfaces, connectivity and the update loop."""

from repro.world.interface import Interface
from repro.world.node import DTNNode
from repro.world.connectivity import ConnectivityDetector, KDTreeConnectivity
from repro.world.pipeline import TickPhase, TickPipeline
from repro.world.positions import PositionStore
from repro.world.world import World

__all__ = [
    "Interface",
    "DTNNode",
    "ConnectivityDetector",
    "KDTreeConnectivity",
    "TickPhase",
    "TickPipeline",
    "PositionStore",
    "World",
]
