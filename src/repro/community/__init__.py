"""Community structure: assignment, contact graphs and detection algorithms.

The CR protocol assumes a predefined community partition (the paper's
footnote 2).  This package provides that predefined assignment plus the three
construction approaches the paper cites as related work so users can derive
communities from observed contacts instead:

* k-clique percolation (Palla et al., the paper's [21]),
* Newman modularity / weighted network analysis (the paper's [22]),
* Clauset's local community detection (the paper's [23]).
"""

from repro.community.assignment import CommunityAssignment
from repro.community.graph import (
    aggregate_contact_graph,
    contact_edge_arrays,
    contact_graph_from_history,
    graph_from_edge_weights,
)
from repro.community.kclique import k_clique_communities
from repro.community.newman import newman_modularity_communities, modularity
from repro.community.local import local_community
from repro.community.online import OnlineCommunityTracker, assignment_from_groups
from repro.community.provider import (
    COMMUNITY_MODES,
    CommunityProvider,
    DetectedCommunityProvider,
    OracleCommunityProvider,
    community_provider_for,
)

__all__ = [
    "CommunityAssignment",
    "contact_graph_from_history",
    "contact_edge_arrays",
    "graph_from_edge_weights",
    "aggregate_contact_graph",
    "k_clique_communities",
    "newman_modularity_communities",
    "modularity",
    "local_community",
    "OnlineCommunityTracker",
    "assignment_from_groups",
    "COMMUNITY_MODES",
    "CommunityProvider",
    "OracleCommunityProvider",
    "DetectedCommunityProvider",
    "community_provider_for",
]
