"""The Community based Routing protocol (CR, Algorithms 2-4).

CR assumes the nodes are partitioned into communities with much higher
intra-community contact rates than inter-community ones, and routes in two
regimes:

* **Inter-community routing** (the holder is outside the destination's
  community, Algorithm 3): replicas are pushed toward the destination
  community.  If the encountered node *is* in the destination community it
  receives all replicas.  Otherwise quotas are split proportionally to the two
  nodes' expected numbers of encountering communities (``ENEC``, Theorem 4),
  and a lone replica is forwarded to the node with the higher probability
  ``P_ic`` of meeting the destination community within the horizon.
* **Intra-community routing** (the holder is already inside the destination's
  community, Algorithm 4): EER-style behaviour restricted to the community —
  quota splits by intra-community EEV', single-copy forwarding by
  intra-community MEMD' — and messages are never handed back outside the
  community.

Because only the *intra-community* MI rows are exchanged (a community is much
smaller than the whole network) and the inter-community phase exchanges only
two scalars per contact, CR's control overhead is a fraction of EER's; the
collector's ``control_rows_exchanged`` captures exactly this difference.

**Where communities come from** is pluggable (the ``community_mode``
parameter, see :mod:`repro.community.provider`):

* ``oracle`` — the paper's footnote-2 setting: the predefined, static
  ``node.community`` labels assigned by the scenario builder.  This is the
  default and is bit-identical to the pre-provider implementation.
* ``kclique`` / ``newman`` — communities are *detected online* from the
  node's own observed contacts by a world-shared
  :class:`~repro.community.online.OnlineCommunityTracker`; re-detection is
  rate-limited by the ``detection_staleness`` budget and its compute cost is
  reported through the collector (``community_detections`` /
  ``community_detection_seconds``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.community.provider import (
    COMMUNITY_MODES,
    CommunityProvider,
    community_provider_for,
)
from repro.contacts.memd import MemdCache
from repro.contacts.mi_matrix import MeetingIntervalMatrix
from repro.core.expectation import (
    OverduePolicy,
    community_encounter_probability,
    expected_encounter_value,
    expected_num_encountering_communities,
)
from repro.core.replication import split_replicas
from repro.net.connection import Connection
from repro.net.message import Message
from repro.routing.active import ContactAwareRouter

if TYPE_CHECKING:  # pragma: no cover
    from repro.world.node import DTNNode


class CommunityRouter(ContactAwareRouter):
    """Community based Routing.

    Parameters
    ----------
    alpha:
        Horizon scaling factor applied to the residual TTL, as in EER.
    window_size:
        Sliding-window size of the contact history.
    overdue_policy:
        Fallback for overdue contacts (see
        :class:`repro.core.expectation.OverduePolicy`).
    memd_refresh:
        Maximum staleness (seconds) of the cached intra-community MEMD vector
        (see :class:`repro.core.eer.EERRouter`).
    forward_margin:
        Relative improvement required before the single replica is handed
        over (applies to the inter-community ``P_ic`` comparison and the
        intra-community MEMD' comparison); see
        :class:`repro.core.eer.EERRouter` for the rationale.
    community_mode:
        ``"oracle"`` (predefined static communities, the paper's setting),
        ``"kclique"`` or ``"newman"`` (online detection from observed
        contacts); see the module docstring.
    detection_staleness:
        Detected modes only: minimum seconds between detection runs (the
        :class:`~repro.community.online.OnlineCommunityTracker` staleness
        budget).
    detection_min_weight:
        Detected modes only: minimum accumulated contact count for an edge to
        participate in detection.
    detection_k:
        ``kclique`` mode only: the clique size.
    max_communities:
        ``newman`` mode only: community-count cap (0 = modularity peak).

    Notes
    -----
    In ``oracle`` mode every node in the world must have a community id
    assigned (the paper predefines communities, footnote 2); the scenario
    builder assigns district-based communities for the bus scenario.  The
    detected modes need no prior assignment.
    """

    name = "cr"

    #: gated tier, as EERRouter: the estimators, the MEMD' cache and — in
    #: the detected modes — every community-provider query of on_update
    #: run only behind the per-meeting gate (see
    #: Router.supports_batch_update)
    supports_batch_update = True
    batch_update_gated = True

    def __init__(self, alpha: float = 0.28, window_size: int = 20,
                 overdue_policy: OverduePolicy = OverduePolicy.REFRESH,
                 memd_refresh: float = 5.0, forward_margin: float = 0.35,
                 community_mode: str = "oracle",
                 detection_staleness: float = 300.0,
                 detection_min_weight: float = 1.0,
                 detection_k: int = 3,
                 max_communities: int = 0) -> None:
        super().__init__(window_size=window_size)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if not 0.0 <= forward_margin < 1.0:
            raise ValueError("forward_margin must be in [0, 1)")
        if community_mode not in COMMUNITY_MODES:
            raise ValueError(
                f"community_mode must be one of {', '.join(COMMUNITY_MODES)}; "
                f"got {community_mode!r}")
        if detection_staleness < 0:
            raise ValueError("detection_staleness must be non-negative")
        self.alpha = float(alpha)
        self.overdue_policy = overdue_policy
        self.forward_margin = float(forward_margin)
        self.community_mode = community_mode
        self.detection_staleness = float(detection_staleness)
        self.detection_min_weight = float(detection_min_weight)
        self.detection_k = int(detection_k)
        self.max_communities = int(max_communities)
        self._intra_mi: Optional[MeetingIntervalMatrix] = None
        self._provider: Optional[CommunityProvider] = None
        self._member_mask: Optional[np.ndarray] = None
        self._mask_version = -1
        self._mask_community: Optional[int] = None
        self._memd = MemdCache(refresh=memd_refresh)

    @property
    def memd_refresh(self) -> float:
        """Maximum staleness (seconds) of the cached intra-community MEMD'."""
        return self._memd.refresh

    # ----------------------------------------------------------- community map
    def detection_config(self) -> tuple:
        """The detection configuration identifying this router's provider.

        Two CR routers of one world share a provider (and tracker) iff their
        detection configs are equal; the contact-observation dedup keys on
        this.
        """
        return (self.community_mode, self.detection_staleness,
                self.detection_min_weight, self.detection_k,
                self.max_communities)

    @property
    def provider(self) -> CommunityProvider:
        """The world-shared community provider for this router's mode."""
        if self._provider is None:
            assert self.world is not None
            self._provider = community_provider_for(
                self.world, self.community_mode,
                staleness=self.detection_staleness,
                min_weight=self.detection_min_weight,
                k=self.detection_k,
                max_communities=self.max_communities)
        return self._provider

    @property
    def community(self) -> int:
        """This node's (current) community id."""
        assert self.node is not None
        if self.community_mode == "oracle":
            cid = self.node.community
            if cid is None:
                raise RuntimeError(
                    f"node {self.node.node_id} has no community; "
                    "CommunityRouter in 'oracle' mode requires every node to "
                    "have a community id")
            return int(cid)
        return self.provider.community_of(self.node_id, self.now)

    def communities(self) -> Dict[int, List[int]]:
        """Mapping community id -> member node ids (network-wide)."""
        return self.provider.communities(self.now)

    def community_of(self, node_id: int) -> int:
        """Community id of *node_id*."""
        return self.provider.community_of(node_id, self.now)

    def community_members(self, community_id: int) -> List[int]:
        """Members of *community_id*."""
        return self.provider.members(community_id, self.now)

    # ------------------------------------------------------------ intra-MI state
    @property
    def intra_mi(self) -> MeetingIntervalMatrix:
        """The intra-community meeting-interval matrix (lazily created)."""
        if self._intra_mi is None:
            assert self.world is not None
            n = self.world.num_nodes
            if self.node_id >= n:
                raise RuntimeError("node ids must be 0..n-1 for the MI matrix")
            self._intra_mi = MeetingIntervalMatrix(n, self.node_id)
        return self._intra_mi

    def _membership_mask(self) -> np.ndarray:
        """Boolean mask over node ids for this node's own community.

        Static in ``oracle`` mode (communities are predefined); in the
        detected modes the mask is rebuilt — and the MEMD' delay-vector cache
        invalidated — whenever the provider's assignment revision advances or
        this node itself was reassigned.
        """
        own = self.community
        version = self.provider.version
        if (self._member_mask is None or version != self._mask_version
                or own != self._mask_community):
            mask = np.zeros(self.intra_mi.num_nodes, dtype=bool)
            for member in self.community_members(own):
                if member < mask.shape[0]:
                    mask[member] = True
            if (self._member_mask is not None
                    and not np.array_equal(mask, self._member_mask)):
                # *this* node's membership changed under a live cache: the
                # node_filter the cached MEMD' vector was computed with is no
                # longer valid.  A revision bump that left this community's
                # member set untouched keeps the cache.
                self._memd.invalidate()
            self._member_mask = mask
            self._mask_version = version
            self._mask_community = own
        return self._member_mask

    # --------------------------------------------------------------- predictions
    def horizon_for(self, residual_ttl: float) -> float:
        """Prediction horizon :math:`\\alpha \\cdot TTL_k`."""
        return self.alpha * max(0.0, residual_ttl)

    def enec(self, now: float, horizon: float) -> float:
        """Expected number of encountering communities (Theorem 4)."""
        assert self.history is not None
        return expected_num_encountering_communities(
            self.history, now, horizon, self.communities(), self.community,
            self.overdue_policy)

    def community_probability(self, community_id: int, now: float, horizon: float) -> float:
        """Probability ``P_ic`` of meeting a member of *community_id* in the horizon."""
        assert self.history is not None
        return community_encounter_probability(
            self.history, now, horizon, self.community_members(community_id),
            self.overdue_policy)

    def intra_expected_ev(self, now: float, horizon: float) -> float:
        """Intra-community expected encounter value ``EEV'``."""
        assert self.history is not None
        return expected_encounter_value(
            self.history, now, horizon, self.overdue_policy,
            peer_filter=self._membership_mask())

    def intra_memd_to(self, destination: int) -> float:
        """Intra-community MEMD' from this node to *destination*.

        Served from the version-keyed delay-vector cache restricted to the
        destination community's members.  In ``oracle`` mode the membership
        mask never changes, so it never invalidates the cache; in the
        detected modes :meth:`_membership_mask` invalidates it whenever a
        detection moved a node.
        """
        assert self.history is not None
        mask = self._membership_mask()
        cache = self._memd
        computes = cache.computes
        delays = cache.delays(self.history, self.intra_mi, self.now,
                              self.overdue_policy, node_filter=mask)
        self.stats.memd_lookup(cache.computes != computes)
        if not 0 <= destination < len(delays):
            return float("inf")
        return float(delays[destination])

    # ------------------------------------------------------------------ contacts
    def _same_community_as_peer(self, peer: "DTNNode") -> bool:
        if self.community_mode == "oracle":
            return (peer.community is not None
                    and int(peer.community) == self.community)
        return self.community_of(peer.node_id) == self.community

    def on_contact_recorded(self, connection: Connection, peer: "DTNNode") -> None:
        assert self.history is not None
        peer_router = peer.router
        if self.community_mode != "oracle":
            # feed the shared contact graph exactly once per contact: when
            # the peer consults the *same* provider (same world, same
            # detection config) only the exchange initiator reports the
            # edge; any other peer — different protocol, oracle mode, or a
            # differently-configured tracker — will never feed this
            # tracker, so this side always must
            peer_shares_tracker = (
                isinstance(peer_router, CommunityRouter)
                and peer_router.detection_config() == self.detection_config())
            if not peer_shares_tracker or self.is_exchange_initiator(peer):
                self.provider.observe_contact(self.node_id, peer.node_id,
                                              self.now)
        same_community = self._same_community_as_peer(peer)
        if same_community:
            mean = self.history.mean_interval(peer.node_id)
            updates: Dict[int, float] = {}
            if mean is not None:
                updates[peer.node_id] = mean
            self.intra_mi.update_own_row(updates, self.now)
        if not isinstance(peer_router, CommunityRouter):
            return
        if not self.is_exchange_initiator(peer):
            return
        if same_community:
            # intra-community MI exchange, restricted to community members;
            # the matrices bump their versions when copied rows actually
            # change, which invalidates the MEMD' caches
            to_me = self.intra_mi.merge_from(peer_router.intra_mi)
            to_peer = peer_router.intra_mi.merge_from(self.intra_mi)
            row_bytes = 8 * len(self.community_members(self.community))
            self.stats.control_exchange(rows=to_me + to_peer,
                                        size_bytes=(to_me + to_peer) * row_bytes)
        else:
            # inter-community contacts exchange only two scalars
            # (ENEC / P_ic summaries), counted as two rows of overhead
            self.stats.control_exchange(rows=2, size_bytes=16)

    # -------------------------------------------------------------------- update
    def _destination_community(self, message: Message) -> int:
        if self.community_mode == "oracle":
            if message.dest_community is not None:
                return int(message.dest_community)
            return self.community_of(message.destination)
        # detected modes resolve through the provider: the dest_community
        # stamped at creation time is the oracle's ground truth, which an
        # online detector must not be allowed to peek at
        return self.community_of(message.destination)

    def on_update(self, now: float) -> None:
        # Algorithm 2 is triggered "when ui meets uj": the buffer is evaluated
        # once per meeting event (see EERRouter for the rationale).
        for connection in self.connections():
            self.send_deliverable(connection)
            peer = connection.other(self.node)
            peer_router = peer.router
            if not isinstance(peer_router, CommunityRouter):
                continue
            if not self.is_first_evaluation(connection):
                continue
            for message in self.buffer.messages():
                if message.destination == peer.node_id:
                    continue
                if self.has_pending_transfer(message.message_id):
                    continue
                residual = message.residual_ttl(now)
                if residual <= 0:
                    continue
                dest_community = self._destination_community(message)
                if self.community != dest_community:
                    self._inter_community_step(connection, peer, peer_router,
                                               message, dest_community, now, residual)
                else:
                    self._intra_community_step(connection, peer, peer_router,
                                               message, now, residual)

    # ------------------------------------------------------------ Algorithm 3
    def _inter_community_step(self, connection: Connection, peer: "DTNNode",
                              peer_router: "CommunityRouter", message: Message,
                              dest_community: int, now: float, residual: float) -> None:
        if self.peer_has(connection, message.message_id):
            return
        if self.community_mode == "oracle":
            peer_in_dest = (peer.community is not None
                            and int(peer.community) == dest_community)
        else:
            peer_in_dest = self.community_of(peer.node_id) == dest_community
        if peer_in_dest:
            # the peer belongs to the destination community: hand everything over
            self.send(connection, message, copies=message.copies, forwarding=True)
            return
        horizon = self.horizon_for(residual)
        if message.copies > 1:
            mine = self.enec(now, horizon)
            theirs = peer_router.enec(now, horizon)
            _, passed = split_replicas(message.copies, mine, theirs)
            if passed >= 1:
                self.send(connection, message, copies=passed, forwarding=False)
        else:
            mine = self.community_probability(dest_community, now, horizon)
            theirs = peer_router.community_probability(dest_community, now, horizon)
            if mine < (1.0 - self.forward_margin) * theirs:
                self.send(connection, message, copies=1, forwarding=True)

    # ------------------------------------------------------------ Algorithm 4
    def _intra_community_step(self, connection: Connection, peer: "DTNNode",
                              peer_router: "CommunityRouter", message: Message,
                              now: float, residual: float) -> None:
        if not self._same_community_as_peer(peer):
            # never push a message back outside its destination community
            return
        if self.peer_has(connection, message.message_id):
            return
        horizon = self.horizon_for(residual)
        if message.copies > 1:
            mine = self.intra_expected_ev(now, horizon)
            theirs = peer_router.intra_expected_ev(now, horizon)
            _, passed = split_replicas(message.copies, mine, theirs)
            if passed >= 1:
                self.send(connection, message, copies=passed, forwarding=False)
        else:
            mine = self.intra_memd_to(message.destination)
            theirs = peer_router.intra_memd_to(message.destination)
            if theirs < (1.0 - self.forward_margin) * mine:
                self.send(connection, message, copies=1, forwarding=True)
