"""Topology construction: a network container plus the canonical shapes.

The paper's experiments all run on small, fixed topologies — a single
bottleneck (dumbbell) for the TCP micro-benchmarks, a star for the web and
BitTorrent macro-benchmarks. Builders here create the nodes, wire the links
and install static routes in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .engine import Simulator
from .errors import ConfigurationError
from .link import Link, QueueFactory
from .node import Node
from .routing import install_routes

__all__ = [
    "Network",
    "CutEdge",
    "TopologyPartition",
    "partition_network",
    "suggest_assignment",
    "build_dumbbell",
    "build_star",
    "build_chain",
    "build_parking_lot",
]


class Network:
    """A simulator plus the nodes and links living in it."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []

    def add_node(self, name: str) -> Node:
        """Create a node; names are unique addresses."""
        if name in self.nodes:
            raise ConfigurationError(f"duplicate node name {name!r}")
        node = Node(self.sim, name)
        self.nodes[name] = node
        return node

    def add_link(
        self,
        a: Node,
        b: Node,
        bandwidth_bps: float,
        delay_s: float,
        queue_factory: Optional[QueueFactory] = None,
    ) -> Link:
        """Wire a full-duplex link between two existing nodes."""
        link = Link(self.sim, a, b, bandwidth_bps, delay_s, queue_factory)
        self.links.append(link)
        return link

    def finalize(self) -> None:
        """Compute and install static shortest-path routes."""
        install_routes(self.nodes.values(), self.links)

    def fail_link(self, link: Link) -> None:
        """Take a link administratively down and reroute around it.

        Both directions stop forwarding (in-flight packets already past
        the transmitter still arrive, as on a real fiber cut); routes are
        recomputed over the surviving links. Destinations that become
        unreachable simply have no route — transit packets toward them are
        dropped and counted on the dropping node.
        """
        link.a_to_b.up = False
        link.b_to_a.up = False
        self._reroute()

    def restore_link(self, link: Link) -> None:
        """Bring a failed link back and reroute."""
        link.a_to_b.up = True
        link.b_to_a.up = True
        self._reroute()

    def _reroute(self) -> None:
        alive = [
            link for link in self.links
            if link.a_to_b.up and link.b_to_a.up
        ]
        for node in self.nodes.values():
            node.routes.clear()
        install_routes(self.nodes.values(), alive)

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigurationError(f"no node named {name!r}") from None

    def run(self, until: Optional[float] = None) -> None:
        """Convenience passthrough to the simulator."""
        self.sim.run(until=until)


# ----------------------------------------------------------- partitioning


@dataclass(frozen=True)
class CutEdge:
    """One directed link crossing a shard boundary.

    The sending interface (``src_node``'s egress toward ``dst_node``)
    lives in ``from_shard``; packets finishing serialisation there are
    handed to a cross-shard channel instead of being scheduled locally,
    and re-enter the destination shard at the peer interface after the
    link's propagation delay. ``channel_id`` is the edge's deterministic
    identity — assigned in link construction order, forward direction
    first — and doubles as the tie-key when same-time arrivals from
    different channels are merged into the destination engine.
    """

    channel_id: int
    src_node: str
    dst_node: str
    from_shard: int
    to_shard: int
    #: Conservative lookahead contributed by this edge: the *minimum*
    #: propagation delay a packet entering the channel can experience
    #: (the base delay, or a schedule's smallest delay).
    lookahead_s: float


@dataclass(frozen=True)
class TopologyPartition:
    """A validated node-to-shard assignment plus its derived cut set."""

    shards: int
    assignment: Dict[str, int]
    cut_edges: List[CutEdge]
    #: Global conservative lookahead: the minimum over every cut edge.
    #: No cross-shard packet can arrive sooner than this after it was
    #: sent, which is the window width the shard barrier may grant.
    lookahead_s: float

    def islands(self) -> Dict[int, List[str]]:
        """Node names per shard, in deterministic (insertion) order."""
        out: Dict[int, List[str]] = {s: [] for s in range(self.shards)}
        for name, shard in self.assignment.items():
            out[shard].append(name)
        return out


def partition_network(
    net: Network,
    shards: int,
    assignment: Dict[str, int],
) -> TopologyPartition:
    """Validate a node-to-shard assignment and derive the directed cut set.

    Every node must be assigned to exactly one shard in ``[0, shards)``.
    A link whose endpoints land in different shards becomes two directed
    :class:`CutEdge` s (one per direction); its propagation delay is the
    conservative lookahead, so a cut edge with **zero** minimum delay
    (a zero-delay link, or a schedule that reaches zero delay) is refused — a
    conservative parallel simulation cannot make progress across a cut
    with no lookahead.
    """
    if shards < 1:
        raise ConfigurationError(f"shard count must be >= 1: {shards}")
    for name in net.nodes:
        if name not in assignment:
            raise ConfigurationError(
                f"partition assigns no shard to node {name!r}"
            )
    for name, shard in assignment.items():
        if name not in net.nodes:
            raise ConfigurationError(
                f"partition assigns unknown node {name!r}"
            )
        if not 0 <= shard < shards:
            raise ConfigurationError(
                f"node {name!r} assigned to shard {shard} "
                f"(valid: 0..{shards - 1})"
            )
    cut_edges: List[CutEdge] = []
    channel_id = 0
    for link in net.links:
        for iface in (link.a_to_b, link.b_to_a):
            src = iface.node.name
            dst = iface.peer.node.name
            from_shard = assignment[src]
            to_shard = assignment[dst]
            if from_shard != to_shard:
                # Conservative over the whole run: a scheduled interface
                # reports the minimum delay its schedule will ever apply,
                # so the lookahead derived here stays valid across every
                # delay step (partition after attaching schedules).
                lookahead = iface.min_delay_s()
                if lookahead <= 0:
                    raise ConfigurationError(
                        f"partition cuts link {iface.name!r} which has no "
                        f"lookahead (delay {iface.delay_s}s, schedule min "
                        f"{iface.schedule.min_delay_s if iface.schedule is not None else 'n/a'}): "
                        "a link that can reach zero delay cannot cross "
                        "shards — co-locate its endpoints"
                    )
                cut_edges.append(CutEdge(
                    channel_id=channel_id,
                    src_node=src,
                    dst_node=dst,
                    from_shard=from_shard,
                    to_shard=to_shard,
                    lookahead_s=lookahead,
                ))
            channel_id += 1
    if shards > 1 and not cut_edges:
        raise ConfigurationError(
            f"partition into {shards} shards cuts no links — every node "
            "landed in one shard; use shards=1 for the in-process engine"
        )
    lookahead = min(
        (edge.lookahead_s for edge in cut_edges), default=float("inf")
    )
    return TopologyPartition(
        shards=shards,
        assignment=dict(assignment),
        cut_edges=cut_edges,
        lookahead_s=lookahead,
    )


def suggest_assignment(net: Network, shards: int) -> Dict[str, int]:
    """A deterministic default assignment: islands balanced by link degree.

    Nodes joined by a link with no lookahead (zero minimum delay) can
    never be separated, so they are first contracted into atoms
    (union-find); atoms are then dealt round-robin, heaviest
    first, to the currently lightest shard. Weight is the atom's summed
    *link degree*, not its node count: a shard's event load scales with
    the traffic its interfaces carry, and degree is the static proxy for
    that — a star's hub node alone outweighs any handful of leaves, so
    degree weighting stops the balancer from packing "one hub plus half
    the leaves" into one shard the way node counting did. Ties break on
    first-node construction order, so the result is a pure function of
    the topology. Workload-aware runners (the swarm, the dumbbell) pass
    their own assignment instead — this helper is the generic fallback.
    """
    if shards < 1:
        raise ConfigurationError(f"shard count must be >= 1: {shards}")
    order = {name: index for index, name in enumerate(net.nodes)}
    degree = {name: 0 for name in net.nodes}
    parent: Dict[str, str] = {name: name for name in net.nodes}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    for link in net.links:
        degree[link.node_a.name] += 1
        degree[link.node_b.name] += 1
        if min(
            link.a_to_b.min_delay_s(),
            link.b_to_a.min_delay_s(),
        ) <= 0:
            a, b = find(link.node_a.name), find(link.node_b.name)
            if a != b:
                # Representative = earliest-constructed node.
                keep, drop = (a, b) if order[a] <= order[b] else (b, a)
                parent[drop] = keep
    atoms: Dict[str, List[str]] = {}
    for name in net.nodes:
        atoms.setdefault(find(name), []).append(name)

    def weight(members: List[str]) -> int:
        return sum(degree[name] for name in members)

    ordered = sorted(
        atoms.values(),
        key=lambda members: (-weight(members), order[members[0]]),
    )
    loads = [0] * shards
    assignment: Dict[str, int] = {}
    for members in ordered:
        shard = min(range(shards), key=lambda s: (loads[s], s))
        loads[shard] += weight(members)
        for name in members:
            assignment[name] = shard
    return assignment


@dataclass
class Dumbbell:
    """Handles to the parts of a dumbbell topology."""

    network: Network
    senders: List[Node]
    receivers: List[Node]
    router_left: Node
    router_right: Node
    bottleneck: Link
    sender_links: List[Link] = field(default_factory=list)
    receiver_links: List[Link] = field(default_factory=list)


def build_dumbbell(
    pairs: int,
    access_bandwidth_bps: float,
    bottleneck_bandwidth_bps: float,
    bottleneck_delay_s: float,
    access_delay_s: float = 1e-4,
    queue_factory: Optional[QueueFactory] = None,
    sim: Optional[Simulator] = None,
) -> Dumbbell:
    """The classic single-bottleneck topology.

    ``pairs`` sender/receiver pairs hang off two routers joined by the
    bottleneck link. Access links are fast and near-zero delay by default so
    the bottleneck dominates, as in the paper's dummynet setup.
    """
    if pairs < 1:
        raise ConfigurationError("dumbbell needs at least one sender/receiver pair")
    net = Network(sim)
    left = net.add_node("rL")
    right = net.add_node("rR")
    bottleneck = net.add_link(
        left, right, bottleneck_bandwidth_bps, bottleneck_delay_s, queue_factory
    )
    senders: List[Node] = []
    receivers: List[Node] = []
    sender_links: List[Link] = []
    receiver_links: List[Link] = []
    for index in range(pairs):
        sender = net.add_node(f"s{index}")
        receiver = net.add_node(f"d{index}")
        sender_links.append(
            net.add_link(sender, left, access_bandwidth_bps, access_delay_s)
        )
        receiver_links.append(
            net.add_link(right, receiver, access_bandwidth_bps, access_delay_s)
        )
        senders.append(sender)
        receivers.append(receiver)
    net.finalize()
    return Dumbbell(
        network=net,
        senders=senders,
        receivers=receivers,
        router_left=left,
        router_right=right,
        bottleneck=bottleneck,
        sender_links=sender_links,
        receiver_links=receiver_links,
    )


@dataclass
class Star:
    """Handles to the parts of a star topology."""

    network: Network
    hub: Node
    leaves: List[Node]


def build_star(
    leaves: int,
    leaf_bandwidth_bps: float,
    leaf_delay_s: float,
    queue_factory: Optional[QueueFactory] = None,
    sim: Optional[Simulator] = None,
    leaf_prefix: str = "h",
) -> Star:
    """``leaves`` hosts around a central switch/router named ``hub``."""
    if leaves < 1:
        raise ConfigurationError("star needs at least one leaf")
    net = Network(sim)
    hub = net.add_node("hub")
    nodes: List[Node] = []
    for index in range(leaves):
        leaf = net.add_node(f"{leaf_prefix}{index}")
        net.add_link(leaf, hub, leaf_bandwidth_bps, leaf_delay_s, queue_factory)
        nodes.append(leaf)
    net.finalize()
    return Star(network=net, hub=hub, leaves=nodes)


@dataclass
class Chain:
    """Handles to the parts of a chain topology."""

    network: Network
    nodes: List[Node]


@dataclass
class ParkingLot:
    """Handles to the parts of a parking-lot topology."""

    network: Network
    routers: List[Node]
    through_source: Node
    through_sink: Node
    cross_sources: List[Node]
    cross_sinks: List[Node]
    bottlenecks: List[Link]


def build_parking_lot(
    hops: int,
    bottleneck_bandwidth_bps: float,
    per_hop_delay_s: float,
    access_bandwidth_bps: Optional[float] = None,
    access_delay_s: float = 1e-4,
    queue_factory: Optional[QueueFactory] = None,
    sim: Optional[Simulator] = None,
) -> ParkingLot:
    """The multi-bottleneck fairness topology.

    ``hops`` router-to-router bottleneck links in a chain; one *through*
    path crosses all of them, and each hop ``i`` has a *cross* pair whose
    flow uses only bottleneck ``i``. The classic question it poses: how
    badly is the through flow (facing loss at every hop) penalised against
    the single-hop cross flows?
    """
    if hops < 2:
        raise ConfigurationError("a parking lot needs at least two hops")
    if access_bandwidth_bps is None:
        access_bandwidth_bps = bottleneck_bandwidth_bps * 10
    net = Network(sim)
    routers = [net.add_node(f"r{index}") for index in range(hops + 1)]
    bottlenecks = [
        net.add_link(routers[index], routers[index + 1],
                     bottleneck_bandwidth_bps, per_hop_delay_s, queue_factory)
        for index in range(hops)
    ]
    through_source = net.add_node("tsrc")
    through_sink = net.add_node("tdst")
    net.add_link(through_source, routers[0], access_bandwidth_bps, access_delay_s)
    net.add_link(routers[-1], through_sink, access_bandwidth_bps, access_delay_s)
    cross_sources: List[Node] = []
    cross_sinks: List[Node] = []
    for index in range(hops):
        source = net.add_node(f"xsrc{index}")
        sink = net.add_node(f"xdst{index}")
        net.add_link(source, routers[index], access_bandwidth_bps, access_delay_s)
        net.add_link(routers[index + 1], sink, access_bandwidth_bps, access_delay_s)
        cross_sources.append(source)
        cross_sinks.append(sink)
    net.finalize()
    return ParkingLot(
        network=net,
        routers=routers,
        through_source=through_source,
        through_sink=through_sink,
        cross_sources=cross_sources,
        cross_sinks=cross_sinks,
        bottlenecks=bottlenecks,
    )


def build_chain(
    hops: int,
    bandwidth_bps: float,
    per_hop_delay_s: float,
    queue_factory: Optional[QueueFactory] = None,
    sim: Optional[Simulator] = None,
) -> Chain:
    """A linear chain of ``hops + 1`` nodes (multi-hop path experiments)."""
    if hops < 1:
        raise ConfigurationError("chain needs at least one hop")
    net = Network(sim)
    nodes = [net.add_node(f"n{index}") for index in range(hops + 1)]
    for index in range(hops):
        net.add_link(
            nodes[index], nodes[index + 1], bandwidth_bps, per_hop_delay_s, queue_factory
        )
    net.finalize()
    return Chain(network=net, nodes=nodes)
