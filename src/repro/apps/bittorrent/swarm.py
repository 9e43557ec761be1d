"""Swarm orchestration: build a tracker + seeds + leechers on a topology.

The paper's BitTorrent experiment puts a swarm on an emulated network and
measures the distribution of download completion times. :func:`build_swarm`
wires the tracker and peers onto the leaves of an existing star network
(every host needs its own TCP/UDP stacks) and returns handles for the
benchmark to start and observe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from ...simnet.node import Node
from ...tcp.options import TcpOptions
from ...tcp.stack import TcpStack
from ...udp.socket import UdpStack
from .metainfo import TorrentMeta
from .peer import Peer, PeerConfig
from .tracker import TRACKER_PORT, TrackerServer

__all__ = ["Swarm", "build_swarm", "salt_fraction"]


def salt_fraction(index: int) -> float:
    """Deterministic per-index fraction in [0, 1) for symmetry-breaking.

    Knuth's multiplicative hash spreads consecutive indices across the
    unit interval so no two indices (and no arithmetic combination of two
    indices' values) collide to the same float offset. The harness's
    per-link ``delay_salt`` draws its per-leaf offsets from it.
    """
    return ((index * 2654435761) & 0xFFFFFFFF) / 2.0 ** 32


@dataclass
class Swarm:
    """Handles to a constructed swarm.

    In a sharded run each worker builds the swarm with an ``include``
    filter, so peers (and possibly the tracker) it does not own are
    ``None`` placeholders — every accessor here skips them, and predicates
    like :meth:`all_complete` answer for the *locally owned* subset (the
    sharded driver combines them with a consensus barrier).
    """

    tracker: Optional[TrackerServer]
    seeds: List[Optional[Peer]]
    leechers: List[Optional[Peer]]

    @property
    def peers(self) -> List[Peer]:
        return [p for p in self.seeds + self.leechers if p is not None]

    def start(self, stagger_s: float = 0.0) -> None:
        """Start every peer; leechers may be staggered to avoid a
        thundering-herd announce (seeds always start first)."""
        for seed in self.seeds:
            if seed is not None:
                seed.start()
        # The stagger index comes from the full roster so a sharded
        # worker's leechers start at the same times as in one process.
        for index, leecher in enumerate(self.leechers):
            if leecher is None:
                continue
            delay = stagger_s * index
            if delay > 0:
                leecher.node.clock.call_in(delay, leecher.start)
            else:
                leecher.start()

    def all_complete(self) -> bool:
        """Whether every (locally owned) leecher finished its download."""
        return all(
            peer.complete for peer in self.leechers if peer is not None
        )

    def download_times(self) -> List[float]:
        """Completion times (local/virtual seconds) of finished leechers."""
        times = (
            peer.download_time()
            for peer in self.leechers
            if peer is not None
        )
        return [t for t in times if t is not None]


def build_swarm(
    tracker_node: Node,
    seed_nodes: List[Node],
    leecher_nodes: List[Node],
    meta: TorrentMeta,
    rng: random.Random,
    config: Optional[PeerConfig] = None,
    tcp_options: Optional[TcpOptions] = None,
    on_leecher_complete: Optional[Callable[[Peer], None]] = None,
    include: Optional[Callable[[Node], bool]] = None,
) -> Swarm:
    """Install tracker and peers on prepared nodes.

    Each node gets fresh TCP/UDP stacks; per-peer RNGs are derived from the
    master ``rng`` so swarm randomness is reproducible yet per-peer
    independent.

    ``include`` is the sharded runner's ownership filter: excluded nodes
    get a ``None`` placeholder instead of a peer (or tracker). The master
    RNG is drawn for *every* roster slot regardless, so each constructed
    peer receives exactly the seed it would in a single-process build.
    """

    def wanted(node: Node) -> bool:
        return include is None or include(node)

    tracker_seed = rng.getrandbits(32)
    tracker = (
        TrackerServer(UdpStack(tracker_node), rng=random.Random(tracker_seed))
        if wanted(tracker_node)
        else None
    )
    base_config = config if config is not None else PeerConfig()

    def make_peer(node: Node, seed: bool) -> Optional[Peer]:
        peer_seed = rng.getrandbits(32)  # always drawn: keeps streams aligned
        if not wanted(node):
            return None
        return Peer(
            tcp=TcpStack(node, default_options=tcp_options),
            udp=UdpStack(node),
            meta=meta,
            tracker_addr=tracker_node.name,
            rng=random.Random(peer_seed),
            seed=seed,
            config=base_config,
            tcp_options=tcp_options,
            on_complete=on_leecher_complete if not seed else None,
        )

    seeds = [make_peer(node, True) for node in seed_nodes]
    leechers = [make_peer(node, False) for node in leecher_nodes]
    return Swarm(tracker=tracker, seeds=seeds, leechers=leechers)
