"""Static shortest-path routing.

Routes are computed once, after the topology is wired, with Dijkstra over
link propagation delays (ties broken lexicographically by node name for
determinism) and installed into each node's table. The benchmarks only use
static topologies, which matches the paper's testbed (ModelNet/dummynet
pipes configured up front).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Tuple

from .errors import RoutingError
from .link import Link
from .node import Node

__all__ = ["compute_routes", "install_routes", "shortest_path"]


def _adjacency(
    nodes: Iterable[Node], links: Iterable[Link]
) -> Dict[str, List[Tuple[str, float, Link]]]:
    adjacency: Dict[str, List[Tuple[str, float, Link]]] = {n.name: [] for n in nodes}
    for link in links:
        adjacency[link.node_a.name].append(
            (link.node_b.name, link.a_to_b.delay_s, link)
        )
        adjacency[link.node_b.name].append(
            (link.node_a.name, link.b_to_a.delay_s, link)
        )
    # Deterministic neighbour order regardless of wiring order.
    for neighbours in adjacency.values():
        neighbours.sort(key=lambda item: item[0])
    return adjacency


def _dijkstra(
    source: str, adjacency: Dict[str, List[Tuple[str, float, Link]]]
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Dijkstra from ``source`` over a prebuilt adjacency.

    Returns ``{dst: (cost, predecessor)}`` in discovery order (the source
    is its own predecessor) and the nodes in the order they were settled.
    A node is settled only after the predecessor it keeps, so walking
    that order builds any per-path value from an already final parent.
    """
    best: Dict[str, Tuple[float, str]] = {source: (0.0, source)}
    settled: Dict[str, None] = {}
    frontier: List[Tuple[float, str]] = [(0.0, source)]
    while frontier:
        cost, name = heapq.heappop(frontier)
        if name in settled:
            continue
        settled[name] = None
        for neighbour, weight, _ in adjacency[name]:
            candidate = cost + weight
            known = best.get(neighbour)
            if known is None or candidate < known[0] - 1e-15:
                best[neighbour] = (candidate, name)
                heapq.heappush(frontier, (candidate, neighbour))
    return best, list(settled)


def shortest_path(
    source: Node, nodes: Iterable[Node], links: Iterable[Link]
) -> Dict[str, Tuple[float, List[str]]]:
    """Dijkstra from ``source``; returns ``{dst: (cost, path_names)}``."""
    adjacency = _adjacency(nodes, links)
    if source.name not in adjacency:
        raise RoutingError(f"source {source.name} is not in the topology")
    best, settled = _dijkstra(source.name, adjacency)
    paths: Dict[str, List[str]] = {source.name: [source.name]}
    for name in settled[1:]:
        paths[name] = paths[best[name][1]] + [name]
    return {dst: (cost, paths[dst]) for dst, (cost, _) in best.items()}


def compute_routes(
    nodes: Iterable[Node], links: Iterable[Link]
) -> Dict[str, Dict[str, str]]:
    """For every node, the next hop toward every destination.

    Returns ``{node: {dst: next_hop_name}}``. The adjacency is built once
    and shared by every source's Dijkstra.

    A node with exactly one link (a leaf: every host of a star) reaches
    every destination through that link, and what it can reach is its
    neighbour plus what the neighbour can reach. Its table is derived
    from the neighbour's, so Dijkstra runs only for nodes with two or
    more links, and for a leaf whose neighbour is a leaf too. A derived
    table holds the same next hops as Dijkstra's; only its insertion
    order may differ, and nothing iterates a routing table.
    """
    node_list = list(nodes)
    adjacency = _adjacency(node_list, links)
    leaves: Dict[str, str] = {}
    computed: Dict[str, Dict[str, str]] = {}
    for node in node_list:
        source = node.name
        neighbours = adjacency[source]
        if len(neighbours) == 1 and len(adjacency[neighbours[0][0]]) != 1:
            leaves[source] = neighbours[0][0]
            continue
        best, settled = _dijkstra(source, adjacency)
        first_hop = {}
        for name in settled[1:]:
            parent = best[name][1]
            first_hop[name] = name if parent == source else first_hop[parent]
        computed[source] = {dst: first_hop[dst] for dst in best if dst != source}
    tables: Dict[str, Dict[str, str]] = {}
    for node in node_list:
        source = node.name
        hop = leaves.get(source)
        if hop is None:
            tables[source] = computed[source]
        else:
            table = {hop: hop}
            table.update((dst, hop) for dst in computed[hop] if dst != source)
            tables[source] = table
    return tables


def install_routes(nodes: Iterable[Node], links: Iterable[Link]) -> None:
    """Compute shortest paths and fill each node's routing table."""
    node_list = list(nodes)
    link_list = list(links)
    tables = compute_routes(node_list, link_list)
    by_name = {node.name: node for node in node_list}
    # Map (node, neighbour) -> egress interface.
    egress: Dict[Tuple[str, str], object] = {}
    for link in link_list:
        egress[(link.node_a.name, link.node_b.name)] = link.a_to_b
        egress[(link.node_b.name, link.node_a.name)] = link.b_to_a
    for name, next_hops in tables.items():
        node = by_name[name]
        for dst, hop in next_hops.items():
            interface = egress.get((name, hop))
            if interface is None:  # pragma: no cover - defensive
                raise RoutingError(f"no interface from {name} to {hop}")
            node.set_route(dst, interface)  # type: ignore[arg-type]
