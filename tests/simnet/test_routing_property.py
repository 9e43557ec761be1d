"""Property test: routing tables against a path-copying Dijkstra.

``compute_routes`` runs one Dijkstra per source over a shared adjacency
(deriving a leaf's table from its neighbour's instead) and keeps only
each destination's first hop. The reference below is the
textbook form it replaced: every relaxation copies the full path, with
the same heap keys, the same ``1e-15`` improvement rule and the same
neighbour order by name. Delays are drawn from a few values (zero
included), so equal-cost paths are common and the tie rules decide; as
``0.1 + 0.2`` rounds to just above ``0.3``, some of those ties are only
ties under the ``1e-15`` rule.
"""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet import routing
from repro.simnet.routing import compute_routes, shortest_path
from repro.simnet.topology import (Network, build_chain, build_dumbbell,
                                   build_star)

DELAYS = (0.0, 0.1, 0.2, 0.3)


def reference_paths(source, links):
    """``{dst: (cost, path)}`` by Dijkstra that copies a path per relaxation."""
    adjacency = {}
    for link in links:
        a, b = link.node_a.name, link.node_b.name
        adjacency.setdefault(a, []).append((b, link.a_to_b.delay_s))
        adjacency.setdefault(b, []).append((a, link.b_to_a.delay_s))
    for neighbours in adjacency.values():
        neighbours.sort(key=lambda item: item[0])
    distances, paths = {source: 0.0}, {source: [source]}
    visited, frontier = set(), [(0.0, source)]
    while frontier:
        cost, name = heapq.heappop(frontier)
        if name in visited:
            continue
        visited.add(name)
        for neighbour, weight in adjacency.get(name, []):
            candidate = cost + weight
            if (neighbour not in distances
                    or candidate < distances[neighbour] - 1e-15):
                distances[neighbour] = candidate
                paths[neighbour] = paths[name] + [neighbour]
                heapq.heappush(frontier, (candidate, neighbour))
    return {dst: (distances[dst], paths[dst]) for dst in distances}


def derived_leaves(links):
    """Nodes with one link whose neighbour has more than one."""
    degree = {}
    neighbour = {}
    for link in links:
        a, b = link.node_a.name, link.node_b.name
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
        neighbour[a], neighbour[b] = b, a
    return {name for name, count in degree.items()
            if count == 1 and degree[neighbour[name]] > 1}


@st.composite
def topologies(draw):
    """A connected network: a random spanning tree plus extra links."""
    count = draw(st.integers(2, 12))
    names = draw(st.permutations([f"n{i:02d}" for i in range(count)]))
    net = Network()
    nodes = [net.add_node(name) for name in names]
    pairs = set()
    for index in range(1, count):
        parent = draw(st.integers(0, index - 1))
        pairs.add((parent, index))
    extra = draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)),
        max_size=2 * count,
    ))
    pairs.update((min(a, b), max(a, b)) for a, b in extra if a != b)
    for a, b in sorted(pairs):
        net.add_link(nodes[a], nodes[b], 1e6, draw(st.sampled_from(DELAYS)))
    return net


@settings(max_examples=200, deadline=None)
@given(topologies())
def test_routes_match_path_copying_dijkstra(net):
    nodes = list(net.nodes.values())
    tables = compute_routes(nodes, net.links)
    assert list(tables) == [node.name for node in nodes]
    # A leaf's table is derived from its neighbour's, not by its own
    # Dijkstra: the same next hops, in an insertion order nothing reads.
    leaves = derived_leaves(net.links)
    for node in nodes:
        expected = reference_paths(node.name, net.links)
        paths = shortest_path(node, nodes, net.links)
        assert paths == expected
        assert list(paths) == list(expected)
        hops = {dst: path[1] for dst, (_, path) in paths.items()
                if dst != node.name}
        assert tables[node.name] == hops
        if node.name not in leaves:
            assert list(tables[node.name]) == list(hops)
        assert len(hops) == len(nodes) - 1


# ------------------------------------------------ leaves skip their Dijkstra


def full_next_hops(nodes, links):
    """Every (node, destination) -> next hop by one Dijkstra per node."""
    return {
        node.name: {dst: path[1]
                    for dst, (_, path) in shortest_path(node, nodes, links).items()
                    if dst != node.name}
        for node in nodes
    }


def routes_and_dijkstra_sources(net, monkeypatch):
    """``compute_routes`` on ``net`` and the sources it ran Dijkstra from."""
    sources = []
    dijkstra = routing._dijkstra

    def counted(source, adjacency):
        sources.append(source)
        return dijkstra(source, adjacency)

    monkeypatch.setattr(routing, "_dijkstra", counted)
    tables = compute_routes(net.nodes.values(), net.links)
    monkeypatch.undo()
    return tables, sources


def two_nodes():
    net = Network()
    net.add_link(net.add_node("a"), net.add_node("b"), 1e6, 0.001)
    return net


@pytest.mark.parametrize("build", [
    lambda: build_star(12, 1e6, 0.002).network,
    lambda: build_star(1, 1e6, 0.002).network,
    lambda: build_dumbbell(3, 1e9, 1e6, 0.01).network,
    lambda: build_chain(5, 1e6, 0.001).network,
    two_nodes,
], ids=["star", "star-of-one", "dumbbell", "chain", "two-nodes"])
def test_leaf_tables_equal_full_computation(build, monkeypatch):
    net = build()
    nodes = list(net.nodes.values())
    tables, sources = routes_and_dijkstra_sources(net, monkeypatch)
    assert tables == full_next_hops(nodes, net.links)
    leaves = derived_leaves(net.links)
    assert sources == [node.name for node in nodes if node.name not in leaves]


def test_star_runs_one_dijkstra(monkeypatch):
    _, sources = routes_and_dijkstra_sources(
        build_star(100, 1e6, 0.002).network, monkeypatch)
    assert sources == ["hub"]


@st.composite
def meshes_with_leaves(draw):
    """A connected core with parallel links, plus leaves and leaf chains."""
    core = draw(st.integers(1, 6))
    net = Network()
    nodes = [net.add_node(f"c{i}") for i in range(core)]
    for index in range(1, core):
        parent = draw(st.integers(0, index - 1))
        net.add_link(nodes[parent], nodes[index], 1e6,
                     draw(st.sampled_from(DELAYS)))
    extra = draw(st.lists(
        st.tuples(st.integers(0, core - 1), st.integers(0, core - 1)),
        max_size=2 * core,
    ))
    for a, b in extra:  # repeats make parallel links
        if a != b:
            net.add_link(nodes[a], nodes[b], 1e6, draw(st.sampled_from(DELAYS)))
    leaves = draw(st.integers(0 if core > 1 else 1, 6))
    for index in range(leaves):
        # Attach to any node so far: a leaf hung on a leaf makes a chain.
        anchor = nodes[draw(st.integers(0, len(nodes) - 1))]
        leaf = net.add_node(f"l{index}")
        net.add_link(leaf, anchor, 1e6, draw(st.sampled_from(DELAYS)))
        nodes.append(leaf)
    return net


@settings(max_examples=150, deadline=None)
@given(meshes_with_leaves())
def test_leaf_tables_match_on_meshes_with_parallel_links(net):
    nodes = list(net.nodes.values())
    assert compute_routes(nodes, net.links) == full_next_hops(nodes, net.links)
