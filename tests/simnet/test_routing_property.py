"""Property test: routing tables against a path-copying Dijkstra.

``compute_routes`` runs one Dijkstra per source over a shared adjacency
and keeps only each destination's first hop. The reference below is the
textbook form it replaced: every relaxation copies the full path, with
the same heap keys, the same ``1e-15`` improvement rule and the same
neighbour order by name. Delays are drawn from a few values (zero
included), so equal-cost paths are common and the tie rules decide; as
``0.1 + 0.2`` rounds to just above ``0.3``, some of those ties are only
ties under the ``1e-15`` rule.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.simnet.routing import compute_routes, shortest_path
from repro.simnet.topology import Network

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
    for node in nodes:
        expected = reference_paths(node.name, net.links)
        paths = shortest_path(node, nodes, net.links)
        assert paths == expected
        assert list(paths) == list(expected)
        hops = {dst: path[1] for dst, (_, path) in paths.items()
                if dst != node.name}
        assert tables[node.name] == hops
        assert list(tables[node.name]) == list(hops)
        assert len(hops) == len(nodes) - 1
