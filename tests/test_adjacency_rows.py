"""Adjacency stored once, as bitmask rows, in ``Graph`` and ``TreeDecomposition``.

``Graph`` keeps one bitmask row per vertex and reads neighbors, degrees,
edges, equality and hashing off it; ``TreeDecomposition`` keeps its node
adjacency as one node mask per node.  Both are checked here against
set-based references on seeded random inputs, and ``neighbor_bits`` gets
the same range check as ``neighbors``.
"""

import random
from itertools import combinations

import pytest

from treealpha.graph import Graph
from treealpha.treedecomp import TreeDecomposition, compress


def ref_adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def random_edge_lists():
    """Seeded (n, edges) pairs: empty, edgeless, sparse, dense and complete."""
    rng = random.Random(2024)
    out = [(0, []), (1, []), (5, []), (6, list(combinations(range(6), 2)))]
    for _ in range(40):
        n, p = rng.randint(2, 70), rng.random()
        out.append((n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return out


def random_tree_edges(k, rng):
    return tuple((rng.randrange(t), t) for t in range(1, k))


def test_edge_list_order_does_not_matter():
    rng = random.Random(7)
    for n, edges in random_edge_lists():
        g = Graph(n, edges)
        shuffled = edges[:]
        rng.shuffle(shuffled)
        flipped = [(v, u) for u, v in reversed(edges)]
        for other in (Graph(g.n, shuffled), Graph(g.n, flipped)):
            assert other == g
            assert hash(other) == hash(g)
    assert Graph(3, [(0, 1)]) != Graph(3, [(1, 2)])
    assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])


def test_views_match_a_set_based_reference():
    for n, edges in random_edge_lists():
        rng = random.Random(n)
        rng.shuffle(edges)
        g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
        adj = ref_adjacency(n, edges)
        want = sorted((u, v) for u in range(n) for v in adj[u] if u < v)
        assert g.edges() == want
        assert g.edge_count == len(edges)
        for v in range(g.n):
            assert g.neighbors(v) == tuple(sorted(adj[v]))
            assert g.degree(v) == len(adj[v])
            assert g.neighbor_bits(v) == sum(1 << u for u in adj[v])


def test_construction_errors():
    with pytest.raises(ValueError, match=r"duplicate edge \(1,0\)"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(2, 2)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])


@pytest.mark.parametrize("v", [-1, 3])
def test_neighbor_bits_checks_its_vertex(v):
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=f"invalid vertex {v} for graph with n=3"):
        g.neighbor_bits(v)
    with pytest.raises(ValueError, match=f"invalid vertex {v} for graph with n=3"):
        g.neighbors(v)


def test_graph_stores_only_the_rows():
    assert Graph.__slots__ == ("n", "_bits")


def check_node_adjacency(td):
    adj = ref_adjacency(td.node_count, td.edges)
    assert all(type(row) is int for row in td._node_adj)
    assert len(td._node_adj) == td.node_count
    for t in range(td.node_count):
        assert td.node_neighbors(t) == tuple(sorted(adj[t]))
    assert sorted(td.rooted.order) == list(range(td.node_count))


def test_node_adjacency_is_one_mask_per_node():
    rng = random.Random(11)
    for _ in range(60):
        k = rng.randint(1, 25)
        edges = random_tree_edges(k, rng)
        masks = [rng.getrandbits(6) for _ in range(k)]
        built = TreeDecomposition.from_masks(edges, masks)
        by_tuples = TreeDecomposition(edges, built.bags)
        grown = built.with_leaf(rng.randrange(k), (0, 3))
        for td in (built, by_tuples, grown, compress(built), compress(grown)):
            check_node_adjacency(td)
