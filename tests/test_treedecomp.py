import random
from itertools import combinations

from treealpha.graph import Graph, induced_subgraph
from treealpha.treedecomp import (
    TreeDecomposition,
    cobagged_pairs,
    closed_neighborhood_bag,
    compress,
    find_bag_containing_set,
    parse_td,
    restrict,
    serialize_td,
    single_bag_decomposition,
    subtree_distance,
    td_alpha,
    validate,
)
from conftest import complete, complete_bipartite, cycle, path_graph, random_graph


def naive_validate(g: Graph, td: TreeDecomposition) -> bool:
    """Re-implementation from the definition, for cross-checking."""
    k = td.node_count
    if k == 0 or len(td.edges) != k - 1:
        return False
    # connectivity of the node graph
    adj = {t: set() for t in range(k)}
    for a, b in td.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        t = stack.pop()
        for s in adj[t]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    if len(seen) != k:
        return False
    bagsets = [set(b) for b in td.bags]
    if any(v < 0 or v >= g.n for b in bagsets for v in b):
        return False
    for v in range(g.n):
        nodes = {t for t in range(k) if v in bagsets[t]}
        if not nodes:
            return False
        start = next(iter(nodes))
        seen_v = {start}
        stack = [start]
        while stack:
            t = stack.pop()
            for s in adj[t]:
                if s in nodes and s not in seen_v:
                    seen_v.add(s)
                    stack.append(s)
        if seen_v != nodes:
            return False
    for u, v in g.edges():
        if not any(u in b and v in b for b in bagsets):
            return False
    return True


FAN_C5 = TreeDecomposition(((0, 1), (1, 2)), ((0, 1, 2), (0, 2, 3), (0, 3, 4)))
PATH_TD = TreeDecomposition(((0, 1), (1, 2)), ((1, 2), (2, 3), (3, 4)))


def test_validate_single_bag_k3():
    k3 = complete(3)
    assert validate(k3, single_bag_decomposition(range(3))) == []


def test_validate_uncovered_edge():
    c5 = cycle(5)
    bad = TreeDecomposition(((0, 1), (1, 2), (2, 3)), ((0, 1), (1, 2), (2, 3), (3, 4)))
    problems = validate(c5, bad)
    assert any("0-4" in p or "4" in p for p in problems)


def test_validate_disconnected_subtree():
    g = path_graph(3)
    bad = TreeDecomposition(
        ((0, 1), (1, 2)), ((0, 1), (1, 2), (0,))
    )  # vertex 0 in nodes 0 and 2 only
    problems = validate(g, bad)
    assert any("disconnected" in p for p in problems)


def test_validate_over_a_vertex_subset():
    c5 = cycle(5)
    # decomposes C5 minus 0; the edges 0-1 and 0-4 leave the subset
    assert validate(c5, PATH_TD, {1, 2, 3, 4}) == []
    assert validate(c5, PATH_TD) == ["vertex 0 appears in no bag"] + [
        "edge 0-1 not covered by any bag",
        "edge 0-4 not covered by any bag",
    ]
    assert validate(c5, PATH_TD, {1, 2, 3}) == ["bag vertex 4 outside graph"]


def test_td_alpha_examples():
    c5 = cycle(5)
    # reference: enumerate each fan bag
    expected = max(
        max(
            len(s)
            for k in range(4)
            for s in combinations(bag, k)
            if all(not c5.adjacent(u, v) for u, v in combinations(s, 2))
        )
        for bag in FAN_C5.bags
    )
    assert expected == 2
    assert td_alpha(c5, FAN_C5) == 2
    k33 = complete_bipartite(3, 3)
    assert td_alpha(k33, single_bag_decomposition(range(6))) == 3
    p4 = path_graph(4)
    td = TreeDecomposition(((0, 1), (1, 2)), ((0, 1), (1, 2), (2, 3)))
    assert td_alpha(p4, td) == 1


def test_cobagged_pairs():
    assert cobagged_pairs(PATH_TD, (1, 4)) == set()
    with_bag = TreeDecomposition((), ((1, 3, 4),))
    assert cobagged_pairs(with_bag, (1, 4)) == {frozenset((1, 4))}
    assert cobagged_pairs(PATH_TD, (2,)) == set()


def test_find_bag_containing_set():
    td = TreeDecomposition(((0, 1),), ((0, 1, 2), (2, 3)))
    assert find_bag_containing_set(td, (0, 1, 2)) == 0
    assert find_bag_containing_set(td, (1, 3)) is None
    assert find_bag_containing_set(td, ()) == 0


def test_closed_neighborhood_bag_examples():
    p4 = path_graph(4)
    td = TreeDecomposition(((0, 1), (1, 2)), ((0, 1), (1, 2), (2, 3)))
    assert closed_neighborhood_bag(p4, td) == (0, 0)  # bag {0,1}, vertex 0
    k13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
    star_td = TreeDecomposition(
        ((0, 1), (0, 2), (0, 3)), ((0,), (0, 1), (0, 2), (0, 3))
    )
    node, v = closed_neighborhood_bag(k13, star_td)
    assert v in (1, 2, 3) and set(star_td.bags[node]) >= {0, v}
    k3 = complete(3)
    assert closed_neighborhood_bag(k3, single_bag_decomposition(range(3))) == (0, 0)


def test_closed_neighborhood_bag_property(p5_kll_corpus):
    from treealpha.decomposer import decompose

    for g, ell, _ in p5_kll_corpus[:10]:
        td = decompose(g, ell, check_p5=False)
        node, v = closed_neighborhood_bag(g, td)
        assert set(g.neighbors(v)) | {v} <= set(td.bags[node])


def test_restrict_examples():
    c5 = cycle(5)
    assert restrict(FAN_C5, range(5)).bags == FAN_C5.bags
    empty = restrict(FAN_C5, ())
    assert all(b == () for b in empty.bags)
    sub, _ = induced_subgraph(c5, (0, 1, 2))
    r = restrict(FAN_C5, (0, 1, 2))
    assert validate(sub, r) == []
    assert td_alpha(sub, r) <= 2


def test_restrict_never_raises_alpha():
    rng = random.Random(53)
    for _ in range(25):
        g = random_graph(rng.randint(1, 8), 0.4, rng)
        td = single_bag_decomposition(range(g.n))
        keep = sorted(
            v for v in range(g.n) if rng.random() < 0.6
        )
        sub, _ = induced_subgraph(g, keep)
        r = restrict(td, keep)
        assert td_alpha(sub, r) <= td_alpha(g, td)


def test_subtree_distance_examples():
    assert subtree_distance(PATH_TD, 1, 4) == 2
    td = TreeDecomposition(((0, 1),), ((0, 1), (1, 2)))
    assert subtree_distance(td, 0, 1) == 0
    td2 = TreeDecomposition(((0, 1),), ((0,), (1,)))
    assert subtree_distance(td2, 0, 1) == 1


def test_validate_cross_checked_with_naive(p5_kll_corpus):
    from treealpha.decomposer import decompose

    rng = random.Random(59)
    # valid decompositions agree
    for g, ell, _ in p5_kll_corpus[:8]:
        td = decompose(g, ell, check_p5=False)
        assert (validate(g, td) == []) == naive_validate(g, td)
    # randomly broken ones agree too
    for _ in range(60):
        n = rng.randint(2, 8)
        g = random_graph(n, 0.5, rng)
        k = rng.randint(1, 4)
        bags = tuple(
            tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            for _ in range(k)
        )
        edges = tuple((i, i + 1) for i in range(k - 1))
        td = TreeDecomposition(edges, bags)
        assert (validate(g, td) == []) == naive_validate(g, td)


def test_compress_keeps_everything_that_matters():
    c5 = cycle(5)
    td = TreeDecomposition(
        ((0, 1), (1, 2), (2, 3)),
        ((0, 1), (0, 1, 2), (0, 2, 3), (0, 3, 4)),
    )
    small = compress(td)
    assert small.node_count < td.node_count
    assert validate(c5, small) == []
    assert td_alpha(c5, small) == td_alpha(c5, td)
    assert cobagged_pairs(small, range(5)) == cobagged_pairs(td, range(5))


def test_serialization_round_trip():
    text = serialize_td(FAN_C5)
    back = parse_td(text)
    assert back.bags == FAN_C5.bags and set(back.edges) == set(FAN_C5.edges)
    assert "td 3" in text
