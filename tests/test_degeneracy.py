import random
from itertools import combinations

import pytest

from treealpha.degeneracy import (
    alpha_degeneracy,
    high_degree_extract,
    low_alpha_vertex,
    low_degree_induced_matching,
    near_complete_vertices,
)
from treealpha.graph import Graph
from treealpha.oracles import (
    Witness,
    alpha_of_subset,
    bipartite_max_matching,
    max_independent_set,
    verify_witness,
)

from conftest import complete, complete_bipartite, cycle, edgeless, random_graph


def brute_alpha_degeneracy(g: Graph) -> int:
    """Definition-level reference: max over induced subgraphs of the min
    closed-neighborhood independence number."""
    worst = 0
    for mask in range(1, 1 << g.n):
        members = [v for v in range(g.n) if mask >> v & 1]
        inner = min(
            alpha_of_subset(g, [u for u in g.neighbors(v) if mask >> u & 1] + [v])
            for v in members
        )
        worst = max(worst, inner)
    return worst


def random_bipartite(a: int, b: int, p: float, rng: random.Random) -> Graph:
    edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < p]
    return Graph(a + b, edges)


def crossing_biclique_exists(g: Graph, a_side, b_side, ell: int) -> bool:
    for xs in combinations(a_side, ell):
        common = set(b_side)
        for x in xs:
            common &= set(g.neighbors(x))
        if len(common) >= ell:
            return True
    return False


# -- near-complete filter --------------------------------------------------------


def test_near_complete_on_k22_returns_biclique():
    k22 = complete_bipartite(2, 2)
    got = near_complete_vertices(k22, (0, 1), (2, 3), 1, 2)
    assert isinstance(got, Witness) and verify_witness(k22, got)


def test_near_complete_precondition():
    three_k2 = Graph(6, [(0, 3), (1, 4), (2, 5)])
    with pytest.raises(ValueError):
        near_complete_vertices(three_k2, (0, 1, 2), (3, 4, 5), 2, 2)


def test_near_complete_random_biclique_free_instances():
    rng = random.Random(31)
    done = 0
    while done < 40:
        a, b, ell, p = rng.randint(1, 5), rng.randint(2, 7), 2, rng.random()
        g = random_bipartite(a, b, p, rng)
        a_side = tuple(range(a))
        b_side = tuple(range(a, a + b))
        pmax = len(b_side) // ell
        if pmax < 1 or crossing_biclique_exists(g, a_side, b_side, ell):
            continue
        pval = rng.randint(1, pmax)
        got = near_complete_vertices(g, a_side, b_side, pval, ell)
        assert not isinstance(got, Witness)
        assert len(got) <= ell - 1
        # reference count of qualifying vertices
        expected = [
            x
            for x in a_side
            if sum(1 for y in b_side if not g.adjacent(x, y)) < pval
        ]
        assert list(got) == expected
        done += 1


# -- high-degree extraction --------------------------------------------------------


def test_high_degree_finds_disjoint_edges():
    # X = {0,1}, Y = {2,3,4}; 0-2, 0-3, 1-3, 1-4
    g = Graph(5, [(0, 2), (0, 3), (1, 3), (1, 4)])
    got = high_degree_extract(g, (0, 1), (2, 3, 4), 2, 2)
    assert got == Witness("dk2", ((0, 2), (1, 4)))
    assert verify_witness(g, got)


def test_high_degree_on_k22_surfaces_biclique():
    k22 = complete_bipartite(2, 2)
    got = high_degree_extract(k22, (0, 1), (2, 3), 2, 2)
    assert isinstance(got, Witness) and got.kind == "biclique"
    assert verify_witness(k22, got)


def test_high_degree_bound_certificate():
    g = Graph(3, [(0, 1), (0, 2)])
    assert high_degree_extract(g, (0,), (1, 2), 2, 2) == 1


def test_high_degree_degree_precondition():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError) as err:
        high_degree_extract(g, (0, 2), (1,), 2, 2)
    assert "2" in str(err.value)


def test_high_degree_d3_private_neighbors():
    # four X vertices with four private neighbors each: plenty of 3K2s
    edges = [(x, 4 + 4 * x + i) for x in range(4) for i in range(4)]
    g = Graph(20, edges)
    got = high_degree_extract(g, tuple(range(4)), tuple(range(4, 20)), 3, 2)
    assert isinstance(got, Witness) and got.kind == "dk2" and len(got.parts) == 3
    assert verify_witness(g, got)


def test_high_degree_d3_dense_surfaces_biclique():
    k45 = complete_bipartite(4, 5)
    got = high_degree_extract(k45, tuple(range(4)), tuple(range(4, 9)), 3, 2)
    assert isinstance(got, Witness) and got.kind == "biclique"
    assert verify_witness(k45, got)


# -- low-degree induced matching -----------------------------------------------------


def test_low_degree_matching_on_3k2():
    g = Graph(6, [(0, 3), (1, 4), (2, 5)])
    m = bipartite_max_matching(g, (0, 1, 2), (3, 4, 5))
    w = low_degree_induced_matching(g, (0, 1, 2), (3, 4, 5), m, 1, 2)
    assert w.kind == "matching" and len(w.parts) == 2
    assert verify_witness(g, w)


def test_low_degree_matching_base_case():
    g = Graph(2, [(0, 1)])
    m = bipartite_max_matching(g, (0,), (1,))
    w = low_degree_induced_matching(g, (0,), (1,), m, 1, 1)
    assert w.parts == ((0, 1),)


def test_low_degree_matching_random_cross_check():
    rng = random.Random(37)
    done = 0
    while done < 25:
        a = rng.randint(5, 7)
        g = random_bipartite(a, a, 0.2, rng)
        a_side = tuple(range(a))
        b_side = tuple(range(a, 2 * a))
        if any(g.degree(x) > 2 or g.degree(x) == 0 for x in a_side):
            continue
        m = bipartite_max_matching(g, a_side, b_side)
        if len(m.edges) < a or a <= 2 * (2 - 1) * 2:
            continue
        w = low_degree_induced_matching(g, a_side, b_side, m, 2, 2)
        assert verify_witness(g, w)
        # brute force agrees an induced 2-matching exists
        pairs = [
            (e, f)
            for e, f in combinations(g.edges(), 2)
            if len({*e, *f}) == 4
            and not any(g.adjacent(p, q) for p in e for q in f)
        ]
        assert pairs
        done += 1


def test_low_degree_matching_preconditions():
    g = Graph(4, [(0, 2), (1, 2), (1, 3)])
    m = bipartite_max_matching(g, (0, 1), (2, 3))
    with pytest.raises(ValueError):
        low_degree_induced_matching(g, (0, 1), (2, 3), m, 1, 2)  # deg(1) = 2 > q
    with pytest.raises(ValueError):
        low_degree_induced_matching(g, (0, 1), (2, 3), m, 2, 3)  # |X| too small


# -- the low-alpha vertex -----------------------------------------------------------


def test_low_alpha_on_c5():
    rep = low_alpha_vertex(cycle(5), 2, 2)
    assert rep.vertex == 0
    assert rep.alpha_closed == 2 and rep.bound == 4
    assert rep.witness is None
    assert min(max_independent_set(cycle(5))) == 0


def test_low_alpha_on_star():
    rep = low_alpha_vertex(Graph(4, [(0, 1), (0, 2), (0, 3)]), 2, 2)
    assert rep.vertex in (1, 2, 3)
    assert rep.alpha_closed == 1 and rep.witness is None


def test_low_alpha_on_k44_extracts_biclique():
    k44 = complete_bipartite(4, 4)
    rep = low_alpha_vertex(k44, 2, 2)
    assert rep.alpha_closed == 4 >= rep.bound
    assert rep.witness is not None and rep.witness.kind == "biclique"
    assert verify_witness(k44, rep.witness)


def test_low_alpha_extracts_path_on_subdivided_star():
    # spider with four length-2 legs: the hub sits in the maximum
    # independent set with four independent neighbors, and the matched
    # neighborhoods are incomparable, so the extraction must surface one of
    # the genuine induced 5-vertex paths.
    g = Graph(
        9,
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7), (4, 8)],
    )
    rep = low_alpha_vertex(g, 2, 2)
    assert rep.vertex == 0 and rep.alpha_closed == 4 >= rep.bound
    assert rep.witness is not None and rep.witness.kind == "path"
    assert verify_witness(g, rep.witness)


def test_low_alpha_general_d_matching_branch():
    # a hub with 42 length-2 legs beats the d=3 bound (9*ell + 6*ell^2 = 42
    # for ell=2) and every matched neighbor has low degree, so the
    # induced-matching extraction runs end to end.
    legs = 42
    edges = [(0, i) for i in range(1, legs + 1)]
    edges += [(i, legs + i) for i in range(1, legs + 1)]
    g = Graph(2 * legs + 1, edges)
    rep = low_alpha_vertex(g, 2, 3)
    assert rep.vertex == 0 and rep.alpha_closed == 42 >= rep.bound
    assert rep.witness is not None and rep.witness.kind in ("matching", "dk2")
    assert len(rep.witness.parts) == 3
    assert verify_witness(g, rep.witness)


def test_low_alpha_general_d_high_degree_branch():
    # 38 plain legs plus four heavy spokes sharing four common leaves: the
    # heavy spokes all have degree >= 4 toward the independent side, which
    # routes the extraction through the private-neighborhood selection and
    # surfaces the shared-leaf biclique.
    edges = [(0, m) for m in range(1, 43)]
    edges += [(m, 42 + m) for m in range(1, 39)]  # private leaves 43..80
    shared = [81, 82, 83, 84]
    privates = {39: 85, 40: 86, 41: 87, 42: 88}
    for m in range(39, 43):
        edges += [(m, s) for s in shared]
        edges.append((m, privates[m]))
    g = Graph(89, edges)
    rep = low_alpha_vertex(g, 2, 3)
    assert rep.vertex == 0 and rep.alpha_closed == 42 >= rep.bound
    assert rep.witness is not None and rep.witness.kind == "biclique"
    assert verify_witness(g, rep.witness)


def test_low_alpha_report_invariant_on_random_graphs():
    rng = random.Random(41)
    for _ in range(60):
        g = random_graph(rng.randint(1, 11), rng.choice([0.2, 0.5, 0.8]), rng)
        for ell in (2, 3):
            rep = low_alpha_vertex(g, ell, 2)
            if rep.witness is None:
                assert rep.alpha_closed < rep.bound
            else:
                assert rep.alpha_closed >= rep.bound
                assert verify_witness(g, rep.witness)


def test_low_alpha_input_validation():
    with pytest.raises(ValueError):
        low_alpha_vertex(cycle(5), 1, 2)
    with pytest.raises(ValueError):
        low_alpha_vertex(cycle(5), 2, 1)
    with pytest.raises(ValueError):
        low_alpha_vertex(Graph(0, []), 2, 2)


def test_degeneracy_bound_on_biclique_free_corpus(p5_kll_corpus):
    for g, ell, _seed in p5_kll_corpus:
        rep = low_alpha_vertex(g, ell, 2)
        assert rep.witness is None
        assert rep.alpha_closed <= 2 * ell - 1


# -- alpha-degeneracy ------------------------------------------------------------------


def test_alpha_degeneracy_examples():
    assert alpha_degeneracy(complete(5)) == 1
    assert alpha_degeneracy(edgeless(4)) == 1
    assert alpha_degeneracy(complete_bipartite(3, 3)) == 3
    with pytest.raises(ValueError):
        alpha_degeneracy(Graph(0, []))


def test_alpha_degeneracy_matches_brute_force():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 7)
        g = random_graph(n, rng.choice([0.25, 0.5, 0.75]), rng)
        assert alpha_degeneracy(g) == brute_alpha_degeneracy(g)


def test_low_alpha_within_matches_the_induced_subgraph():
    from treealpha.graph import induced_subgraph

    rng = random.Random(7)
    cases = [(complete_bipartite(5, 5), range(1, 10))]
    for _ in range(80):
        g = random_graph(rng.randint(2, 22), rng.choice([0.2, 0.35, 0.5]), rng)
        cases.append((g, [v for v in range(g.n) if rng.random() < 0.8] or [0]))
    kinds = set()
    for g, within in cases:
        sub, mapping = induced_subgraph(g, within)
        for ell in (2, 3):
            got = low_alpha_vertex(g, ell, 2, within=within)
            want = low_alpha_vertex(sub, ell, 2)
            assert got.vertex == mapping[want.vertex]
            assert got.alpha_closed == want.alpha_closed
            if want.witness is None:
                assert got.witness is None
                continue
            kinds.add(want.witness.kind)
            assert got.witness.parts == tuple(
                tuple(mapping[v] for v in part) for part in want.witness.parts
            )
    assert kinds == {"path", "biclique"}
    with pytest.raises(ValueError):
        low_alpha_vertex(cycle(5), 2, 2, within=())
