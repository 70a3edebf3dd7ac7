import random
from itertools import combinations
from typing import Optional, Sequence

import pytest

from treealpha.graph import Graph, is_independent
from treealpha.oracles import (
    BICLIQUE,
    Witness,
    _mis_mask,
    alpha_of_subset,
    biclique_witness,
    bipartite_max_matching,
    find_induced_biclique,
    find_induced_complete_bipartite,
    find_induced_path,
    find_induced_subdivided_star,
    matching_witness,
    max_independent_set,
    max_independent_subset,
    path_witness,
    verify_witness,
)

from conftest import complete, complete_bipartite, cycle, edgeless, path_graph, random_graph


def brute_alpha(g: Graph) -> int:
    """Independent reference: enumerate all subsets."""
    best = 0
    for k in range(g.n, 0, -1):
        if k <= best:
            break
        for sub in combinations(range(g.n), k):
            if all(not g.adjacent(u, v) for u, v in combinations(sub, 2)):
                best = k
                break
    return best


# -- maximum independent set ---------------------------------------------------


def test_mis_examples():
    assert len(max_independent_set(cycle(5))) == 2
    mis = max_independent_set(complete_bipartite(3, 3))
    assert mis == (0, 1, 2)
    assert max_independent_set(edgeless(4)) == (0, 1, 2, 3)


def test_mis_matches_brute_force_on_random_corpus():
    rng = random.Random(7)
    for trial in range(160):
        n = rng.randint(0, 12)
        g = random_graph(n, rng.choice([0.15, 0.35, 0.6, 0.85]), rng)
        got = max_independent_set(g)
        assert is_independent(g, got)
        assert len(got) == brute_alpha(g)


def test_mis_deterministic():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(9, 0.4, rng)
        assert max_independent_set(g) == max_independent_set(g)


def test_alpha_of_subset_examples():
    c5 = cycle(5)
    # enumerate the 3-subset {4,0,1} directly: {1,4} independent, no 3-subset is
    expected = max(
        len(s)
        for k in range(4)
        for s in combinations((4, 0, 1), k)
        if all(not c5.adjacent(u, v) for u, v in combinations(s, 2))
    )
    assert expected == 2
    assert alpha_of_subset(c5, (4, 0, 1)) == 2
    assert alpha_of_subset(c5, ()) == 0
    assert alpha_of_subset(complete(4), (0, 1, 2, 3)) == 1
    with pytest.raises(ValueError):
        alpha_of_subset(c5, (0, 9))


def _seed_clique_cover_bound(bits, mask):
    """Greedy clique cover of the masked vertices; its size bounds alpha."""
    cliques = []
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        nb = bits[v]
        for i, c in enumerate(cliques):
            if c & ~nb == 0:  # v adjacent to every current member
                cliques[i] = c | (1 << v)
                break
        else:
            cliques.append(1 << v)
    return len(cliques)


def _seed_mis_mask(bits, mask):
    """Reference: plain branch and bound with no component splitting.

    Branches on a maximum-degree vertex (ties to the lowest id), trying the
    include branch first; ties between optima keep the first one found.  The
    library must return exactly this set, since the engine roots at its
    minimum.
    """
    best = 0
    best_size = -1

    def rec(mask, chosen, size):
        nonlocal best, best_size
        # strip vertices isolated within mask: always take them
        while True:
            m, grabbed = mask, 0
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if bits[v] & mask == 0:
                    grabbed |= 1 << v
            if not grabbed:
                break
            chosen |= grabbed
            size += bin(grabbed).count("1")
            mask &= ~grabbed
        if not mask:
            if size > best_size:
                best_size = size
                best = chosen
            return
        if size + _seed_clique_cover_bound(bits, mask) <= best_size:
            return
        # pivot: max degree within mask, lowest id on ties
        pivot, pdeg = -1, -1
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = bin(bits[v] & mask).count("1")
            if d > pdeg:
                pivot, pdeg = v, d
        rec(mask & ~(bits[pivot] | (1 << pivot)), chosen | (1 << pivot), size + 1)
        rec(mask & ~(1 << pivot), chosen, size)

    rec(mask, 0, 0)
    return best


def _disjoint_union(pieces, rng):
    """Disjoint union of ``pieces`` under a random relabelling."""
    n = sum(p.n for p in pieces)
    labels = list(range(n))
    rng.shuffle(labels)
    edges, offset = [], 0
    for p in pieces:
        edges += [(labels[offset + u], labels[offset + v]) for u, v in p.edges()]
        offset += p.n
    return Graph(n, edges)


def _mask_members(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def test_mis_returns_the_reference_set():
    rng = random.Random(29)
    graphs = []
    for _ in range(300):
        n = rng.randint(0, 16)
        graphs.append(random_graph(n, rng.choice([0.05, 0.12, 0.25, 0.4, 0.7]), rng))
    for _ in range(60):
        pieces = [
            random_graph(rng.randint(1, 6), rng.choice([0.3, 0.6, 0.9]), rng)
            for _ in range(rng.randint(2, 5))
        ]
        graphs.append(_disjoint_union(pieces, rng))
    for g in graphs:
        bits = g.adjacency_bits()
        full = (1 << g.n) - 1
        want = _seed_mis_mask(bits, full)
        assert _mis_mask(bits, full) == want
        assert max_independent_set(g) == _mask_members(want)
        for _ in range(5):
            mask = rng.getrandbits(g.n) if g.n else 0
            want = _seed_mis_mask(bits, mask)
            assert _mis_mask(bits, mask) == want
            assert max_independent_subset(g, _mask_members(mask)) == _mask_members(want)


def test_mis_first_optimum_on_many_components():
    # 200 triangles, then two C5s and two P4s, each on consecutive ids.  The
    # greedy clique cover counts 3 for each C5 (alpha 2), so a search that
    # does not split components cannot prune the triangles' exclude branches.
    edges = []
    for t in range(200):
        a = 3 * t
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
    base = 600
    for _ in range(2):
        edges += [(base + i, base + (i + 1) % 5) for i in range(5)]
        base += 5
    for _ in range(2):
        edges += [(base, base + 1), (base + 1, base + 2), (base + 2, base + 3)]
        base += 4
    g = Graph(base, edges)
    got = max_independent_set(g)
    assert [v // 3 for v in got if v < 600] == list(range(200))
    # first optimum: a triangle keeps its lowest vertex; a C5 c0..c4 takes
    # c0 then c2; a P4 a-b-c-d pivots on b and then takes the isolated d
    want = [3 * t for t in range(200)]
    want += [600, 602, 605, 607]
    want += [611, 613, 615, 617]
    assert got == tuple(want)


def test_alpha_matches_networkx_clique_number_of_complement():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(1, 14)
        g = random_graph(n, rng.choice([0.1, 0.3, 0.5, 0.8]), rng)
        gx = nx.empty_graph(n)
        gx.add_edges_from(g.edges())
        _, omega = nx.max_weight_clique(nx.complement(gx), weight=None)
        assert len(max_independent_set(g)) == omega


# -- bipartite matching ---------------------------------------------------------


def test_matching_examples():
    k22 = complete_bipartite(2, 2)
    res = bipartite_max_matching(k22, (0, 1), (2, 3))
    assert len(res.edges) == 2 and len(res.cover) == 2
    three_k2 = Graph(6, [(0, 3), (1, 4), (2, 5)])
    res = bipartite_max_matching(three_k2, (0, 1, 2), (3, 4, 5))
    assert len(res.edges) == 3
    res = bipartite_max_matching(edgeless(4), (0, 1), (2, 3))
    assert res.edges == () and res.cover == ()


def test_matching_requires_independent_sides():
    with pytest.raises(ValueError):
        bipartite_max_matching(complete(3), (0, 1), (2,))


def test_konig_equality_on_random_instances():
    rng = random.Random(13)
    for _ in range(120):
        a = rng.randint(0, 5)
        b = rng.randint(0, 5)
        edges = [
            (i, a + j) for i in range(a) for j in range(b) if rng.random() < 0.5
        ]
        g = Graph(a + b, edges)
        res = bipartite_max_matching(g, range(a), range(a, a + b))
        assert len(res.edges) == len(res.cover)
        matched = [v for e in res.edges for v in e]
        assert len(set(matched)) == len(matched)
        cover = set(res.cover)
        for u, v in edges:
            assert u in cover or v in cover


# -- induced patterns ------------------------------------------------------------


def test_induced_path_examples():
    w = find_induced_path(path_graph(5), 5)
    assert w is not None and verify_witness(path_graph(5), w)
    assert find_induced_path(cycle(5), 5) is None
    w = find_induced_path(cycle(6), 5)
    assert w is not None and verify_witness(cycle(6), w)
    with pytest.raises(ValueError):
        find_induced_path(cycle(5), 0)


def test_induced_path_exhaustive_against_brute_force():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.choice([0.2, 0.45, 0.7]), rng)
        for t in (3, 4, 5):
            found = find_induced_path(g, t)
            brute = _brute_has_induced_path(g, t)
            assert (found is not None) == brute
            if found:
                assert verify_witness(g, found)


def _brute_has_induced_path(g: Graph, t: int) -> bool:
    from itertools import permutations

    for sub in combinations(range(g.n), t):
        for order in permutations(sub):
            if order[0] > order[-1]:
                continue
            ok = True
            for i, u in enumerate(order):
                for j in range(i + 1, len(order)):
                    if g.adjacent(u, order[j]) != (j == i + 1):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def test_induced_biclique_examples():
    c4 = cycle(4)
    w = find_induced_biclique(c4, 2)
    assert w == Witness("biclique", ((0, 2), (1, 3)))
    assert find_induced_biclique(cycle(5), 2) is None
    assert find_induced_biclique(complete(4), 2) is None


def test_unbalanced_biclique_search():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    w = find_induced_complete_bipartite(star, 1, 3)
    assert w is not None and verify_witness(star, w)
    assert find_induced_complete_bipartite(star, 2, 2) is None


def test_subdivided_star_search():
    # S_2 = P5: center 2, rays (1,0) and (3,4)
    got = find_induced_subdivided_star(path_graph(5), 2)
    assert got is not None
    center, rays = got
    assert center == 2 and len(rays) == 2
    assert find_induced_subdivided_star(cycle(5), 2) is None
    # genuine S_3: star with each edge subdivided
    s3 = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
    got = find_induced_subdivided_star(s3, 3)
    assert got is not None and got[0] == 0
    assert find_induced_subdivided_star(s3, 4) is None


# -- witness verification ---------------------------------------------------------


def test_verify_biclique_claim_on_c5_is_false():
    assert not verify_witness(cycle(5), biclique_witness((0, 2), (1, 3)))


def test_verify_valid_path():
    assert verify_witness(path_graph(4), path_witness((0, 1, 2, 3)))
    assert not verify_witness(path_graph(4), path_witness((0, 1, 3, 2)))


def test_verify_dk2_with_cross_edge_is_false():
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    assert not verify_witness(g, matching_witness([(0, 1), (2, 3)], kind="dk2"))
    g2 = Graph(4, [(0, 1), (2, 3)])
    assert verify_witness(g2, matching_witness([(0, 1), (2, 3)], kind="dk2"))


def test_verify_rejects_malformed():
    g = cycle(4)
    assert not verify_witness(g, Witness("biclique", ((), (1, 3))))
    assert not verify_witness(g, Witness("biclique", ((0,), (0, 2))))
    assert not verify_witness(g, Witness("path", ((0, 0, 1),)))
    assert not verify_witness(g, Witness("nonsense", ((0,),)))
    assert not verify_witness(g, Witness("path", ((0, 9),)))


def test_biclique_absence_means_no_pair_is_complete():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 8)
        g = random_graph(n, 0.5, rng)
        for ell in (2, 3):
            if find_induced_biclique(g, ell) is not None:
                continue
            for a_side in combinations(range(n), ell):
                if not is_independent(g, a_side):
                    continue
                rest = [v for v in range(n) if v not in a_side]
                for b_side in combinations(rest, ell):
                    if not is_independent(g, b_side):
                        continue
                    assert not all(
                        g.adjacent(u, v) for u in a_side for v in b_side
                    )


# -- witness pins: the lexicographic enumerator the searches used before ----------


def _seed_independent_sets_of_size(g: Graph, size: int, within: Sequence[int]):
    """Yield independent ``size``-subsets of ``within`` in lexicographic order."""
    bits = g.adjacency_bits()
    pool = sorted(within)
    chosen: list[int] = []

    def rec(start: int):
        if len(chosen) == size:
            yield tuple(chosen)
            return
        need = size - len(chosen)
        for i in range(start, len(pool) - need + 1):
            v = pool[i]
            if any(bits[u] >> v & 1 for u in chosen):
                continue
            chosen.append(v)
            yield from rec(i + 1)
            chosen.pop()

    yield from rec(0)


def _seed_find_induced_complete_bipartite(g: Graph, a: int, b: int) -> Optional[Witness]:
    """First induced K_{a,b}: independent sides complete to each other.

    The ``a``-side is enumerated lexicographically; the ``b``-side is the
    first independent b-subset of the common neighborhood.
    """
    if a < 1 or b < 1:
        raise ValueError("side sizes must be >= 1")
    full = (1 << g.n) - 1
    bits = g.adjacency_bits()
    for side_a in _seed_independent_sets_of_size(g, a, range(g.n)):
        common = full
        for v in side_a:
            common &= bits[v]
        if bin(common).count("1") < b:
            continue
        cands = [v for v in range(g.n) if common >> v & 1]
        for side_b in _seed_independent_sets_of_size(g, b, cands):
            return Witness(BICLIQUE, (tuple(side_a), tuple(side_b)))
    return None


def _seed_find_induced_subdivided_star(
    g: Graph, d: int
) -> Optional[tuple[int, tuple[tuple[int, int], ...]]]:
    """First induced once-subdivided d-star: center, plus (mid, leaf) rays.

    Each mid is adjacent to the center and its own leaf only; mids, leaves
    and the center are otherwise pairwise nonadjacent.  Returns None if no
    such induced subgraph exists.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    bits = g.adjacency_bits()
    for center in range(g.n):
        cn = bits[center]
        for mids in _seed_independent_sets_of_size(g, d, g.neighbors(center)):
            mid_mask = sum(1 << m for m in mids)
            # leaf candidates per ray: private neighbors of each mid
            cand: list[list[int]] = []
            ok = True
            for i, m in enumerate(mids):
                others = 0
                for j, m2 in enumerate(mids):
                    if j != i:
                        others |= bits[m2]
                pool = bits[m] & ~cn & ~others & ~(1 << center) & ~mid_mask
                lst = [v for v in range(g.n) if pool >> v & 1]
                if not lst:
                    ok = False
                    break
                cand.append(lst)
            if not ok:
                continue
            leaves: list[int] = []

            def pick(i: int) -> bool:
                if i == d:
                    return True
                for v in cand[i]:
                    if v in leaves or any(bits[v] >> u & 1 for u in leaves):
                        continue
                    leaves.append(v)
                    if pick(i + 1):
                        return True
                    leaves.pop()
                return False

            if pick(0):
                rays = tuple((m, l) for m, l in zip(mids, leaves))
                return center, rays
    return None


def test_biclique_and_substar_searches_return_the_reference_witnesses():
    rng = random.Random(37)
    sizes = [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
    for _ in range(250):
        n = rng.randint(0, 14)
        g = random_graph(n, rng.choice([0.1, 0.25, 0.45, 0.65, 0.85]), rng)
        for a, b in sizes:
            want = _seed_find_induced_complete_bipartite(g, a, b)
            assert find_induced_complete_bipartite(g, a, b) == want
        for d in (1, 2, 3):
            assert find_induced_subdivided_star(g, d) == _seed_find_induced_subdivided_star(g, d)


# -- differential checks against networkx -------------------------------------------


def test_pattern_searches_match_networkx_induced_isomorphism():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    p5, c4 = nx.path_graph(5), nx.cycle_graph(4)  # C4 is K_{2,2}
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 11)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.7]), rng)
        gx = nx.empty_graph(n)
        gx.add_edges_from(g.edges())
        has_p5 = GraphMatcher(gx, p5).subgraph_is_isomorphic()
        has_c4 = GraphMatcher(gx, c4).subgraph_is_isomorphic()
        assert (find_induced_path(g, 5) is not None) == has_p5
        assert (find_induced_complete_bipartite(g, 2, 2) is not None) == has_c4
