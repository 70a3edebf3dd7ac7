"""The bitmask vertex-set helpers against the set-based code they replaced.

``components``, ``is_connected`` and ``is_independent`` used to run set
searches, ``dbs_low_alpha_vertex`` was a recursive closure peeling universal
vertices one set rebuild at a time, ``gyarfas_dominated_separator`` grew its
path through a boundary set, and ``select_pair`` scored every pair before
choosing.  Those versions stay below verbatim as the reference, renamed
``ref_*`` and calling each other instead of the library's versions.  On
seeded {P_t, K_{2,ell}}-free graphs, on random graphs (disconnected,
complete and edgeless among them) and on every ``select_pair`` call the
engine makes along the corpus, the new code must give the same results,
stats, exceptions, messages and witnesses.
"""

import random
from math import log2
from typing import Optional

import pytest

import treealpha.decomposer as dec
from treealpha.decomposer import _level, _nrbar, enumerate_uncobagged_pairs
from treealpha.graph import (
    Graph,
    closed_neighborhood,
    closed_neighborhood_of_set,
    component,
    components,
    induced_subgraph,
    is_complete_between,
    is_connected,
    is_independent,
    mask_of,
    members,
    vertex_set,
)
from treealpha.harness import gen_class_free
from treealpha.oracles import (
    ForbiddenStructureFound,
    alpha_of_subset,
    find_induced_complete_bipartite,
    path_witness,
    verify_witness,
)
from treealpha.separators import (
    DisconnectedGraphError,
    SeparatorCertificate,
    dbs_low_alpha_vertex,
    get_separator_provider,
    gyarfas_dominated_separator,
)
from treealpha.treedecomp import subtree_distance

from conftest import complete, complete_bipartite, edgeless, random_graph


# -- reference: the set-based versions, verbatim ---------------------------------


def ref_components(g, s):
    pool = set(s)
    for v in pool:
        g._check_vertex(v)
    out = []
    while pool:
        start = min(pool)
        comp = {start}
        frontier = [start]
        pool.remove(start)
        while frontier:
            u = frontier.pop()
            for w in g.neighbors(u):
                if w in pool:
                    pool.remove(w)
                    comp.add(w)
                    frontier.append(w)
        out.append(tuple(sorted(comp)))
    return out


def ref_is_connected(g):
    if g.n == 0:
        return True
    return len(ref_components(g, range(g.n))) == 1


def ref_is_independent(g, s):
    sl = sorted(set(s))
    return all(
        not g.adjacent(u, v) for i, u in enumerate(sl) for v in sl[i + 1 :]
    )


def ref_gyarfas_dominated_separator(g, t):
    if t < 2:
        raise ValueError("t must be >= 2")
    if g.n == 0:
        raise ValueError("graph must be non-null")
    if not ref_is_connected(g):
        raise DisconnectedGraphError("separator construction needs a connected graph")
    path = [0]
    prev_region = set(range(g.n))
    while True:
        dominated = closed_neighborhood_of_set(g, path)
        rest = sorted(set(range(g.n)) - set(dominated))
        comps = ref_components(g, rest)
        big = [c for c in comps if 2 * len(c) > g.n]
        if not big:
            return SeparatorCertificate(
                x=vertex_set(path),
                dominated=dominated,
                component_list=tuple(comps),
                bound=g.n // 2,
            )
        region = set(big[0])
        boundary = {
            u
            for c in region
            for u in g.neighbors(c)
            if u not in region
        }
        cands = sorted(
            u for u in boundary if g.adjacent(u, path[-1]) and u in prev_region
        )
        if not cands:
            raise RuntimeError("path growth stalled; connectivity invariant broken")
        path.append(cands[0])
        prev_region = region
        if len(path) >= t:
            w = path_witness(path)
            if not verify_witness(g, w):
                raise RuntimeError("grown path failed verification")
            raise ForbiddenStructureFound(w, f"graph contains an induced {t}-vertex path")


def ref_provider(t):
    return lambda g: ref_gyarfas_dominated_separator(g, t)


def ref_separator_within(g, region, provider):
    comps = ref_components(g, region)
    if len(comps) > 1:
        big = [c for c in comps if 2 * len(c) > len(region)]
        if not big:
            return {min(region)}
        target = big[0]
    else:
        target = comps[0]
    sub, mapping = induced_subgraph(g, target)
    cert = provider(sub)
    return {mapping[v] for v in cert.x}


def ref_dbs_low_alpha_vertex(g, ell, d, provider, stats: Optional[dict] = None):
    if ell < 2 or d < 2:
        raise ValueError("ell and d must be >= 2")
    if g.n < 2:
        raise ValueError("graph must have at least 2 vertices")

    depth = 0
    peels = 0

    def rec(region):
        nonlocal depth, peels
        live = set(region)
        peeled_here = False
        while True:
            universal = None
            for v in sorted(live):
                if all(u in set(g.neighbors(v)) for u in live if u != v):
                    universal = v
                    break
            if universal is None:
                break
            live.remove(universal)
            peeled_here = True
        if peeled_here:
            peels += 1
        if len(live) <= 1:
            return min(region)
        n_prime = len(live)
        degs = {
            v: sum(1 for u in g.neighbors(v) if u in live) for v in live
        }
        best = max(sorted(live), key=lambda v: (degs[v], -v))
        depth += 1
        if d * (degs[best] + 1) >= n_prime:
            x_set = {best}
        else:
            x_set = ref_separator_within(g, sorted(live), provider)
        removed = set()
        for v in x_set:
            removed.add(v)
            removed.update(u for u in g.neighbors(v) if u in live)
        rest = sorted(live - removed)
        comps = ref_components(g, rest)
        if not comps:
            raise RuntimeError("separator removed everything; degree case expected")
        target = max(comps, key=len)
        return rec(list(target))

    v = rec(list(range(g.n)))
    alpha = alpha_of_subset(g, closed_neighborhood(g, v))
    limit = d * ell * log2(g.n)
    if alpha > limit:
        diag = find_induced_complete_bipartite(g, 2, ell)
        if diag is not None:
            raise ForbiddenStructureFound(
                diag,
                f"neighborhood bound {limit:.2f} violated (alpha={alpha}); "
                "the graph is not K_{2,ell}-free",
            )
        raise RuntimeError(
            f"neighborhood bound {limit:.2f} violated (alpha={alpha}) "
            "without a biclique; provider class promise broken"
        )
    if stats is not None:
        stats["depth"] = depth
        stats["peel_phases"] = peels
    return v, alpha


def ref_select_pair(g, r, td, ell):
    pairs = enumerate_uncobagged_pairs(g, r, td)
    if not pairs:
        return None
    nrbar = _nrbar(g, r, *_level(g, r, td))
    scored = []
    for x, y in pairs:
        bad = alpha_of_subset(g, nrbar[x] - nrbar[y]) >= ell
        scored.append((bad, subtree_distance(td, x, y), x, y))
    bads = [s for s in scored if s[0]]
    pool = bads if bads else scored
    best_dist = max(s[1] for s in pool)
    cand = min((x, y) for b, dist, x, y in pool if dist == best_dist)
    return cand[0], cand[1], bool(bads)


# -- helpers ----------------------------------------------------------------------


def _outcome(fn, *args):
    """The result of ``fn``, or the type, message and witness of what it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError, ForbiddenStructureFound) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def _random_graphs(seed: int):
    """Random graphs with n <= 30: sparse to dense, disjoint unions, extremes."""
    rng = random.Random(seed)
    for _ in range(120):
        n = rng.randint(1, 30)
        yield random_graph(n, rng.choice((0.05, 0.1, 0.2, 0.4, 0.7, 0.9)), rng)
    for n in (1, 2, 3, 8, 30):
        yield complete(n)
        yield edgeless(n)
    for _ in range(20):
        a, b = random_graph(rng.randint(1, 12), 0.5, rng), complete(rng.randint(1, 6))
        shift = [(u + a.n, v + a.n) for u, v in b.edges()]
        yield Graph(a.n + b.n, a.edges() + shift)


def _class_free_graphs():
    """Seeded {P_t, K_{2,ell}}-free graphs, t = 5, 6, 7 and ell = 2, 3."""
    for t in (5, 6, 7):
        for ell in (2, 3):
            for seed in range(6):
                n = 6 + (seed * 7) % 25
                g = gen_class_free(n, 500 * t + 50 * ell + seed,
                                   [("path", t), ("biclique", 2, ell)])
                yield g, t, ell


def _same_graph_answers(g: Graph, rng: random.Random):
    assert is_connected(g) == ref_is_connected(g)
    assert components(g, range(g.n)) == ref_components(g, range(g.n))
    for _ in range(6):
        s = [v for v in range(g.n) if rng.random() < rng.random()]
        assert components(g, s) == ref_components(g, s)
        assert components(g, s + s[:2]) == ref_components(g, s)
        assert is_independent(g, s) == ref_is_independent(g, s)
        assert mask_of(g, s) == sum(1 << v for v in set(s))
        if s:
            low = ref_components(g, s)[0]
            assert component(g.adjacency_bits(), mask_of(g, s)) == mask_of(g, low)
    for bad in (-1, g.n, g.n + 5):
        s = [bad] + list(range(min(g.n, 3)))
        assert _outcome(components, g, s) == _outcome(ref_components, g, s)


def _same_separator_answers(g: Graph, t: int, ell: int) -> dict:
    """Both separator routines equal their references; the descents by ``d``."""
    assert _outcome(gyarfas_dominated_separator, g, t) == (
        _outcome(ref_gyarfas_dominated_separator, g, t)
    )
    out = {}
    for d in sorted({2, t - 1}):
        got_stats, want_stats = {}, {}
        prov = get_separator_provider(f"pt-free:{t}")
        out[d] = _outcome(dbs_low_alpha_vertex, g, ell, d, prov, got_stats)
        assert out[d] == _outcome(
            ref_dbs_low_alpha_vertex, g, ell, d, ref_provider(t), want_stats
        )
        assert got_stats == want_stats
    return out


# -- tests ------------------------------------------------------------------------


def test_random_graphs_match_the_set_based_code():
    rng = random.Random(101)
    for g in _random_graphs(97):
        _same_graph_answers(g, rng)
        for t in (3, 5, 7):
            _same_separator_answers(g, t, 2)


def test_class_free_graphs_match_the_set_based_code():
    rng = random.Random(103)
    for g, t, ell in _class_free_graphs():
        _same_graph_answers(g, rng)
        v, alpha = _same_separator_answers(g, t, ell)[t - 1]
        assert alpha <= (t - 1) * ell * log2(g.n)


def test_separator_descent_handles_breaches_like_the_recursion():
    # K_{2,64}: the bound is violated and a K_{2,2} diagnostic is raised
    g = complete_bipartite(2, 64)
    got = _outcome(dbs_low_alpha_vertex, g, 2, 4, get_separator_provider("pt-free:5"))
    assert got == _outcome(ref_dbs_low_alpha_vertex, g, 2, 4, ref_provider(5))
    assert got[0] is ForbiddenStructureFound
    # a long path: the provider surfaces an induced P_t
    p = Graph(40, [(i, i + 1) for i in range(39)])
    got = _outcome(dbs_low_alpha_vertex, p, 2, 2, get_separator_provider("pt-free:4"))
    assert got == _outcome(ref_dbs_low_alpha_vertex, p, 2, 2, ref_provider(4))
    assert got[0] is ForbiddenStructureFound and got[2].kind == "path"


def test_complete_graph_descent_is_one_peel():
    stats = {}
    got = dbs_low_alpha_vertex(complete(200), 2, 4, get_separator_provider("pt-free:5"),
                               stats)
    assert got == (0, 1)
    assert stats == {"depth": 0, "peel_phases": 1}


@pytest.fixture(scope="module")
def select_pair_calls(p5_kll_corpus):
    """The arguments of every ``select_pair`` call the engine makes."""
    calls = []
    original = dec.select_pair

    def record(*args):
        calls.append(args)
        return original(*args)

    dec.select_pair = record
    try:
        for g, ell, _ in p5_kll_corpus:
            dec.decompose(g, ell, check_p5=False)
    finally:
        dec.select_pair = original
    return calls


def test_engine_select_pair_calls_match_the_scored_list(select_pair_calls):
    assert len(select_pair_calls) > 200
    results = [dec.select_pair(*args) for args in select_pair_calls]
    assert results == [ref_select_pair(*args) for args in select_pair_calls]
    assert any(res is not None and res[2] for res in results)
    assert any(res is not None and not res[2] for res in results)
    assert None in results


# -- the non-vertex bug in is_independent / is_complete_between ---------------------


def test_non_vertices_are_rejected():
    with pytest.raises(ValueError, match="invalid vertex 7 for graph with n=3"):
        is_independent(Graph(3, [(0, 1)]), [7])
    with pytest.raises(ValueError, match="invalid vertex -1 for graph with n=2"):
        is_complete_between(Graph(2, [(0, 1)]), [-1], [0])
    with pytest.raises(ValueError, match="invalid vertex 9 for graph with n=2"):
        is_complete_between(Graph(2, [(0, 1)]), [9], [0])
    # the old code accepted the first two and raised IndexError on the third
    assert ref_is_independent(Graph(3, [(0, 1)]), [7]) is True


def test_mask_of_and_members_round_trip():
    g = complete(5)
    assert mask_of(g, []) == 0
    assert mask_of(g, (4, 0, 4)) == 0b10001
    assert members(mask_of(g, range(5))) == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError, match="invalid vertex 5"):
        mask_of(g, [0, 5])
