import random
from itertools import combinations

import pytest

from treealpha.graph import Graph
from treealpha.harness import (
    audit_sandwich,
    exact_tia,
    find_pattern,
    gen_class_free,
    gen_p5_free,
    induced_biclique_number,
    is_chordal,
    parse_pattern,
    pattern_absent,
    summarize,
    write_report,
)
from treealpha.oracles import SUBSTAR, Witness, find_induced_path, verify_witness

from conftest import complete, complete_bipartite, cycle, edgeless, path_graph, random_graph


# -- literal chordal-supergraph reference for tiny graphs ------------------------


def naive_is_chordal(g: Graph) -> bool:
    """Simplicial elimination from the definition."""
    live = set(range(g.n))
    while live:
        for v in sorted(live):
            nb = [u for u in g.neighbors(v) if u in live]
            if all(g.adjacent(a, b) for a, b in combinations(nb, 2)):
                live.remove(v)
                break
        else:
            return False
    return True


def naive_tia(g: Graph) -> int:
    """Enumerate every chordal supergraph; minimize the worst clique alpha."""
    from treealpha.oracles import alpha_of_subset

    missing = [
        (u, v)
        for u, v in combinations(range(g.n), 2)
        if not g.adjacent(u, v)
    ]
    best = None
    for mask in range(1 << len(missing)):
        extra = [missing[i] for i in range(len(missing)) if mask >> i & 1]
        h = Graph(g.n, g.edges() + extra)
        if not naive_is_chordal(h):
            continue
        cliques = [
            set(sub)
            for k in range(1, g.n + 1)
            for sub in combinations(range(g.n), k)
            if all(h.adjacent(a, b) for a, b in combinations(sub, 2))
        ]
        maximal = [
            c for c in cliques if not any(c < d for d in cliques)
        ]
        worst = max(alpha_of_subset(g, sorted(c)) for c in maximal)
        best = worst if best is None else min(best, worst)
    return best if best is not None else 0


def test_exact_tia_pins():
    assert exact_tia(cycle(5)) == 2
    assert exact_tia(complete_bipartite(3, 3)) == 3
    assert exact_tia(path_graph(7)) == 1
    assert exact_tia(Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])) == 1
    assert exact_tia(complete(4)) == 1
    assert exact_tia(Graph(0, [])) == 0


def test_exact_tia_matches_literal_supergraph_enumeration():
    rng = random.Random(61)
    for _ in range(12):
        g = random_graph(rng.randint(1, 5), rng.choice([0.3, 0.6]), rng)
        assert exact_tia(g) == naive_tia(g)
    assert exact_tia(cycle(5)) == naive_tia(cycle(5))


def test_exact_tia_cap():
    with pytest.raises(ValueError):
        exact_tia(complete(9))
    assert exact_tia(complete(9), cap=9) == 1


def test_exact_tia_cap_from_environment(monkeypatch):
    monkeypatch.setenv("TREEALPHA_ORACLE_CAP", "4")
    with pytest.raises(ValueError):
        exact_tia(cycle(5))
    monkeypatch.setenv("TREEALPHA_ORACLE_CAP", "6")
    assert exact_tia(cycle(5)) == 2


def test_exact_tia_one_iff_chordal():
    rng = random.Random(67)
    for _ in range(40):
        g = random_graph(rng.randint(1, 7), rng.choice([0.3, 0.6, 0.9]), rng)
        assert is_chordal(g) == naive_is_chordal(g)
        assert (exact_tia(g) <= 1) == is_chordal(g)


def test_biclique_number():
    assert induced_biclique_number(cycle(5)) == 1
    assert induced_biclique_number(complete_bipartite(3, 3)) == 3
    assert induced_biclique_number(edgeless(2)) == 0
    assert induced_biclique_number(cycle(4)) == 2


def test_gen_p5_free_deterministic_and_certified():
    for method in ("union-join", "perturb-filter"):
        a = gen_p5_free(12, 5, method)
        b = gen_p5_free(12, 5, method)
        assert a == b
        assert find_induced_path(a, 5) is None
    assert gen_p5_free(1, 0).n == 1
    with pytest.raises(ValueError):
        gen_p5_free(5, 0, "mystery")


def test_gen_class_free_certified():
    pats = [("path", 5), ("biclique", 2, 2)]
    g = gen_class_free(14, 3, pats)
    assert all(pattern_absent(g, p) for p in pats)
    # C5 shape passes both pattern searches
    assert all(pattern_absent(cycle(5), p) for p in pats)


def test_gen_class_free_budget_exhaustion():
    # an edgeless pattern bans every graph including the edgeless seed
    with pytest.raises(RuntimeError):
        gen_class_free(4, 0, [("biclique", 1, 1), ("path", 1)], base_attempts=3)


def test_pattern_parsing():
    assert parse_pattern("path:6") == ("path", 6)
    assert parse_pattern("p5") == ("path", 5)
    assert parse_pattern("kll:3") == ("biclique", 3, 3)
    assert parse_pattern("k2l:4") == ("biclique", 2, 4)
    assert parse_pattern("substar:3") == ("substar", 3)
    with pytest.raises(ValueError):
        parse_pattern("wall:2")
    with pytest.raises(ValueError, match="missing a size"):
        parse_pattern("biclique:2")


def test_find_pattern_returns_verified_witnesses():
    # a once-subdivided 3-star: center 0, mids 1..3, leaves 4..6
    s3 = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
    w = find_pattern(s3, ("substar", 3))
    assert w == Witness(SUBSTAR, ((0,), (1, 4), (2, 5), (3, 6)))
    assert verify_witness(s3, w) and w.size() == 3
    assert not verify_witness(Graph(7, s3.edges() + [(4, 5)]), w)
    assert find_pattern(s3, ("substar", 4)) is None
    assert verify_witness(cycle(6), find_pattern(cycle(6), ("path", 5)))
    assert find_pattern(cycle(5), ("path", 5)) is None
    assert verify_witness(cycle(4), find_pattern(cycle(4), ("biclique", 2, 2)))


def test_audit_c5():
    rec = audit_sandwich(cycle(5), seed=1, generator="named")
    assert rec.outcome == "decomposition"
    assert rec.ell == 2 and rec.value == 2 and rec.exact == 2
    assert rec.n == 5


def test_audit_k4():
    rec = audit_sandwich(complete(4))
    assert rec.outcome == "decomposition"
    assert rec.value == 1 and rec.exact == 1


def test_audit_k33():
    rec = audit_sandwich(complete_bipartite(3, 3))
    assert rec.exact == 3
    assert rec.ell - 1 <= 3 <= rec.value <= 4 * rec.ell


def test_audit_rejects_p5_gracefully():
    rec = audit_sandwich(path_graph(6))
    assert rec.outcome == "rejected-p5"


def test_audit_degenerate_graphs():
    rec = audit_sandwich(Graph(0, []))
    assert (rec.value, rec.exact, rec.ell) == (0, 0, 1)
    rec = audit_sandwich(Graph(1, []))
    assert (rec.value, rec.exact, rec.ell) == (1, 1, 1)
    rec = audit_sandwich(Graph(2, [(0, 1)]))
    assert (rec.value, rec.exact, rec.ell) == (1, 1, 2)


def test_report_csv_round_trip(tmp_path):
    recs = [
        audit_sandwich(cycle(5), seed=0, generator="named"),
        audit_sandwich(complete(4), seed=1, generator="named"),
    ]
    out = tmp_path / "report.csv"
    write_report(recs, str(out))
    text = out.read_text().splitlines()
    assert text[0].startswith("seed,generator")
    assert len(text) == 3
    rows = summarize(recs)
    assert all(worst <= bound for _, worst, bound in rows)


def test_pattern_sizes_are_checked():
    with pytest.raises(ValueError, match="^pattern 'path:x' has a non-integer size$"):
        parse_pattern("path:x")
    with pytest.raises(ValueError, match="non-integer size"):
        parse_pattern("biclique:2:y")
    # the seed graph is certified by the whole-graph search, which rejects
    # out-of-range sizes before any flip is searched through its pair
    with pytest.raises(ValueError, match="path length"):
        gen_class_free(5, 1, [("path", 0)])
    with pytest.raises(ValueError, match="side sizes"):
        gen_class_free(5, 1, [("biclique", 0, 2)])


def test_is_chordal_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(71)
    for _ in range(150):
        n = rng.randint(0, 12)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.8]), rng)
        gx = nx.empty_graph(n)
        gx.add_edges_from(g.edges())
        assert is_chordal(g) == nx.is_chordal(gx)
