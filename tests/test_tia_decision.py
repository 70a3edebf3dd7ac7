"""The exact oracle decides "tia <= k?" for k = 1, 2, ... over feasible sets.

``exact_tia`` searches only eliminated sets that have an order whose bags
all have alpha <= k, and returns the first k at which the whole vertex set
is reached.  It must return the value of the table dynamic program kept
verbatim in ``test_exact_oracle.py`` on every graph, and it reaches sizes
(n = 16..18) that a table over all 2^n subsets made slow.
"""

import random

import pytest

from treealpha.cli import main
from treealpha.graph import Graph, mask_of, serialize_graph
from treealpha.harness import (
    _eliminates_within,
    exact_tia,
    gen_p5_free,
    is_chordal,
    oracle_cap,
)
from treealpha.oracles import _memo

from conftest import complete, complete_bipartite, cycle, edgeless, random_graph
from test_exact_oracle import disjoint_union, reference_exact_tia


def co_matching(m: int) -> Graph:
    """K_{2m} minus a perfect matching: alpha 2, and not chordal once m >= 2."""
    n = 2 * m
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if v != u + 1 or u % 2])


def random_tree(n: int, rng: random.Random) -> Graph:
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def grid(rows: int, cols: int) -> Graph:
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    return Graph(rows * cols, edges + [(v, v + cols) for v in range((rows - 1) * cols)])


# -- against the table dynamic program ----------------------------------------


def test_equals_the_reference_on_random_graphs():
    rng = random.Random(2012)
    for n in range(13):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9) if n <= 10 else (0.3, 0.6):
            g = random_graph(n, p, rng)
            assert exact_tia(g, cap=12) == reference_exact_tia(g), g.edges()


def test_equals_the_reference_on_complete_bipartite_graphs():
    for a in range(1, 7):
        for b in range(a, 13 - a):
            g = complete_bipartite(a, b)
            assert exact_tia(g, cap=12) == reference_exact_tia(g) == a


def test_equals_the_reference_on_unions_and_co_matchings():
    rng = random.Random(3)
    for n in range(2, 13):
        k = rng.randrange(1, n)
        g = disjoint_union(random_graph(k, 0.6, rng), random_graph(n - k, 0.6, rng))
        assert exact_tia(g, cap=12) == reference_exact_tia(g), g.edges()
    g = disjoint_union(complete_bipartite(3, 3), complete_bipartite(3, 3))
    assert exact_tia(g, cap=12) == reference_exact_tia(g) == 3
    for m in range(1, 7):
        g = co_matching(m)
        assert exact_tia(g, cap=12) == reference_exact_tia(g) == min(m, 2)


@pytest.mark.parametrize("n", [11, 12])
def test_equals_the_reference_on_perturb_filter_graphs(n):
    for seed in range(3):
        g = gen_p5_free(n, seed, "perturb-filter")
        assert exact_tia(g, cap=12) == reference_exact_tia(g)


# -- sizes past the table ------------------------------------------------------


def test_known_values_at_sixteen_to_eighteen_vertices():
    assert exact_tia(complete_bipartite(8, 8), cap=16) == 8
    assert exact_tia(cycle(18), cap=18) == 2
    assert exact_tia(edgeless(18), cap=18) == 1
    assert exact_tia(complete(18), cap=18) == 1
    assert exact_tia(random_tree(17, random.Random(5)), cap=17) == 1


def test_fill_in_counts_on_the_four_by_four_grid():
    # every vertex has at most two later neighbors in some order, so bags
    # without the fill-in through eliminated vertices would give 2
    g = grid(4, 4)
    assert exact_tia(g, cap=16) == reference_exact_tia(g) == 3


def test_one_exactly_on_chordal_graphs():
    rng = random.Random(71)
    seen = set()
    for trial in range(150):
        n = 1 + trial % 14
        g = random_graph(n, rng.choice((0.2, 0.5, 0.8, 0.95)), rng)
        chordal = is_chordal(g)
        seen.add(chordal)
        assert (exact_tia(g, cap=14) <= 1) == chordal, g.edges()
    assert seen == {True, False}


def test_the_decision_flips_at_the_value():
    for g in (cycle(7), complete_bipartite(3, 5), co_matching(4), edgeless(3)):
        bits = g.adjacency_bits()
        full = (1 << g.n) - 1
        tia = exact_tia(g)
        assert _eliminates_within(bits, _memo(bits), full, tia)
        assert not _eliminates_within(bits, _memo(bits), full, tia - 1)
    assert exact_tia(Graph(0, [])) == 0


# -- the cap -------------------------------------------------------------------


def test_cli_exact_tia_with_a_raised_cap(tmp_path, capsys):
    p = tmp_path / "k88.gr"
    p.write_text(serialize_graph(complete_bipartite(8, 8)))
    assert main(["exact-tia", str(p), "--cap", "16"]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_a_non_integer_cap_names_the_variable(monkeypatch):
    monkeypatch.setenv("TREEALPHA_ORACLE_CAP", "abc")
    with pytest.raises(ValueError, match="TREEALPHA_ORACLE_CAP must be an integer, not 'abc'"):
        oracle_cap()
    monkeypatch.setenv("TREEALPHA_ORACLE_CAP", "12")
    assert oracle_cap() == 12


def test_cli_reports_a_non_integer_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TREEALPHA_ORACLE_CAP", "abc")
    p = tmp_path / "c5.gr"
    p.write_text(serialize_graph(cycle(5)))
    assert main(["exact-tia", str(p)]) == 1
    err = capsys.readouterr().err
    assert "TREEALPHA_ORACLE_CAP" in err and "'abc'" in err


# -- bag masks -----------------------------------------------------------------


def test_mask_of_names_the_first_invalid_vertex_in_input_order():
    g = cycle(5)
    assert mask_of(g, iter([4, 0, 4])) == 0b10001
    with pytest.raises(ValueError, match="invalid vertex 9 for graph with n=5"):
        mask_of(g, [1, 9, -1])
    with pytest.raises(ValueError, match="invalid vertex -1 for graph with n=5"):
        mask_of(g, (-1, 9))
