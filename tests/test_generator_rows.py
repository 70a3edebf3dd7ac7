"""Generators build their graphs as adjacency rows, never as edge lists.

``_reference_random_cograph_edges`` and ``_reference_clique_union_edges``
below are the edge-list builders the generators used before, kept verbatim:
the row builders must give the same graphs and make the same random draws.
``Graph.from_rows`` checks each row's range but trusts the producer for
symmetry, so the rows the flip walk hands over are checked here.
"""

import importlib
import random
from pathlib import Path

import pytest

import treealpha.harness as harness
from treealpha.graph import Graph, members
from treealpha.harness import (
    _clique_union_rows,
    _graph_of,
    _random_cograph_edges,
    _random_cograph_rows,
    gen_class_free,
    gen_p5_free,
)

from conftest import random_graph

P5 = ("path", 5)
BENCH = Path(__file__).resolve().parent.parent / "bench"


# -- the edge-list builders, verbatim, as the reference -------------------------


def _reference_random_cograph_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random union/join composition tree over n labeled vertices."""
    if n == 1:
        return []
    a = rng.randint(1, n - 1)
    left = _reference_random_cograph_edges(a, rng)
    right = [(u + a, v + a) for u, v in _reference_random_cograph_edges(n - a, rng)]
    edges = left + right
    if rng.random() < 0.5:
        edges += [(u, v) for u in range(a) for v in range(a, n)]
    return edges


def _reference_clique_union_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    edges = []
    start = 0
    while start < n:
        size = min(n - start, rng.randint(1, 4))
        block = range(start, start + size)
        edges += [(u, v) for u in block for v in block if u < v]
        start += size
    return edges


def _upper_triangle_graph(rows) -> Graph:
    """The graph of the edges above the diagonal of ``rows``."""
    n = len(rows)
    return Graph(n, [(u, v) for u, row in enumerate(rows) for v in members(row >> u + 1 << u + 1)])


@pytest.mark.parametrize(
    "build, reference",
    [
        (_random_cograph_rows, _reference_random_cograph_edges),
        (_clique_union_rows, _reference_clique_union_edges),
    ],
)
def test_row_builders_equal_the_edge_list_builders(build, reference):
    for seed in range(4):
        for n in range(1, 61):
            rng = random.Random(f"rows:{seed}:{n}")
            ref_rng = random.Random(f"rows:{seed}:{n}")
            got = _graph_of(build(n, rng))
            want = Graph(n, reference(n, ref_rng))
            assert got.adjacency_bits() == want.adjacency_bits(), (seed, n)
            assert got == want and hash(got) == hash(want)
            assert rng.getstate() == ref_rng.getstate(), (seed, n)


def test_cograph_edge_view_equals_the_reference():
    for n in (1, 2, 7, 30):
        rng, ref_rng = random.Random(n), random.Random(n)
        got = _random_cograph_edges(n, rng)
        assert got == sorted(_reference_random_cograph_edges(n, ref_rng))
        assert rng.getstate() == ref_rng.getstate()


# -- the row constructor -------------------------------------------------------


def test_row_constructor_equals_the_edge_built_graph():
    rng = random.Random(61)
    for _ in range(300):
        g = random_graph(rng.randint(0, 20), rng.choice([0.1, 0.5, 0.9]), rng)
        got = Graph.from_rows(list(g.adjacency_bits()))
        assert got == g and hash(got) == hash(g)
        assert got.adjacency_bits() == g.adjacency_bits()
        assert type(got.adjacency_bits()) is tuple


def test_row_constructor_copies_its_input():
    rows = [0b10, 0b01]
    g = Graph.from_rows(rows)
    rows[0] = rows[1] = 0
    assert g.edges() == [(0, 1)]


@pytest.mark.parametrize(
    "rows, message",
    [
        ([0b010, 0b101, 0b110], "self-loop at vertex 2"),
        ([0b1000, 0, 0], "row 0"),
        ([0b10, 0b01, 1 << 70], "row 2"),
        ([0, -1], "row 1"),
        ([-2, 1], "row 0"),
    ],
)
def test_row_constructor_rejects_rows_outside_the_vertex_range(rows, message):
    with pytest.raises(ValueError, match=message):
        Graph.from_rows(rows)


@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: gen_p5_free(18, seed, "perturb-filter"),
        lambda seed: gen_class_free(16, seed, [P5, ("biclique", 2, 2)]),
        lambda seed: gen_class_free(14, seed, [P5, ("biclique", 3, 3)]),
        lambda seed: gen_class_free(12, seed, [("substar", 3)]),
    ],
    ids=["perturb-filter-p5", "class-free-p5-k22", "class-free-p5-k33", "substar"],
)
def test_rows_handed_to_the_row_constructor_are_symmetric(monkeypatch, generate):
    handed = []

    def recording_graph_of(bits):
        handed.append(tuple(bits))
        return _graph_of(bits)

    monkeypatch.setattr(harness, "_graph_of", recording_graph_of)
    for seed in range(100):
        generate(seed)
    assert len(handed) >= 100
    for rows in handed:
        assert _upper_triangle_graph(rows).adjacency_bits() == rows


# -- one edge-list parse per generator call, at most ---------------------------


def test_generators_parse_at_most_the_edgeless_base(monkeypatch):
    parses = []
    init = Graph.__init__

    def counted_init(self, n, edges):
        edges = list(edges)
        parses.append(edges)
        init(self, n, edges)

    monkeypatch.syspath_prepend(str(BENCH))
    shapes = importlib.import_module("workloads").GENERATE_GROUP
    monkeypatch.setattr(Graph, "__init__", counted_init)
    for seed in range(3):
        for n, ell in shapes:
            parses.clear()
            g = gen_class_free(n, seed, [P5, ("biclique", ell, ell)])
            assert g.n == n
            assert parses in ([], [[]]), (n, ell, seed)
    for n in (40, 80):
        for method in ("union-join", "perturb-filter"):
            parses.clear()
            assert gen_p5_free(n, 1, method).n == n
            assert parses == [], (n, method)
