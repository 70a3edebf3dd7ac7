"""``graph.neighborhood``, the OR of the masked vertices' rows, against the set definition.

The lemma toolkit builds private and common neighborhoods, the dominated
set of a grown path and the Konig reach of a matching from this one fold.
``closed_neighborhood_of_set`` is the fold plus the set itself, and range
checks its input through ``mask_of``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treealpha.graph import Graph, closed_neighborhood_of_set, mask_of, members, neighborhood

from conftest import edgeless, random_graph


def ref_neighborhood(g: Graph, s) -> set[int]:
    return {u for v in s for u in g.neighbors(v)}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 14), st.integers(0, 2**30))
def test_neighborhood_is_the_union_of_the_rows(n, seed):
    rng = random.Random(seed)
    g = random_graph(n, rng.random(), rng)
    bits = g.adjacency_bits()
    some = {v for v in range(n) if rng.random() < 0.5}
    for s in (set(), set(range(n)), some):
        got = neighborhood(bits, mask_of(g, s))
        assert set(members(got)) == ref_neighborhood(g, s)
        assert closed_neighborhood_of_set(g, s) == tuple(sorted(s | ref_neighborhood(g, s)))


def test_isolated_vertices_add_nothing():
    g = Graph(6, [(0, 1), (1, 2)])  # 3, 4 and 5 are isolated
    bits = g.adjacency_bits()
    assert neighborhood(bits, 0) == 0
    assert neighborhood(bits, 0b111000) == 0
    assert neighborhood(bits, 0b001010) == 0b000101
    assert neighborhood(bits, 0b111111) == 0b000111
    assert neighborhood(edgeless(4).adjacency_bits(), 0b1111) == 0
    assert closed_neighborhood_of_set(g, [4, 3, 4]) == (3, 4)
    assert closed_neighborhood_of_set(g, iter([1, 5])) == (0, 1, 2, 5)


@pytest.mark.parametrize("s, bad", [([0, 5], 5), ([-1, 2], -1), ([7, 5], 7), ([1, 3], 3)])
def test_closed_neighborhood_of_set_names_its_first_non_vertex(s, bad):
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError, match=rf"^invalid vertex {bad} for graph with n=3$"):
        closed_neighborhood_of_set(g, s)
