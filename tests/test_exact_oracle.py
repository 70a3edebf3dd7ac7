"""The exact oracle splits each subset into components once.

``exact_tia`` used to run, for every (vertex, subset) pair, a search
through the eliminated set for the vertex's component and keep its own
memo of bag alphas.  That dynamic program is kept below, verbatim, as the
reference: the component-split oracle must return its value on every
graph.  ``graph.pieces`` is checked against ``graph.components`` and
against components of the complement.
"""

import random
from itertools import combinations

import pytest

from treealpha.graph import (
    Graph, cocomponent, component, components, mask_of, members, pieces,
)
from treealpha.harness import exact_tia, gen_p5_free
from treealpha.oracles import alpha_mask

from conftest import complete, cycle, edgeless, path_graph, random_graph


# -- the per-(vertex, subset) search, verbatim, as the reference ---------------


def reference_exact_tia(g: Graph) -> int:
    if g.n == 0:
        return 0
    bits = g.adjacency_bits()
    full = (1 << g.n) - 1
    # the graph is immutable, so a bag's alpha depends on its mask alone
    memo: dict[int, int] = {}

    def bag_alpha(v: int, eliminated: int) -> int:
        # component of eliminated vertices reachable from v, then its rim
        seen = 1 << v
        reach = bits[v]
        while True:
            inner = reach & eliminated & ~seen
            if not inner:
                break
            seen |= inner
            while inner:
                u = (inner & -inner).bit_length() - 1
                inner &= inner - 1
                reach |= bits[u]
        bag = (reach & ~eliminated) | (1 << v)
        alpha = memo.get(bag)
        if alpha is None:
            alpha = alpha_mask(g, bag)
            memo[bag] = alpha
        return alpha

    best = [0] * (full + 1)
    for s in range(1, full + 1):
        val = None
        rest = s
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            prev = s & ~(1 << v)
            cand = max(best[prev], bag_alpha(v, prev))
            if val is None or cand < val:
                val = cand
        best[s] = val
    return best[full]


def disjoint_union(a: Graph, b: Graph) -> Graph:
    return Graph(a.n + b.n, a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()])


def random_corpus(count: int, seed: int) -> list[Graph]:
    """Random graphs with n = 0..10 at densities 0..1; every third is disconnected."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = i % 11
        p = (0.0, 0.15, 0.3, 0.5, 0.7, 0.9, 1.0)[i % 7]
        if i % 3 == 2 and n >= 2:
            k = rng.randrange(1, n)
            out.append(disjoint_union(random_graph(k, p, rng), random_graph(n - k, p, rng)))
        else:
            out.append(random_graph(n, p, rng))
    return out


def test_equals_the_reference_on_random_graphs():
    corpus = random_corpus(550, 13)
    assert {g.n for g in corpus} == set(range(11))
    assert any(g.n > 2 and g.edge_count == 0 for g in corpus)
    assert any(g.n > 2 and g.edge_count == g.n * (g.n - 1) // 2 for g in corpus)
    assert any(len(components(g, g.vertices)) > 1 and g.edge_count for g in corpus)
    for g in corpus:
        assert exact_tia(g, cap=10) == reference_exact_tia(g), g.edges()


@pytest.mark.parametrize("n", range(11))
def test_equals_the_reference_on_named_families(n):
    family = [edgeless(n), complete(n), path_graph(n)]
    if n >= 3:
        family.append(cycle(n))
    if n >= 5:
        family.append(disjoint_union(complete(n // 2), cycle(n - n // 2)))
    for g in family:
        assert exact_tia(g, cap=10) == reference_exact_tia(g)
    assert exact_tia(edgeless(n), cap=10) == min(n, 1)
    assert exact_tia(complete(n), cap=10) == min(n, 1)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_equals_the_reference_on_perturb_filter_graphs(n):
    for seed in range(4):
        g = gen_p5_free(n, seed, "perturb-filter")
        assert exact_tia(g, cap=10) == reference_exact_tia(g)


# -- graph.pieces ------------------------------------------------------------


def complement(g: Graph) -> Graph:
    return Graph(g.n, [e for e in combinations(range(g.n), 2) if not g.adjacent(*e)])


def test_pieces_are_the_components_and_the_co_components():
    rng = random.Random(7)
    for trial in range(400):
        n = trial % 13
        g = random_graph(n, rng.choice((0.1, 0.3, 0.5, 0.8)), rng)
        co = complement(g)
        mask = rng.getrandbits(n) if n else 0
        s = members(mask)
        comps = pieces(component, g.adjacency_bits(), mask)
        assert [members(c) for c in comps] == components(g, s)
        cocomps = pieces(cocomponent, g.adjacency_bits(), mask)
        assert [members(c) for c in cocomps] == components(co, s)
        assert sum(comps) == sum(cocomps) == mask == mask_of(g, s)
    assert pieces(component, (), 0) == []
