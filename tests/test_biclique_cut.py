"""The biclique search cuts an a-side branch once its b-pool is too small.

The enumerator it replaced, which completes every independent a-subset
before it looks at the b-side, is kept below verbatim as the reference:
every witness must equal its witness.  The decisions are also checked
against networkx's induced-subgraph isomorphism.
"""

import random
from typing import Optional, Sequence

import pytest

from treealpha.graph import Graph, members
from treealpha.oracles import (
    BICLIQUE,
    Witness,
    biclique_through,
    find_induced_complete_bipartite,
)

from conftest import random_graph


def _reference_independent_subsets(bits: Sequence[int], k: int, cands: int, chosen: int = 0):
    if k == 0:
        yield chosen
    elif k == 1:
        while cands:
            low = cands & -cands
            cands ^= low
            yield chosen | low
    else:
        while cands.bit_count() >= k:
            low = cands & -cands
            cands ^= low
            rest = cands & ~bits[low.bit_length() - 1]
            yield from _reference_independent_subsets(bits, k - 1, rest, chosen | low)


def _reference_extend_biclique(
    bits: Sequence[int], a: int, b: int, side_a: int, side_b: int
) -> Optional[Witness]:
    full = (1 << len(bits)) - 1
    grow_a, common_a, rim_b = full & ~side_a, full, side_b
    for w in members(side_a):
        grow_a &= ~bits[w]
        common_a &= bits[w]
    for w in members(side_b):
        grow_a &= bits[w]
        rim_b |= bits[w]
    need_b = b - side_b.bit_count()
    for more_a in _reference_independent_subsets(bits, a - side_a.bit_count(), grow_a):
        grow_b = common_a & ~rim_b
        m = more_a
        while m:
            low = m & -m
            m ^= low
            grow_b &= bits[low.bit_length() - 1]
        if grow_b.bit_count() >= need_b:
            whole_b = next(_reference_independent_subsets(bits, need_b, grow_b, side_b), None)
            if whole_b is not None:
                return Witness(BICLIQUE, (members(side_a | more_a), members(whole_b)))
    return None


def _reference_biclique_through(
    bits: Sequence[int], a: int, b: int, u: int, v: int
) -> Optional[Witness]:
    if bits[u] >> v & 1:
        placements = ((1 << u, 1 << v), (1 << v, 1 << u))
    else:
        placements = ((1 << u | 1 << v, 0), (0, 1 << u | 1 << v))
    for side_a, side_b in placements:
        if side_a.bit_count() <= a and side_b.bit_count() <= b:
            got = _reference_extend_biclique(bits, a, b, side_a, side_b)
            if got is not None:
                return got
    return None


def _shape(w: Optional[Witness]):
    return None if w is None else (w.kind, w.parts)


def test_biclique_witnesses_equal_the_reference_enumerator():
    rng = random.Random(53)
    found = 0
    for _ in range(2000):
        n = rng.randint(2, 16)
        g = random_graph(n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]), rng)
        bits = g.adjacency_bits()
        for _ in range(4):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            want = _reference_extend_biclique(bits, a, b, 0, 0)
            found += want is not None
            assert _shape(find_induced_complete_bipartite(g, a, b)) == _shape(want)
            u, v = rng.sample(range(n), 2)
            want = _reference_biclique_through(bits, a, b, u, v)
            assert _shape(biclique_through(bits, a, b, u, v)) == _shape(want)
    assert 1000 < found < 7000  # both answers are well represented


def test_biclique_search_on_a_large_edgeless_graph():
    # the enumerator walks all C(2000, 3) independent triples here
    assert find_induced_complete_bipartite(Graph(2000, []), 3, 3) is None


def test_biclique_decisions_match_networkx_induced_isomorphism():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    patterns = {(a, b): nx.complete_bipartite_graph(a, b) for a, b in ((2, 3), (3, 3))}
    rng = random.Random(59)
    found = dict.fromkeys(patterns, 0)
    for _ in range(200):
        n = rng.randint(1, 11)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.7]), rng)
        if n >= 6 and rng.random() < 0.4:  # plant a K_{3,3} on six random vertices
            six = rng.sample(range(n), 6)
            edges = {e for e in g.edges() if not (e[0] in six and e[1] in six)}
            edges |= {tuple(sorted((x, y))) for x in six[:3] for y in six[3:]}
            g = Graph(n, sorted(edges))
        gx = nx.empty_graph(n)
        gx.add_edges_from(g.edges())
        for (a, b), pattern in patterns.items():
            has = GraphMatcher(gx, pattern).subgraph_is_isomorphic()
            assert (find_induced_complete_bipartite(g, a, b) is not None) == has
            found[a, b] += has
    assert all(20 < k < 180 for k in found.values())
