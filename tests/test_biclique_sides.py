"""The biclique search through a flipped pair starts from nonempty sides.

``biclique_through`` seeds ``_extend_biclique`` with u and v placed on the
sides, and the search folds those given sides straight off their masks.
The brute-force enumerator below lists the candidate sides with
``itertools.combinations``, in the order the search must follow: the
a-side's added vertices lexicographically, then the first independent
completion of the b-side.  Each witness must equal its first witness.
"""

import random
from itertools import combinations
from typing import Optional

from treealpha.graph import Graph
from treealpha.oracles import BICLIQUE, biclique_through, find_induced_complete_bipartite

from conftest import random_graph


def _independent(g: Graph, vs) -> bool:
    return not any(g.adjacent(x, y) for x, y in combinations(vs, 2))


def _reference_extend(g: Graph, a: int, b: int, side_a: tuple, side_b: tuple) -> Optional[tuple]:
    """The first induced K_{a,b} whose sides contain ``side_a`` and ``side_b``."""
    rest = [x for x in range(g.n) if x not in side_a and x not in side_b]
    for more_a in combinations(rest, a - len(side_a)):
        whole_a = side_a + more_a
        if not _independent(g, whole_a):
            continue
        if not all(g.adjacent(x, y) for x in whole_a for y in side_b):
            continue
        pool = [
            y for y in rest
            if y not in more_a
            and all(g.adjacent(x, y) for x in whole_a)
            and not any(g.adjacent(y, z) for z in side_b)
        ]
        for more_b in combinations(pool, b - len(side_b)):
            if _independent(g, more_b):
                return (BICLIQUE, (tuple(sorted(whole_a)), tuple(sorted(side_b + more_b))))
    return None


def _reference_through(g: Graph, a: int, b: int, u: int, v: int) -> Optional[tuple]:
    if g.adjacent(u, v):
        placements = (((u,), (v,)), ((v,), (u,)))
    else:
        placements = (((u, v), ()), ((), (u, v)))
    for side_a, side_b in placements:
        if len(side_a) <= a and len(side_b) <= b:
            got = _reference_extend(g, a, b, tuple(sorted(side_a)), side_b)
            if got is not None:
                return got
    return None


def _shape(w) -> Optional[tuple]:
    return None if w is None else (w.kind, w.parts)


def test_through_pair_witnesses_equal_the_first_brute_force_witness():
    rng = random.Random(67)
    found = 0
    checked = 0
    for _ in range(120):
        n = rng.randint(2, 9)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.8]), rng)
        bits = g.adjacency_bits()
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                assert _shape(find_induced_complete_bipartite(g, a, b)) == _reference_extend(
                    g, a, b, (), ()
                )
                for u, v in combinations(range(n), 2):
                    want = _reference_through(g, a, b, u, v)
                    assert _shape(biclique_through(bits, a, b, u, v)) == want, (
                        bits, a, b, u, v,
                    )
                    found += want is not None
                    checked += 1
    assert 0.2 * checked < found < 0.8 * checked  # both answers are well represented
