"""``verify_witness`` as one induced-shape check, against the per-kind checks.

``oracles._shape`` names a witness's vertices and the edges they must
induce; ``verify_witness`` then checks that the vertices are distinct
vertices of the graph that induce exactly those edges.  The per-kind checks
it replaced are kept below verbatim as the reference.  The two must agree on
every witness the engine, the generators and the extractions produce (also
with list-typed parts, and on a graph with one edge among the witness's
vertices flipped), and on malformed witnesses.  The one difference is
deliberate: the reference accepted a biclique side that repeats a vertex,
so ``((0, 0), (1, 1))`` passed as a K_{2,2} on a single edge.
"""

import random
from itertools import combinations

import pytest

from treealpha import degeneracy, harness, separators
from treealpha import decomposer as dec
from treealpha.degeneracy import (
    high_degree_extract,
    low_alpha_vertex,
    low_degree_induced_matching,
)
from treealpha.graph import Graph, is_connected, is_independent, mask_of
from treealpha.harness import find_pattern, gen_class_free
from treealpha.oracles import (
    BICLIQUE,
    DK2,
    MATCHING,
    PATH,
    SUBSTAR,
    ForbiddenStructureFound,
    Witness,
    bipartite_max_matching,
    verify_witness,
)
from treealpha.separators import gyarfas_dominated_separator

from conftest import complete_bipartite, random_graph


# -- reference: the per-kind checks, verbatim -------------------------------------------


def ref_verify_witness(g: Graph, w: Witness) -> bool:
    """Check a witness against ``g``: all required edges and non-edges.

    Never raises; False is the failure signal (including malformed input).
    """
    try:
        if w.kind == PATH:
            (seq,) = w.parts
            if len(seq) < 1 or len(set(seq)) != len(seq):
                return False
            mask_of(g, seq)  # ValueError for a non-vertex; a P1 has no edge to check
            for i, u in enumerate(seq):
                for j in range(i + 1, len(seq)):
                    want = j == i + 1
                    if g.adjacent(u, seq[j]) != want:
                        return False
            return True
        if w.kind == BICLIQUE:
            a, b = w.parts
            if not a or not b:
                return False
            if set(a) & set(b):
                return False
            if not (is_independent(g, a) and is_independent(g, b)):
                return False
            return all(g.adjacent(u, v) for u in a for v in b)
        if w.kind in (DK2, MATCHING):
            edges = w.parts
            if not edges:
                return False
            ends: list[int] = []
            for e in edges:
                if len(e) != 2:
                    return False
                ends.extend(e)
            if len(set(ends)) != len(ends):
                return False
            for u, v in edges:
                if not g.adjacent(u, v):
                    return False
            for i, e in enumerate(edges):
                for f in edges[i + 1 :]:
                    if any(g.adjacent(p, q) for p in e for q in f):
                        return False
            return True
        if w.kind == SUBSTAR:
            (center,), *rays = w.parts
            verts = (center,) + tuple(v for ray in rays for v in ray)
            if not rays or any(len(ray) != 2 for ray in rays):
                return False
            if len(set(verts)) != len(verts):
                return False
            edges = {frozenset(ray) for ray in rays}
            edges |= {frozenset((center, mid)) for mid, _ in rays}
            return all(
                g.adjacent(u, v) == (frozenset((u, v)) in edges)
                for i, u in enumerate(verts)
                for v in verts[i + 1 :]
            )
        return False
    except (ValueError, TypeError):
        return False


# -- collecting witnesses -----------------------------------------------------------------


def _graph_of(bits) -> Graph:
    n = len(bits)
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if bits[u] >> v & 1])


@pytest.fixture(scope="module")
def produced():
    """(graph, witness) for every witness the engine, generators and extractions make."""
    got: list[tuple[Graph, Witness]] = []
    mp = pytest.MonkeyPatch()

    def checked(g, w):
        got.append((g, w))
        return verify_witness(g, w)

    for module in (dec, degeneracy, separators):
        mp.setattr(module, "verify_witness", checked)
    for name in ("path_through", "biclique_through"):
        real = getattr(harness, name)

        def through(bits, *args, real=real):
            w = real(bits, *args)
            if w is not None:
                got.append((_graph_of(bits), w))
            return w

        mp.setattr(harness, name, through)
    try:
        rng = random.Random(1212)
        for _ in range(150):  # the engine, including its refutations
            g = random_graph(rng.randint(5, 13), rng.choice([0.25, 0.4, 0.6]), rng)
            for ell in (2, 3):
                try:
                    w = dec.decompose(g, ell, check_p5=False)
                except ForbiddenStructureFound as exc:
                    w = exc.witness
                if isinstance(w, Witness):
                    got.append((g, w))
            low_alpha_vertex(g, 2, 2)
            if is_connected(g):
                try:
                    gyarfas_dominated_separator(g, 5)
                except ForbiddenStructureFound:
                    pass
            for pattern in (("path", 4), ("biclique", 1, 2), ("substar", 2)):
                w = find_pattern(g, pattern)
                if w is not None:
                    got.append((g, w))
        for seed in range(12):  # the generators' searches through a flipped pair
            gen_class_free(12, seed, [("path", 5), ("biclique", 2, 2)])
        # the extractions of the general case
        for x_side, y_side, g in (
            ((0, 1), (2, 3, 4), Graph(5, [(0, 2), (0, 3), (1, 3), (1, 4)])),
            ((0, 1), (2, 3), complete_bipartite(2, 2)),
            (tuple(range(4)), tuple(range(4, 9)), complete_bipartite(4, 5)),
            (tuple(range(4)), tuple(range(4, 20)),
             Graph(20, [(x, 4 + 4 * x + i) for x in range(4) for i in range(4)])),
        ):
            high_degree_extract(g, x_side, y_side, 2 if len(x_side) == 2 else 3, 2)
        g = Graph(6, [(0, 3), (1, 4), (2, 5)])
        m = bipartite_max_matching(g, (0, 1, 2), (3, 4, 5))
        low_degree_induced_matching(g, (0, 1, 2), (3, 4, 5), m, 1, 2)
    finally:
        mp.undo()
    return got


def _flipped(g: Graph, w: Witness) -> Graph:
    """``g`` with the edge between the witness's first two vertices flipped."""
    vs = [v for part in w.parts for v in part]
    u, v = vs[0], vs[1]
    edges = set(g.edges())
    edges ^= {(min(u, v), max(u, v))}
    return Graph(g.n, sorted(edges))


def test_every_produced_witness_verifies_alike(produced):
    kinds = {w.kind for _, w in produced}
    assert kinds == {PATH, BICLIQUE, DK2, MATCHING, SUBSTAR}
    assert len(produced) > 500
    for g, w in produced:
        listed = Witness(w.kind, [list(p) for p in w.parts])
        other = _flipped(g, w)
        for graph, witness in ((g, w), (g, listed), (other, w), (other, listed)):
            assert verify_witness(graph, witness) == ref_verify_witness(graph, witness)
        assert verify_witness(g, w) and verify_witness(g, listed)


# -- malformed witnesses --------------------------------------------------------------------

# a path 0-1-2-3 plus a pendant 4 at 1: P4, K_{1,2} (0, 2 | 1), a 2K2 (0-1, 2-3)
G = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])

MALFORMED = [
    Witness(PATH, ((),)),
    Witness(PATH, ()),
    Witness(PATH, ((0, 1), (2, 3))),
    Witness(PATH, ((0, 1, 0),)),
    Witness(PATH, ((0, 1, 9),)),
    Witness(PATH, ((-1, 0),)),
    Witness(PATH, ((0, "1"),)),
    Witness(PATH, ((0, 1.0),)),
    Witness(PATH, ((0, None),)),
    Witness(PATH, (([0], 1),)),
    Witness(PATH, (5,)),
    Witness(BICLIQUE, ((), (1,))),
    Witness(BICLIQUE, ((1,), ())),
    Witness(BICLIQUE, ((0, 2),)),
    Witness(BICLIQUE, ((0,), (1,), (2,))),
    Witness(BICLIQUE, ((0, 2), (1, 2))),
    Witness(BICLIQUE, ((0, 2), (7,))),
    Witness(BICLIQUE, ((0, "x"), (1,))),
    Witness(DK2, ()),
    Witness(DK2, ((0, 1), (1, 2))),
    Witness(DK2, ((0, 1), (2,))),
    Witness(DK2, ((0, 1, 2),)),
    Witness(MATCHING, ((0, 1), (2, 3.5))),
    Witness(MATCHING, ((0, 1), (2, 8))),
    Witness(MATCHING, ((0, 0),)),
    Witness(MATCHING, ((0, 1), (1, 4))),
    Witness(SUBSTAR, ((1,),)),
    Witness(SUBSTAR, ((1, 2), (0, 3))),
    Witness(SUBSTAR, ((), (2, 3))),
    Witness(SUBSTAR, ((1,), (2, 3), (2, 3))),
    Witness(SUBSTAR, ((1,), (2,))),
    Witness(SUBSTAR, ((1,), (2, 1))),
    Witness(SUBSTAR, ((1,), (2, "3"))),
    Witness("nonsense", ((0,),)),
    Witness("", ()),
    Witness(PATH, None),
]

WELL_FORMED = [
    Witness(PATH, ((0,),)),
    Witness(PATH, ((0, 1, 2, 3),)),
    Witness(PATH, ([0, 1, 2, 3],)),
    Witness(PATH, ((3, 2, 1, 0),)),
    Witness(PATH, ((0, 2),)),
    Witness(BICLIQUE, ((1,), (0, 2))),
    Witness(BICLIQUE, ([1], [0, 2, 4])),
    Witness(BICLIQUE, ((0, 2), (1, 3))),
    Witness(DK2, ((0, 1), (2, 3))),
    Witness(MATCHING, [[4, 1], [2, 3]]),
    Witness(SUBSTAR, ((1,), (2, 3))),
    Witness(SUBSTAR, ([1], [2, 3], [0, 4])),
]


@pytest.mark.parametrize("w", MALFORMED, ids=repr)
def test_malformed_witnesses_are_false_alike(w):
    assert not verify_witness(G, w)
    assert not ref_verify_witness(G, w)


@pytest.mark.parametrize("w", WELL_FORMED, ids=repr)
def test_well_formed_witnesses_agree(w):
    assert verify_witness(G, w) == ref_verify_witness(G, w)


def test_well_formed_witnesses_include_both_answers():
    assert {verify_witness(G, w) for w in WELL_FORMED} == {True, False}


def test_a_biclique_side_may_no_longer_repeat_a_vertex():
    edge = Graph(2, [(0, 1)])
    for w in (
        Witness(BICLIQUE, ((0, 0), (1, 1))),
        Witness(BICLIQUE, ((0, 0), (1,))),
        Witness(BICLIQUE, ([0], [1, 1])),
    ):
        assert ref_verify_witness(edge, w)  # the fault the shape check mends
        assert not verify_witness(edge, w)
    assert verify_witness(edge, Witness(BICLIQUE, ((0,), (1,))))
