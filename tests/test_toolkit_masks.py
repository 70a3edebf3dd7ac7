"""The low-alpha extraction toolkit on host masks, against the set-based code.

``degeneracy``'s bipartite extractions keep their sides as host bitmasks: the
bipartition check hands back the mask of its second side, the selection loop
keeps its chosen vertices and pool as locals checked by ``_check_pool``, the
induced-matching restriction is a loop over a row mask, and
``_extract_general`` takes its caller's mask of I.  The code they replaced is
kept below verbatim as ``ref_*`` (a search-state dataclass, a size wrapper, a
recursive closure and rebuilt masks).  Both must give the same results, the
same exception types and the same messages on random graphs and random
bipartite graphs, for d = 2..4 and ell = 2..3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Union

import pytest

from treealpha import degeneracy
from treealpha.degeneracy import (
    ExtractionError,
    high_degree_extract,
    low_degree_induced_matching,
    near_complete_vertices,
)
from treealpha.graph import Graph, VertexSet, is_independent, mask_of, members, vertex_set
from treealpha.oracles import (
    DK2,
    ForbiddenStructureFound,
    MatchingResult,
    Witness,
    biclique_witness,
    bipartite_max_matching,
    matching_witness,
    max_independent_subset,
    verify_witness,
)

from conftest import complete_bipartite, random_graph


# -- reference: the set-based extractions, verbatim ----------------------------------------


def ref_check_bipartition(g: Graph, a: VertexSet, b: VertexSet) -> None:
    if set(a) & set(b):
        raise ValueError("sides overlap")
    if not is_independent(g, a) or not is_independent(g, b):
        raise ValueError("sides must be independent")


def ref_near_complete_vertices(
    g: Graph, a_side: VertexSet, b_side: VertexSet, p: int, ell: int
) -> Union[Witness, VertexSet]:
    a_side, b_side = vertex_set(a_side), vertex_set(b_side)
    ref_check_bipartition(g, a_side, b_side)
    if p < 1 or ell < 1:
        raise ValueError("p and ell must be positive")
    if len(b_side) < p * ell:
        raise ValueError(
            f"|B| = {len(b_side)} below required {p}*{ell} = {p * ell}"
        )
    bmask = mask_of(g, b_side)
    qualifying = tuple(
        x
        for x in a_side
        if len(b_side) - (g.neighbor_bits(x) & bmask).bit_count() < p
    )
    if len(qualifying) < ell:
        return qualifying
    chosen_a = qualifying[:ell]
    common = bmask
    for x in chosen_a:
        common &= g.neighbor_bits(x)
    common_list = members(common)
    if len(common_list) < ell:
        raise ExtractionError("counting bound violated; inputs inconsistent")
    w = biclique_witness(chosen_a, common_list[:ell])
    if not verify_witness(g, w):
        raise ExtractionError("constructed biclique failed verification")
    return w


@dataclass
class RefHighDegreeSearchState:
    chosen: list[int]
    candidates: list[int]
    step: int

    def check(self, g: Graph, y_mask: int, d: int, ell: int) -> None:
        j = self.step
        lower = (d * (d - 1) - j * (j + 1)) // 2 * (ell - 1)
        if len(self.candidates) <= lower:
            raise ExtractionError(
                f"candidate pool too small after step {j}: "
                f"{len(self.candidates)} <= {lower}"
            )
        need = ell ** (d - 1 - j)
        for x in self.candidates:
            group = self.chosen + [x]
            for z in group:
                if ref_private_size(g, z, group, y_mask) < need:
                    raise ExtractionError(
                        f"private neighborhood of {z} fell below {need}"
                    )


def ref_private_mask(g: Graph, v: int, group: list[int], y_mask: int) -> int:
    others = 0
    for z in group:
        if z != v:
            others |= g.neighbor_bits(z)
    return g.neighbor_bits(v) & y_mask & ~others


def ref_private_size(g: Graph, v: int, group: list[int], y_mask: int) -> int:
    return ref_private_mask(g, v, group, y_mask).bit_count()


def ref_high_degree_extract(
    g: Graph, x_side: VertexSet, y_side: VertexSet, d: int, ell: int
) -> Union[Witness, int]:
    x_side, y_side = vertex_set(x_side), vertex_set(y_side)
    ref_check_bipartition(g, x_side, y_side)
    if d < 2 or ell < 2:
        raise ValueError("d and ell must be >= 2")
    y_mask = mask_of(g, y_side)
    need = ell ** (d - 1)
    for x in x_side:
        if (g.neighbor_bits(x) & y_mask).bit_count() < need:
            raise ValueError(f"vertex {x} has degree below {need} in Y")
    limit = comb(d, 2) * (ell - 1)
    if len(x_side) <= limit:
        return limit

    state = RefHighDegreeSearchState(chosen=[], candidates=list(x_side), step=0)
    state.check(g, y_mask, d, ell)
    for j in range(1, d):
        pool = state.candidates
        z = min(pool, key=lambda v: (ref_private_size(g, v, state.chosen + [v], y_mask), v))
        chosen = state.chosen + [z]
        p = ell ** (d - 1 - j)
        discard: set[int] = set()
        for member in chosen:
            b_mask = ref_private_mask(g, member, chosen, y_mask)
            b_set = members(b_mask)
            got = ref_near_complete_vertices(g, tuple(pool), b_set, p, ell)
            if isinstance(got, Witness):
                return got
            discard.update(got)
        survivors = [v for v in pool if v not in discard]
        state = RefHighDegreeSearchState(chosen=chosen, candidates=survivors, step=j)
        state.check(g, y_mask, d, ell)

    anchor = min(state.candidates)
    group = state.chosen + [anchor]
    edges = []
    for z in group:
        pm = ref_private_mask(g, z, group, y_mask)
        if not pm:
            raise ExtractionError(f"no private neighbor left for {z}")
        edges.append((z, (pm & -pm).bit_length() - 1))
    w = matching_witness(edges, kind=DK2)
    if not verify_witness(g, w):
        raise ExtractionError("constructed disjoint edges failed verification")
    return w


def ref_low_degree_induced_matching(
    g: Graph,
    x_side: VertexSet,
    y_side: VertexSet,
    matching: MatchingResult,
    q: int,
    d: int,
) -> Witness:
    x_side, y_side = vertex_set(x_side), vertex_set(y_side)
    ref_check_bipartition(g, x_side, y_side)
    if d < 1 or q < 1:
        raise ValueError("d and q must be positive")
    partner = matching.partner()
    y_mask_full = mask_of(g, y_side)
    for x in x_side:
        y = partner.get(x, -1)
        if y < 0 or not y_mask_full >> y & 1:
            raise ValueError(f"matching does not cover {x} within Y")
    for x in x_side:
        if (g.neighbor_bits(x) & y_mask_full).bit_count() > q:
            raise ValueError(f"vertex {x} exceeds degree bound {q}")
    if len(x_side) <= 2 * (d - 1) * q:
        raise ValueError(f"|X| = {len(x_side)} not above 2(d-1)q = {2 * (d - 1) * q}")

    def rec(xs: list[int], depth: int) -> list[tuple[int, int]]:
        if depth == 1:
            x = min(xs)
            return [(x, partner[x])]
        ys = sorted(partner[x] for x in xs)
        x_mask = mask_of(g, xs)
        y = min(v for v in ys if (g.neighbor_bits(v) & x_mask).bit_count() <= q)
        x = partner[y]
        y_keep = [v for v in ys if not g.adjacent(x, v)]
        blocked = {partner[v] for v in ys if g.adjacent(x, v)}
        x_keep = [
            u for u in xs if not g.adjacent(u, y) and u not in blocked
        ]
        return rec(x_keep, depth - 1) + [(x, y)]

    edges = rec(list(x_side), d)
    w = matching_witness(edges)
    if not verify_witness(g, w):
        raise ExtractionError("constructed induced matching failed verification")
    return w


def ref_extract_general(
    g: Graph,
    j_matched: list[int],
    i_rest: VertexSet,
    partner: dict[int, int],
    matching: MatchingResult,
    d: int,
    ell: int,
) -> Witness:
    i_mask = mask_of(g, i_rest)
    thr = ell ** (d - 1)
    j_high = tuple(
        x for x in j_matched if (g.neighbor_bits(x) & i_mask).bit_count() >= thr
    )
    high_mask = mask_of(g, j_high)
    j_low = tuple(x for x in j_matched if not high_mask >> x & 1)
    if len(j_high) > comb(d, 2) * (ell - 1):
        got = ref_high_degree_extract(g, j_high, i_rest, d, ell)
        if isinstance(got, Witness):
            return got
        raise ExtractionError("high-degree side unexpectedly within bound")
    if len(j_low) > 2 * (d - 1) * (thr - 1):
        sub_edges = tuple((x, partner[x]) for x in j_low)
        sub = MatchingResult(edges=tuple(sorted(sub_edges)), cover=matching.cover)
        return ref_low_degree_induced_matching(g, j_low, i_rest, sub, thr - 1, d)
    raise ExtractionError("neither degree class is large enough; arithmetic breach")


# -- helpers ----------------------------------------------------------------------


def _outcome(fn, *args):
    """The result of ``fn``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError, ForbiddenStructureFound) as exc:
        return type(exc), str(exc)


def _bipartite(a: int, b: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, a + v) for u in range(a) for v in range(b) if rng.random() < p]
    return Graph(a + b, edges)


def _graphs(seed: int):
    """Random graphs (n <= 22), random bipartite graphs and a few bicliques."""
    rng = random.Random(seed)
    for _ in range(150):
        n = rng.randint(1, 22)
        yield random_graph(n, rng.choice((0.1, 0.25, 0.4, 0.6, 0.85)), rng)
    for _ in range(120):
        a, b = rng.randint(1, 12), rng.randint(1, 14)
        yield _bipartite(a, b, rng.choice((0.3, 0.6, 0.85, 1.0)), rng)
    for a, b in ((3, 9), (5, 5), (8, 16)):
        yield complete_bipartite(a, b)


def _sides(g: Graph):
    """Two disjoint independent sides: a maximum independent set and one outside it."""
    mis = max_independent_subset(g, range(g.n))
    rest = [v for v in range(g.n) if v not in mis]
    return mis, max_independent_subset(g, rest) if rest else ()


# -- tests --------------------------------------------------------------------------


def test_the_replaced_helpers_are_gone():
    for name in ("HighDegreeSearchState", "_private_size"):
        assert not hasattr(degeneracy, name)


@pytest.mark.parametrize("seed", [1, 2])
def test_bipartite_extractions_match_the_set_based_code(seed):
    kinds = set()
    for g in _graphs(seed):
        big, small = _sides(g)
        for a, b in ((small, big), (big, small), (big, big), (big, range(g.n))):
            for p in (1, 2, 3):
                for ell in (2, 3):
                    got = _outcome(near_complete_vertices, g, a, b, p, ell)
                    assert got == _outcome(ref_near_complete_vertices, g, a, b, p, ell)
            for d in (2, 3, 4):
                for ell in (2, 3):
                    got = _outcome(high_degree_extract, g, a, b, d, ell)
                    assert got == _outcome(ref_high_degree_extract, g, a, b, d, ell)
                    kinds.add(got.kind if isinstance(got, Witness) else type(got))
        if not (big and small):
            continue
        m = bipartite_max_matching(g, small, big)
        xs = [x for x, y in m.edges] if m.edges[0][0] in small else [y for x, y in m.edges]
        for d in (1, 2, 3, 4):
            for q in (1, 2, 3):
                got = _outcome(low_degree_induced_matching, g, xs, big, m, q, d)
                want = _outcome(ref_low_degree_induced_matching, g, xs, big, m, q, d)
                assert got == want
                kinds.add(got.kind if isinstance(got, Witness) else type(got))
    # the comparison reached every kind of answer
    assert {"biclique", "dk2", "matching", int, tuple} <= kinds


@pytest.mark.parametrize("seed", [3, 4])
def test_general_extraction_matches_the_set_based_code(seed):
    """``_extract_general`` on the inputs ``low_alpha_vertex`` builds for d >= 3."""
    # subdivided stars: vertex 0's leaves each have one private neighbor in I,
    # so the low-degree side is large and the induced-matching branch runs
    spiders = [
        Graph(2 * k + 1, [(0, j) for j in range(1, k + 1)] + [(j, j + k) for j in range(1, k + 1)])
        for k in range(2, 10)
    ]
    kinds = set()
    for g in [*_graphs(seed), *spiders]:
        mis = max_independent_subset(g, range(g.n))
        v = min(mis)
        i_rest = tuple(u for u in mis if u != v)
        nv = [u for u in range(g.n) if g.neighbor_bits(v) >> u & 1]
        j_set = max_independent_subset(g, nv)
        if not j_set or not i_rest:
            continue
        matching = bipartite_max_matching(g, j_set, i_rest)
        partner = matching.partner()
        j_matched = sorted(x for x in j_set if x in partner)
        i_mask = mask_of(g, i_rest)
        for d in (2, 3, 4):
            for ell in (2, 3):
                got = _outcome(
                    degeneracy._extract_general,
                    g, j_matched, i_rest, i_mask, partner, matching, d, ell,
                )
                want = _outcome(
                    ref_extract_general, g, j_matched, i_rest, partner, matching, d, ell
                )
                assert got == want
                kinds.add(got.kind if isinstance(got, Witness) else got[0])
    assert {"dk2", "matching", ExtractionError} <= kinds
