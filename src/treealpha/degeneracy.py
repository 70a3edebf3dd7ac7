"""Low-independence closed neighborhoods and exact alpha-degeneracy.

The central routine, :func:`low_alpha_vertex`, picks a vertex from a maximum
independent set and either certifies that its closed neighborhood has small
independence number, or constructively extracts a forbidden structure (a
balanced biclique, an induced path, or an induced union of disjoint edges)
that refutes the caller's class promise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional, Union

from .graph import (
    Graph, VertexSet, closed_neighborhood, is_independent, mask_of, members,
    vertex_set,
)
from .oracles import (
    DK2,
    MatchingResult,
    Witness,
    alpha_of_subset,
    biclique_witness,
    bipartite_max_matching,
    matching_witness,
    max_independent_subset,
    path_witness,
    verify_witness,
)


class ExtractionError(RuntimeError):
    """An internal extraction step produced an inconsistent structure."""


def _check_bipartition(g: Graph, a: VertexSet, b: VertexSet) -> None:
    if set(a) & set(b):
        raise ValueError("sides overlap")
    if not is_independent(g, a) or not is_independent(g, b):
        raise ValueError("sides must be independent")


def near_complete_vertices(
    g: Graph, a_side: VertexSet, b_side: VertexSet, p: int, ell: int
) -> Union[Witness, VertexSet]:
    """Vertices of ``a_side`` with fewer than ``p`` non-neighbors in ``b_side``.

    Requires |b_side| >= p * ell.  If at least ``ell`` such vertices exist,
    they share at least ``ell`` common neighbors by counting, and an induced
    balanced biclique is returned instead of the list.
    """
    a_side, b_side = vertex_set(a_side), vertex_set(b_side)
    _check_bipartition(g, a_side, b_side)
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
class HighDegreeSearchState:
    """Running state of the private-neighborhood selection loop.

    ``chosen`` is the ordered list of selected vertices, ``candidates`` the
    surviving pool, and ``step`` the number of selections made so far.
    """

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
                if _private_size(g, z, group, y_mask) < need:
                    raise ExtractionError(
                        f"private neighborhood of {z} fell below {need}"
                    )


def _private_mask(g: Graph, v: int, group: list[int], y_mask: int) -> int:
    """Neighbors of ``v`` in the Y side not adjacent to any other group member."""
    others = 0
    for z in group:
        if z != v:
            others |= g.neighbor_bits(z)
    return g.neighbor_bits(v) & y_mask & ~others


def _private_size(g: Graph, v: int, group: list[int], y_mask: int) -> int:
    return _private_mask(g, v, group, y_mask).bit_count()


def high_degree_extract(
    g: Graph, x_side: VertexSet, y_side: VertexSet, d: int, ell: int
) -> Union[Witness, int]:
    """Bound the high-degree side or extract an induced structure.

    Every vertex of ``x_side`` must have at least ell**(d-1) neighbors in
    ``y_side``.  If |x_side| <= C(d,2)*(ell-1) that bound is returned as the
    certificate.  Otherwise the selection loop either completes ``d``
    private-neighbor pairs into an induced union of d disjoint edges, or a
    filtering step surfaces an induced balanced biclique.
    """
    x_side, y_side = vertex_set(x_side), vertex_set(y_side)
    _check_bipartition(g, x_side, y_side)
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

    state = HighDegreeSearchState(chosen=[], candidates=list(x_side), step=0)
    state.check(g, y_mask, d, ell)
    for j in range(1, d):
        pool = state.candidates
        z = min(pool, key=lambda v: (_private_size(g, v, state.chosen + [v], y_mask), v))
        chosen = state.chosen + [z]
        p = ell ** (d - 1 - j)
        discard: set[int] = set()
        for member in chosen:
            b_mask = _private_mask(g, member, chosen, y_mask)
            b_set = members(b_mask)
            got = near_complete_vertices(g, tuple(pool), b_set, p, ell)
            if isinstance(got, Witness):
                return got
            discard.update(got)
        survivors = [v for v in pool if v not in discard]
        state = HighDegreeSearchState(chosen=chosen, candidates=survivors, step=j)
        state.check(g, y_mask, d, ell)

    anchor = min(state.candidates)
    group = state.chosen + [anchor]
    edges = []
    for z in group:
        pm = _private_mask(g, z, group, y_mask)
        if not pm:
            raise ExtractionError(f"no private neighbor left for {z}")
        edges.append((z, (pm & -pm).bit_length() - 1))
    w = matching_witness(edges, kind=DK2)
    if not verify_witness(g, w):
        raise ExtractionError("constructed disjoint edges failed verification")
    return w


def low_degree_induced_matching(
    g: Graph,
    x_side: VertexSet,
    y_side: VertexSet,
    matching: MatchingResult,
    q: int,
    d: int,
) -> Witness:
    """Induced matching with ``d`` edges from a low-degree covered side.

    Preconditions: the matching covers ``x_side``, every x has at most ``q``
    neighbors in ``y_side``, and |x_side| > 2*(d-1)*q.  Follows the
    inductive restriction: pick a low-degree matched Y vertex, keep only the
    rows and columns it leaves untouched, and recurse.
    """
    x_side, y_side = vertex_set(x_side), vertex_set(y_side)
    _check_bipartition(g, x_side, y_side)
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


@dataclass(frozen=True)
class LowAlphaReport:
    """Outcome of the low-independence-neighborhood search.

    Exactly one of two things holds: ``alpha_closed < bound`` (and
    ``witness`` is None), or ``witness`` is a verified forbidden structure.
    """

    vertex: int
    alpha_closed: int
    bound: int
    witness: Optional[Witness]

    def to_record(self) -> dict:
        return {
            "vertex": self.vertex,
            "alpha_closed": self.alpha_closed,
            "bound": self.bound,
            "witness": self.witness.to_record() if self.witness else None,
        }


def low_alpha_vertex(
    g: Graph, ell: int, d: int = 2, within: Optional[Iterable[int]] = None
) -> LowAlphaReport:
    """A vertex whose closed neighborhood has small independence number.

    The vertex is the least member of the deterministic maximum independent
    set.  The bound is 2*ell for d=2 and d^2*ell + 2*d*ell^(d-1) otherwise;
    when the neighborhood beats the bound, the proof's extraction runs and
    the report carries a verified witness instead.

    ``within`` is the vertex set searched, all of ``g`` by default.  The
    maximum independent set and N[v] are taken inside it, so the report is
    the one for the subgraph it induces, in the ids of ``g``.
    """
    if ell < 2 or d < 2:
        raise ValueError("ell and d must be >= 2")
    scope = set(range(g.n) if within is None else within)
    if not scope:
        raise ValueError("graph must be non-null")
    mis = max_independent_subset(g, scope)
    v = min(mis)
    nv = tuple(u for u in closed_neighborhood(g, v) if u in scope)
    j_set = max_independent_subset(g, nv)
    alpha_closed = len(j_set)
    bound = 2 * ell if d == 2 else d * d * ell + 2 * d * ell ** (d - 1)
    if alpha_closed < bound:
        return LowAlphaReport(v, alpha_closed, bound, None)

    i_rest = tuple(u for u in mis if u != v)
    if set(j_set) & set(mis):
        raise ExtractionError("independent-set oracle inconsistency")
    matching = bipartite_max_matching(g, j_set, i_rest)
    if len(matching.edges) < len(j_set) - 1:
        raise ExtractionError("matching smaller than |J| - 1; oracle inconsistency")
    partner = matching.partner()
    j_matched = sorted(x for x in j_set if x in partner)
    i_mask = mask_of(g, i_rest)

    witness = (
        _extract_d2(g, v, j_matched, partner, i_mask, ell)
        if d == 2
        else _extract_general(g, j_matched, i_rest, partner, matching, d, ell)
    )
    if not verify_witness(g, witness):
        raise ExtractionError("extraction produced an unverifiable witness")
    return LowAlphaReport(v, alpha_closed, bound, witness)


def _extract_d2(
    g: Graph,
    v: int,
    j_matched: list[int],
    partner: dict[int, int],
    i_mask: int,
    ell: int,
) -> Witness:
    """Nested-neighborhood ordering yields a biclique; a break yields a path."""
    xs = sorted(
        j_matched, key=lambda x: ((g.neighbor_bits(x) & i_mask).bit_count(), x)
    )
    for a, b in zip(xs, xs[1:]):
        na = g.neighbor_bits(a) & i_mask
        nb = g.neighbor_bits(b) & i_mask
        if na & ~nb:
            ya = (na & ~nb & -(na & ~nb)).bit_length() - 1
            diff = nb & ~na
            if not diff:
                raise ExtractionError("incomparable pair without a crossing neighbor")
            yb = (diff & -diff).bit_length() - 1
            return path_witness((ya, a, v, b, yb))
    if len(xs) < 2 * ell - 1:
        raise ExtractionError("too few matched vertices for the biclique step")
    side_a = xs[ell - 1 : 2 * ell - 1]
    side_b = [partner[x] for x in xs[:ell]]
    return biclique_witness(side_a, side_b)


def _extract_general(
    g: Graph,
    j_matched: list[int],
    i_rest: VertexSet,
    partner: dict[int, int],
    matching: MatchingResult,
    d: int,
    ell: int,
) -> Witness:
    """Split by degree and run the matching/private-neighborhood extractions."""
    i_mask = mask_of(g, i_rest)
    thr = ell ** (d - 1)
    j_high = tuple(
        x for x in j_matched if (g.neighbor_bits(x) & i_mask).bit_count() >= thr
    )
    high_mask = mask_of(g, j_high)
    j_low = tuple(x for x in j_matched if not high_mask >> x & 1)
    if len(j_high) > comb(d, 2) * (ell - 1):
        got = high_degree_extract(g, j_high, i_rest, d, ell)
        if isinstance(got, Witness):
            return got
        raise ExtractionError("high-degree side unexpectedly within bound")
    if len(j_low) > 2 * (d - 1) * (thr - 1):
        sub_edges = tuple((x, partner[x]) for x in j_low)
        sub = MatchingResult(edges=tuple(sorted(sub_edges)), cover=matching.cover)
        return low_degree_induced_matching(g, j_low, i_rest, sub, thr - 1, d)
    raise ExtractionError("neither degree class is large enough; arithmetic breach")


def alpha_degeneracy(g: Graph) -> int:
    """Exact alpha-degeneracy by greedy elimination.

    Repeatedly delete a vertex minimizing the independence number of its
    current closed neighborhood (ties to the least id); the answer is the
    maximum value seen.  The standard exchange argument makes this exact.
    """
    if g.n == 0:
        raise ValueError("graph must be non-null")
    remaining = set(range(g.n))
    worst = 0
    while remaining:
        best_v, best_a = -1, None
        for v in sorted(remaining):
            nb = [u for u in g.neighbors(v) if u in remaining] + [v]
            a = alpha_of_subset(g, nb)
            if best_a is None or a < best_a:
                best_v, best_a = v, a
        worst = max(worst, best_a)
        remaining.remove(best_v)
    return worst
