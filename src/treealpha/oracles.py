"""Exact combinatorial search primitives.

Maximum independent set (branch and bound over bitmasks, with component
splitting), bipartite maximum matching with a Konig vertex-cover certificate,
and brute-force induced pattern detection, in the whole graph or through a
given pair of vertices.  Everything here is exact and
deterministic: exactness is mandatory because callers compare independence
numbers against sharp thresholds, and determinism makes every downstream
tie-break reproducible.

The independent set returned is the first optimum in branching order: the
first maximum-size leaf, in depth-first order, of the tree that branches on a
maximum-degree vertex (lowest id on ties) with the include branch first.
Neither the bound nor component splitting changes that leaf (see
``_mis_mask``), and the engine's root choice ``min(MIS)`` depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .graph import (
    Graph, VertexSet, component, is_independent, mask_of, members, vertex_set
)


# -- witnesses -------------------------------------------------------------

PATH = "path"
BICLIQUE = "biclique"
DK2 = "dk2"
MATCHING = "matching"
SUBSTAR = "substar"


@dataclass(frozen=True)
class Witness:
    """A self-verifying forbidden-structure certificate.

    kind "path": parts is a single tuple, the path vertices in order.
    kind "biclique": parts are the two sides (sorted), equal in size.
    kind "dk2" / "matching": parts are the edges of an induced matching.
    kind "substar": parts are ``(center,)`` and then one (mid, leaf) pair per
    ray of an induced once-subdivided star.
    """

    kind: str
    parts: tuple[tuple[int, ...], ...]

    def to_record(self) -> dict:
        return {"kind": self.kind, "parts": [list(p) for p in self.parts]}

    def size(self) -> int:
        if self.kind == PATH:
            return len(self.parts[0])
        if self.kind == BICLIQUE:
            return len(self.parts[0])
        if self.kind == SUBSTAR:
            return len(self.parts) - 1
        return len(self.parts)


def path_witness(vertices: Sequence[int]) -> Witness:
    return Witness(PATH, (tuple(vertices),))


def biclique_witness(a: Iterable[int], b: Iterable[int]) -> Witness:
    return Witness(BICLIQUE, (vertex_set(a), vertex_set(b)))


def matching_witness(edges: Iterable[tuple[int, int]], kind: str = MATCHING) -> Witness:
    return Witness(kind, tuple(tuple(sorted(e)) for e in edges))


class ForbiddenStructureFound(Exception):
    """Signals that a forbidden induced structure was found in the input."""

    def __init__(self, witness: Witness, message: str = ""):
        super().__init__(message or f"found induced {witness.kind}")
        self.witness = witness


def verify_witness(g: Graph, w: Witness) -> bool:
    """Check a witness against ``g``: all required edges and non-edges.

    Never raises; False is the failure signal (including malformed input).
    """
    try:
        if w.kind == PATH:
            (seq,) = w.parts
            if len(seq) < 1 or len(set(seq)) != len(seq):
                return False
            for v in seq:
                if not (0 <= v < g.n):
                    return False
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
            for v in ends:
                if not (0 <= v < g.n):
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


# -- exact independent sets ------------------------------------------------


def _clique_cover_bound(bits: Sequence[int], mask: int) -> int:
    """Greedy clique cover of the masked vertices; its size bounds alpha."""
    cliques: list[int] = []
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        nb = bits[v]
        for i, c in enumerate(cliques):
            if c & ~nb == 0:  # v adjacent to every current member
                cliques[i] = c | (1 << v)
                break
        else:
            cliques.append(1 << v)
    return len(cliques)


def _mis_mask(bits: Sequence[int], mask: int, floor: int = -1) -> int:
    """Maximum independent set of the masked subgraph, as a bitmask.

    Returns the first optimum in branching order.  The branching tree strips
    the vertices isolated within the mask, then branches on a maximum-degree
    vertex (ties to the lowest id), include branch first.  The result is the
    first maximum-size leaf of that tree, unpruned, in depth-first order.
    Pruning by a valid upper bound keeps that leaf, since no subtree holding
    it can be cut.

    ``solve(mask, floor)`` returns that leaf if it has more than ``floor``
    vertices, else -1.  A disconnected mask is solved one component at a time
    and the results are united, which returns the same set.  The union's
    pivot lies in one component and is that component's own pivot, so the
    union's tree interleaves the components' trees: two of its leaves first
    differ where they differ in one component's tree.  Hence the first
    maximum leaf of the union is the union of the components' first maximum
    leaves.

    Returns ``solve(mask, floor)``; the default ``floor=-1`` always yields the
    optimum.
    """

    def solve(mask: int, floor: int) -> int:
        # vertices isolated within mask are in every optimum
        iso = 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            if not bits[low.bit_length() - 1] & mask:
                iso |= low
        if iso:
            mask ^= iso
            floor -= iso.bit_count()
        if not mask:
            return iso if floor < 0 else -1
        comp = component(bits, mask)
        if comp != mask:
            out = iso
            while mask:
                out |= solve(comp, -1)
                mask ^= comp
                comp = component(bits, mask)
            return out if (out ^ iso).bit_count() > floor else -1
        if floor > 0 and _clique_cover_bound(bits, mask) <= floor:
            return -1
        # pivot: max degree within mask, lowest id on ties
        pivot = pdeg = -1
        m = mask
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            d = (bits[v] & mask).bit_count()
            if d > pdeg:
                pivot, pdeg = v, d
        p = 1 << pivot
        inc = solve(mask & ~(bits[pivot] | p), floor - 1)
        if inc >= 0:
            inc |= p
            floor = inc.bit_count()
        exc = solve(mask ^ p, floor)
        if exc >= 0:
            return exc | iso
        return inc | iso if inc >= 0 else -1

    return solve(mask, floor)


def max_independent_set(g: Graph) -> VertexSet:
    """A maximum independent set, deterministic across runs."""
    full = (1 << g.n) - 1
    chosen = _mis_mask(g.adjacency_bits(), full)
    return members(chosen)


def alpha_mask(g: Graph, mask: int) -> int:
    if mask == 0:
        return 0
    return _mis_mask(g.adjacency_bits(), mask).bit_count()


def alpha_exceeds(g: Graph, mask: int, k: int) -> bool:
    """Whether the masked subgraph has an independent set of more than ``k``."""
    return mask.bit_count() > k and _mis_mask(g.adjacency_bits(), mask, k) >= 0


def alpha_of_subset(g: Graph, s: Iterable[int]) -> int:
    """Independence number of the subgraph induced by ``s``."""
    return alpha_mask(g, mask_of(g, s))


def max_independent_subset(g: Graph, s: Iterable[int]) -> VertexSet:
    """A maximum independent set within ``s``, deterministic."""
    return members(_mis_mask(g.adjacency_bits(), mask_of(g, s)))


# -- bipartite matching with Konig certificate ------------------------------


@dataclass(frozen=True)
class MatchingResult:
    """Maximum matching plus a vertex cover of equal size (Konig)."""

    edges: tuple[tuple[int, int], ...]
    cover: VertexSet

    def partner(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for u, v in self.edges:
            out[u] = v
            out[v] = u
        return out


def bipartite_max_matching(g: Graph, x: Iterable[int], y: Iterable[int]) -> MatchingResult:
    """Maximum matching between independent sides ``x`` and ``y``.

    Augmenting-path search; the cover comes from the final alternating
    reachability layering, so |edges| == |cover| always holds.
    """
    xs, ys = vertex_set(x), vertex_set(y)
    if set(xs) & set(ys):
        raise ValueError("sides overlap")
    if not is_independent(g, xs):
        raise ValueError("side X is not independent")
    if not is_independent(g, ys):
        raise ValueError("side Y is not independent")
    yset = set(ys)
    adj = {u: [v for v in g.neighbors(u) if v in yset] for u in xs}
    match_x: dict[int, int] = {}
    match_y: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_y or augment(match_y[v], seen):
                match_x[u] = v
                match_y[v] = u
                return True
        return False

    for u in xs:
        augment(u, set())

    # Konig: alternate from unmatched X along non-matching then matching edges
    reach_x = {u for u in xs if u not in match_x}
    reach_y: set[int] = set()
    frontier = list(sorted(reach_x))
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v in reach_y:
                continue
            if match_x.get(u) == v:
                continue
            reach_y.add(v)
            w = match_y.get(v)
            if w is not None and w not in reach_x:
                reach_x.add(w)
                frontier.append(w)
    cover = vertex_set([u for u in xs if u not in reach_x] + [v for v in ys if v in reach_y])
    edges = tuple(sorted((u, v) for u, v in match_x.items()))
    return MatchingResult(edges=edges, cover=cover)


# -- induced pattern searches -----------------------------------------------


def _grow_path(
    bits: Sequence[int],
    path: list[int],
    banned: int,
    left: int,
    done: Callable[[list[int]], bool],
) -> bool:
    """Extend the induced path ``path`` at its last vertex by ``left`` vertices.

    ``banned`` holds the path's vertices and the neighbors of all of them but
    the last.  Extensions are tried depth first in ascending order; the
    search stops at the first full path for which ``done(path)`` holds and
    leaves that path in ``path``.
    """
    if not left:
        return done(path)
    last = path[-1]
    options = bits[last] & ~banned
    while options:
        low = options & -options
        options ^= low
        path.append(low.bit_length() - 1)
        if _grow_path(bits, path, banned | low | bits[last], left - 1, done):
            return True
        path.pop()
    return False


def find_induced_path(g: Graph, t: int) -> Optional[Witness]:
    """First induced path on ``t`` vertices in a deterministic DFS order.

    Paths are explored by ascending start vertex and ascending extensions;
    orientations are canonicalized by requiring first < last endpoint for
    t >= 2.  Exhaustive: returns None only if no induced P_t exists.
    """
    if t < 1:
        raise ValueError("path length must be >= 1")
    if t == 1:
        return path_witness((0,)) if g.n >= 1 else None
    bits = g.adjacency_bits()
    for start in range(g.n):
        path = [start]
        if _grow_path(bits, path, 1 << start, t - 1, lambda p: p[0] < p[-1]):
            return path_witness(path)
    return None


def path_through(bits: Sequence[int], t: int, u: int, v: int) -> Optional[Witness]:
    """An induced path on ``t`` vertices containing both ``u`` and ``v``, or None.

    ``bits`` are adjacency masks.  A first arm of k <= (t - 1) / 2 vertices
    is grown from ``u``, then the path is grown from ``u`` the other way to
    its full length.  Exhaustive: returns None only if no such path exists.
    """
    if t < 1:
        raise ValueError("path length must be >= 1")
    path: list[int] = []

    def second_arm(arm: list[int]) -> bool:
        # arm runs from u outward; the rest must avoid its vertices' neighbors
        path[:] = arm[::-1]
        banned = 1 << u
        for x in arm[1:]:
            banned |= 1 << x | bits[x]
        return _grow_path(bits, path, banned, t - len(arm), lambda p: u in p and v in p)

    for k in range((t - 1) // 2 + 1):
        if _grow_path(bits, [u], 1 << u, k, second_arm):
            return path_witness(path)
    return None


def _independent_subsets(bits: Sequence[int], k: int, cands: int, chosen: int = 0):
    """Yield ``chosen`` plus each independent ``k``-subset of ``cands``, as masks.

    Subsets come in lexicographic order of their sorted members: the lowest
    candidate is chosen first, and a choice drops its neighbors from the rest.
    """
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
            yield from _independent_subsets(bits, k - 1, rest, chosen | low)


def _extend_biclique(
    bits: Sequence[int], a: int, b: int, side_a: int, side_b: int
) -> Optional[Witness]:
    """First induced K_{a,b} whose sides contain the masks ``side_a``, ``side_b``.

    The given sides must be independent and complete to each other.  The
    a-side is completed lexicographically; the b-side is the first
    independent completion within the a-side's common neighborhood.
    """
    full = (1 << len(bits)) - 1
    grow_a, common_a, rim_b = full & ~side_a, full, side_b
    for w in members(side_a):
        grow_a &= ~bits[w]
        common_a &= bits[w]
    for w in members(side_b):
        grow_a &= bits[w]
        rim_b |= bits[w]
    need_b = b - side_b.bit_count()
    for more_a in _independent_subsets(bits, a - side_a.bit_count(), grow_a):
        grow_b = common_a & ~rim_b
        m = more_a
        while m:
            low = m & -m
            m ^= low
            grow_b &= bits[low.bit_length() - 1]
        if grow_b.bit_count() >= need_b:
            whole_b = next(_independent_subsets(bits, need_b, grow_b, side_b), None)
            if whole_b is not None:
                return Witness(BICLIQUE, (members(side_a | more_a), members(whole_b)))
    return None


def find_induced_complete_bipartite(g: Graph, a: int, b: int) -> Optional[Witness]:
    """First induced K_{a,b}: independent sides complete to each other.

    The ``a``-side is enumerated lexicographically; the ``b``-side is the
    first independent b-subset of the common neighborhood.
    """
    if a < 1 or b < 1:
        raise ValueError("side sizes must be >= 1")
    return _extend_biclique(g.adjacency_bits(), a, b, 0, 0)


def biclique_through(
    bits: Sequence[int], a: int, b: int, u: int, v: int
) -> Optional[Witness]:
    """An induced K_{a,b} containing both ``u`` and ``v``, or None.

    ``bits`` are adjacency masks.  Adjacent u and v lie on opposite sides,
    nonadjacent ones on the same side; each placement is tried in turn.
    """
    if a < 1 or b < 1:
        raise ValueError("side sizes must be >= 1")
    if bits[u] >> v & 1:
        placements = ((1 << u, 1 << v), (1 << v, 1 << u))
    else:
        placements = ((1 << u | 1 << v, 0), (0, 1 << u | 1 << v))
    for side_a, side_b in placements:
        if side_a.bit_count() <= a and side_b.bit_count() <= b:
            got = _extend_biclique(bits, a, b, side_a, side_b)
            if got is not None:
                return got
    return None


def find_induced_biclique(g: Graph, ell: int) -> Optional[Witness]:
    """First induced balanced biclique K_{ell,ell}, or None."""
    return find_induced_complete_bipartite(g, ell, ell)


def find_induced_subdivided_star(
    g: Graph, d: int
) -> Optional[tuple[int, tuple[tuple[int, int], ...]]]:
    """First induced once-subdivided d-star: center, plus (mid, leaf) rays.

    Each mid is adjacent to the center and its own leaf only; mids, leaves
    and the center are otherwise pairwise nonadjacent.  Returns None if no
    such induced subgraph exists.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    bits = g.adjacency_bits()
    for center in range(g.n):
        cn = bits[center]
        for mid_mask in _independent_subsets(bits, d, cn):
            mids = members(mid_mask)
            # leaf candidates per ray: private neighbors of each mid
            pools = []
            for m in mids:
                others = 0
                for m2 in mids:
                    if m2 != m:
                        others |= bits[m2]
                pools.append(bits[m] & ~cn & ~others & ~(1 << center) & ~mid_mask)
            if not all(pools):
                continue
            leaves: list[int] = []

            def pick(i: int, banned: int) -> bool:
                if i == d:
                    return True
                options = pools[i] & ~banned
                while options:
                    low = options & -options
                    options ^= low
                    leaves.append(low.bit_length() - 1)
                    if pick(i + 1, banned | low | bits[leaves[-1]]):
                        return True
                    leaves.pop()
                return False

            if pick(0, 0):
                return center, tuple(zip(mids, leaves))
    return None
