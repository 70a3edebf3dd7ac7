"""Exact combinatorial search primitives.

Independence numbers and maximum independent sets over bitmasks, bipartite
maximum matching with a Konig vertex-cover certificate, and brute-force
induced pattern detection, in the whole graph or through a given pair of
vertices.  Everything here is exact and deterministic: exactness is
mandatory because callers compare independence numbers against sharp
thresholds, and determinism makes every downstream tie-break reproducible.

Independence numbers come from the value oracle ``alpha(bits, mask)``.  It
takes each vertex of degree at most one (some maximum set holds a pendant
vertex, which can stand in for its neighbor), sums over components, takes
the maximum over co-components (in a join no independent set meets two of
them), and only then branches on a maximum-degree vertex p:
alpha(M) = max(1 + alpha(M - N[p]), alpha(M - p)).  It runs on an explicit
stack, and its exact values are memoized by mask and shared by every call
on the same adjacency tuple.

The independent set returned is the first optimum in branching order: the
first maximum-size leaf, in depth-first order, of the tree that branches on
a maximum-degree vertex (lowest id on ties) with the include branch first.
``_mis_mask`` finds it by descent, and the engine's root choice ``min(MIS)``
depends on it.

Induced paths are decided before the depth-first search gives a witness.
P_t for t >= 4 is connected and co-connected, so it lies within one
component and one co-component: only prime pieces, which split neither
way, are searched (as in cograph recognition; Corneil, Perl and Stewart,
SIAM J. Comput. 1985).  An induced P5 a-b-c-d-e has b and d non-adjacent
neighbors of the centre c, a in N(b) - N[c] - N(d), e in N(d) - N[c] -
N(b), and a not adjacent to e.  Conversely any such five vertices form an
induced P5: the conditions fix every pair, and a != e as e is in N(d) and
a is not.  So a P5 is found by mask ANDs over a centre and a pair.

A P5 through two given vertices u and v is found by where they sit on
a-b-c-d-e.  Reversing the path maps {c,d} to {b,c}, {d,e} to {a,b}, {c,e}
to {a,c} and {b,e} to {a,d}, and maps {b,d} and {a,e} to themselves.  So
of the ten position pairs, six cases cover all: adjacent u, v at {b,c} or
{a,b}, non-adjacent ones at {a,c}, {a,d}, {b,d} or {a,e}, each in either
order.  Each case fixes two positions, tries every choice of two more
vertices and finds the fifth by one mask test; as the cases cover every
placement, a "no" is exact.

The induced K_{a,b} search grows its a-side depth first and drops a
branch once the branch's common neighborhood holds fewer than b candidates,
so a "no" need not enumerate every independent a-set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .graph import (
    Graph, VertexSet, cocomponent, component, is_independent, mask_of, members,
    neighborhood, pieces, vertex_set,
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
    kind "biclique": parts are the two sides (sorted); a K_{a,b} has sides of
    sizes a and b, which differ when a != b.
    kind "dk2" / "matching": parts are the edges of an induced matching.
    kind "substar": parts are ``(center,)`` and then one (mid, leaf) pair per
    ray of an induced once-subdivided star.
    """

    kind: str
    parts: tuple[tuple[int, ...], ...]

    def to_record(self) -> dict:
        return {"kind": self.kind, "parts": [list(p) for p in self.parts]}

    def size(self) -> int:
        if self.kind in (PATH, BICLIQUE):
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


def _shape(w: Witness) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The vertices a witness names and the edges they must induce.

    Raises ValueError or TypeError when the parts do not fit the kind.
    """
    parts = tuple(tuple(p) for p in w.parts)
    if not parts or not all(parts):
        raise ValueError("empty witness part")
    if w.kind == PATH:
        (seq,) = parts
        return seq, list(zip(seq, seq[1:]))
    if w.kind == BICLIQUE:
        a, b = parts
        return a + b, [(u, v) for u in a for v in b]
    if w.kind in (DK2, MATCHING) and all(len(e) == 2 for e in parts):
        return sum(parts, ()), list(parts)
    if w.kind == SUBSTAR:
        (center,), *rays = parts
        if rays and all(len(ray) == 2 for ray in rays):
            return (center,) + sum(rays, ()), [(center, mid) for mid, _ in rays] + rays
    raise ValueError(f"malformed {w.kind!r} witness")


def verify_witness(g: Graph, w: Witness) -> bool:
    """Check a witness against ``g``: distinct vertices inducing exactly its edges.

    Never raises; False is the failure signal (including malformed input).
    """
    try:
        vs, edges = _shape(w)
        mask = mask_of(g, vs)  # ValueError for a non-vertex
        want = dict.fromkeys(vs, 0)
        for u, v in edges:
            want[u] |= 1 << v
            want[v] |= 1 << u
    except (ValueError, TypeError):
        return False
    bits = g.adjacency_bits()
    return mask.bit_count() == len(vs) and all(bits[v] & mask == want[v] for v in vs)


# -- exact independent sets ------------------------------------------------

# The shared memo: an adjacency tuple and its alphas by mask.  Holding the
# tuple keeps its identity from passing to another object.
_slot: list = [(), {}]


def _memo(bits: Sequence[int]) -> dict[int, int]:
    """The shared memo of the tuple ``bits``; a list, which may change, gets a new one."""
    if type(bits) is not tuple:
        return {}
    held, memo = _slot  # one read, so another thread's swap cannot split it
    if held is not bits:
        memo = {}
        _slot[:] = bits, memo
    return memo


def _split(bits: Sequence[int], m: int) -> tuple[int, list[int], bool]:
    """alpha(m) as ``base`` plus the sum, or with ``join`` the max, over ``parts``."""
    base = 0
    todo = m
    while todo:  # take each vertex of degree at most one, and drop its neighbor
        low = todo & -todo
        todo ^= low
        nb = bits[low.bit_length() - 1] & m
        if low & m and not nb & (nb - 1):
            base += 1
            m ^= low | nb
            if nb:  # the neighbor's other neighbors lose a degree
                todo |= bits[nb.bit_length() - 1] & m
    parts = pieces(component, bits, m)
    if len(parts) > 1 or not m:
        return base, parts, False
    parts = pieces(cocomponent, bits, m)
    if len(parts) > 1:  # a single vertex adds 1, the least the max can be
        return base, [c for c in parts if c & (c - 1)], True
    p = max(members(m), key=lambda v: (bits[v] & m).bit_count())  # lowest id on ties
    return base, [m & ~bits[p], m ^ 1 << p], True  # p stays, isolated, in M - N(p)


def _alpha(bits: Sequence[int], mask: int, memo: dict[int, int]) -> int:
    """alpha of the masked subgraph; a mask waits on the stack for its parts."""
    if mask in memo:
        return memo[mask]
    plans: dict[int, tuple[int, list[int], bool]] = {}
    stack = [mask]
    while stack:
        m = stack[-1]
        if m in memo:
            stack.pop()
            continue
        if m not in plans:
            plans[m] = _split(bits, m)
        base, parts, join = plans[m]
        missing = [c for c in parts if c not in memo]
        if missing:
            stack += missing
        else:
            values = [memo[c] for c in parts]
            memo[m] = base + (max(values, default=1) if join else sum(values))
    return memo[mask]


def alpha(bits: Sequence[int], mask: int) -> int:
    """The independence number of the subgraph induced by ``mask``."""
    return _alpha(bits, mask, _memo(bits))


def _mis_mask(bits: Sequence[int], mask: int, floor: int = -1) -> int:
    """The first maximum independent set of the masked subgraph, as a bitmask.

    Returns -1 instead when alpha does not beat ``floor``.  The branching
    tree takes the vertices isolated within M, solves a disconnected M one
    component at a time, and otherwise branches on a maximum-degree vertex
    p (lowest id on ties), include branch first.  The include branch holds
    a maximum leaf exactly when 1 + alpha(M - N[p]) equals alpha(M), so the
    descent takes it then and the exclude branch otherwise, and ends at the
    first maximum leaf.  Two leaves of a union first differ where they
    differ in one component's tree, so the union's first maximum leaf is
    the union of its components' ones.  A co-component whose alpha is
    below alpha(M) is dropped: its pivots are all excluded, and their
    degrees shift every other degree alike, so the rest of the tree keeps
    its order.
    """
    memo = _memo(bits)
    a = _alpha(bits, mask, memo)
    if a <= floor:
        return -1
    out = 0
    todo = [(mask, a)]
    while todo:
        m, a = todo.pop()
        if a > 1:
            iso = m & ~neighborhood(bits, m)
            out |= iso
            m ^= iso
            a -= iso.bit_count()
        if a <= 1:  # nothing, or a clique: every degree ties, so p is the lowest
            out |= m & -m
            continue
        parts = pieces(component, bits, m)
        if len(parts) > 1:
            todo += [(c, _alpha(bits, c, memo)) for c in parts]
            continue
        parts = pieces(cocomponent, bits, m)
        keep = m
        if parts[1:]:  # the union of those that reach alpha(M); no single vertex does
            keep = sum(c for c in parts if c & (c - 1) and _alpha(bits, c, memo) == a)
        if keep != m:
            todo.append((keep, a))
            continue
        p = max(members(m), key=lambda v: (bits[v] & m).bit_count())  # lowest id on ties
        include = m & ~bits[p]  # p is isolated there, so the next round takes it
        todo.append((include, a) if _alpha(bits, include, memo) == a else (m ^ 1 << p, a))
    return out


def max_independent_set(g: Graph) -> VertexSet:
    """A maximum independent set, deterministic across runs."""
    return members(_mis_mask(g.adjacency_bits(), (1 << g.n) - 1))


def alpha_mask(g: Graph, mask: int) -> int:
    return alpha(g.adjacency_bits(), mask)


def alpha_exceeds(g: Graph, mask: int, k: int) -> bool:
    """Whether the masked subgraph has an independent set of more than ``k``."""
    return mask.bit_count() > k and alpha(g.adjacency_bits(), mask) > k


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

    Augmenting-path search, depth first on an explicit stack; the cover
    comes from the final alternating reachability layering, so
    |edges| == |cover| always holds.
    """
    xs, ys = vertex_set(x), vertex_set(y)
    if set(xs) & set(ys):
        raise ValueError("sides overlap")
    if not is_independent(g, xs):
        raise ValueError("side X is not independent")
    if not is_independent(g, ys):
        raise ValueError("side Y is not independent")
    bits, y_mask = g.adjacency_bits(), mask_of(g, ys)
    match_x: dict[int, int] = {}
    match_y: dict[int, int] = {}

    for root in xs:
        # x-vertices of the search path with their neighbors in Y (the untried
        # ones are those not seen yet), and the y-vertex each one but the last
        # was left through
        stack, via, seen = [(root, bits[root] & y_mask)], [], 0
        while stack:
            untried = stack[-1][1] & ~seen
            v = (untried & -untried).bit_length() - 1
            if v < 0:
                stack.pop()
                del via[-1:]
            elif v in match_y:
                seen |= 1 << v
                via.append(v)
                stack.append((match_y[v], bits[match_y[v]] & y_mask))
            else:  # augment: each x on the path takes the y it was left through
                for (u, _), w in zip(stack, via + [v]):
                    match_x[u] = w
                    match_y[w] = u
                break

    # Konig: alternate from unmatched X along non-matching then matching
    # edges.  A matched x is reached only through its partner, so the reach
    # in Y is all of N(reach_X) in Y, and each new y brings its partner.
    frontier = reach_x = sum(1 << u for u in xs if u not in match_x)
    reach_y = 0
    while frontier:
        new_y = neighborhood(bits, frontier) & y_mask & ~reach_y
        reach_y |= new_y
        frontier = sum(1 << match_y[v] for v in members(new_y) if v in match_y)
        reach_x |= frontier
    cover = members(mask_of(g, xs) & ~reach_x | reach_y)
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
    orientations are canonicalized by requiring first <= last endpoint.
    For t >= 4 the search runs only once ``_has_induced_path`` says yes.
    Exhaustive: returns None only if no induced P_t exists.
    """
    if t < 1:
        raise ValueError("path length must be >= 1")
    bits, full = g.adjacency_bits(), (1 << g.n) - 1
    if t >= 4 and not _has_induced_path(bits, t, full):
        return None
    return _induced_path_within(bits, t, full)


def _induced_path_within(bits: Sequence[int], t: int, mask: int) -> Optional[Witness]:
    """``find_induced_path``'s search with every vertex outside ``mask`` banned.

    Its result is the first induced P_t of the subgraph induced by ``mask``
    in that subgraph's own order, in host ids.  The comparison is ``<=`` so
    that t = 1 yields the least masked vertex; longer paths have distinct
    endpoints.
    """
    for start in members(mask):
        path = [start]
        if _grow_path(bits, path, ~mask | 1 << start, t - 1, lambda p: p[0] <= p[-1]):
            return path_witness(path)
    return None


def _has_induced_path(bits: Sequence[int], t: int, mask: int) -> bool:
    """Whether G[mask] has an induced P_t; for t >= 4 only prime pieces are searched."""
    if t < 4:
        return _induced_path_within(bits, t, mask) is not None
    todo = [mask]
    while todo:
        m = todo.pop()
        parts = pieces(component, bits, m)
        if len(parts) == 1:
            parts = pieces(cocomponent, bits, m)
        if len(parts) > 1:
            todo += [c for c in parts if c.bit_count() >= t]
        elif t == 5:
            if any(_centred_p5(bits, m, c) for c in members(m)):
                return True
        elif _induced_path_within(bits, t, m) is not None:
            return True
    return False


def _centred_p5(bits: Sequence[int], m: int, c: int) -> bool:
    """Whether G[m] has an induced P5 a-b-c-d-e centred at ``c``.

    Tries each pair {b, d} of non-adjacent neighbors of c once (see the
    module docstring).
    """
    near = bits[c] & m
    far = m & ~near & ~(1 << c)
    seen = 0
    for b in members(near):
        seen |= 1 << b
        ds = near & ~bits[b] & ~seen
        while ds:
            low = ds & -ds
            ds ^= low
            d = low.bit_length() - 1
            ends_a = bits[b] & far & ~bits[d]
            ends_e = bits[d] & far & ~bits[b]
            while ends_a and ends_e:
                a = ends_a & -ends_a
                ends_a ^= a
                if ends_e & ~bits[a.bit_length() - 1]:
                    return True
    return False


def _low(mask: int) -> int:
    """The least vertex of a non-empty mask."""
    return (mask & -mask).bit_length() - 1


def _p5_through(bits: Sequence[int], u: int, v: int) -> Optional[tuple]:
    """An induced P5 a-b-c-d-e holding ``u`` and ``v`` (u != v), or None.

    One loop per pair of cases of the module docstring, each case in both
    orders: x and y below are u and v in the order that the loop's current
    vertex decides.  Outside vertices are named by their path position.
    """
    nu, nv = bits[u], bits[v]
    out = ~(nu | nv)  # neither u nor v, nor next to either
    if nu >> v & 1:
        side = (nu ^ nv) & ~(1 << u | 1 << v)  # next to exactly one of u, v
        for p in members(side & nu):  # {b,c}: p-u-v-q and an end next to p or q
            for q in members(side & nv & ~bits[p]):
                e = (bits[p] ^ bits[q]) & out
                if e:
                    e = _low(e)
                    return (p, u, v, q, e) if bits[q] >> e & 1 else (e, p, u, v, q)
        for c in members(side):  # {a,b}: x-y-c-d-e with y next to c
            x, y = (v, u) if nu >> c & 1 else (u, v)
            for d in members(bits[c] & out):
                e = bits[d] & out & ~bits[c]
                if e:
                    return x, y, c, d, _low(e)
        return None
    for w in members(nu & nv):  # {a,c}: x-w-y-d-e, and {b,d}: d-y-w-x-e
        side = (nu ^ nv) & ~bits[w]
        for d in members(side):
            x, y = (v, u) if nu >> d & 1 else (u, v)
            e = bits[d] & out & ~bits[w]
            if e:
                return x, w, y, d, _low(e)
            e = side & bits[x] & ~bits[d]
            if e:
                return d, y, w, x, _low(e)
    for b in members(nu ^ nv):  # {a,d}: x-b-c-y-e, and {a,e}: x-b-c-d-y
        x, y = (u, v) if nu >> b & 1 else (v, u)
        rest = bits[y] & ~bits[x] & ~bits[b]
        for c in members(bits[b] & ~bits[x] & ~(1 << x)):
            at_d = bits[y] >> c & 1
            last = rest & ~bits[c] if at_d else rest & bits[c]
            if last:
                return (x, b, c, y, _low(last)) if at_d else (x, b, c, _low(last), y)
    return None


def path_through(bits: Sequence[int], t: int, u: int, v: int) -> Optional[Witness]:
    """An induced path on ``t`` vertices containing both ``u`` and ``v``, or None.

    ``bits`` are adjacency masks.  For t = 5 and u != v, ``_p5_through``
    tries u and v at each of the six position cases of the module
    docstring; its witness may differ from the search's.  Otherwise a first
    arm of k <= (t - 1) / 2 vertices is grown from ``u``, then the path is
    grown from ``u`` the other way to its full length.  Exhaustive: returns
    None only if no such path exists.
    """
    if t < 1:
        raise ValueError("path length must be >= 1")
    if t == 5 and u != v:
        found = _p5_through(bits, u, v)
        return path_witness(found) if found else None
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
    a-side is completed lexicographically, depth first, carrying the b-pool:
    the vertices outside the b-side's neighborhood that are adjacent to
    every a-vertex chosen so far.  The b-side is the first independent
    completion within the full a-side's pool.  A branch whose pool has fewer
    than the missing b-vertices is cut: each completion's pool is a subset
    of it, so the branch holds no witness, and the first witness is the one
    the uncut enumeration finds.
    """
    full = (1 << len(bits)) - 1
    grow_a, common_a, rim_b = full & ~side_a, full, side_b
    rest = side_a
    while rest:
        low = rest & -rest
        rest ^= low
        row = bits[low.bit_length() - 1]
        grow_a &= ~row
        common_a &= row
    rest = side_b
    while rest:
        low = rest & -rest
        rest ^= low
        row = bits[low.bit_length() - 1]
        grow_a &= row
        rim_b |= row
    return _grow_a_side(
        bits, b - side_b.bit_count(), side_b,
        a - side_a.bit_count(), grow_a, side_a, common_a & ~rim_b,
    )


def _grow_a_side(
    bits: Sequence[int], need_b: int, side_b: int,
    k: int, cands: int, chosen: int, pool: int,
) -> Optional[Witness]:
    """``_extend_biclique``'s depth-first search: ``k`` more a-vertices from
    ``cands`` next to ``chosen``, the b-side's ``need_b`` more from ``pool``.

    A module function, not a closure: a recursive closure holds itself in
    its own cell, a cycle only the cyclic collector frees.
    """
    if not k:
        whole_b = next(_independent_subsets(bits, need_b, pool, side_b), None)
        if whole_b is None:
            return None
        return Witness(BICLIQUE, (members(chosen), members(whole_b)))
    while cands.bit_count() >= k:
        low = cands & -cands
        cands ^= low
        nb = bits[low.bit_length() - 1]
        if (pool & nb).bit_count() >= need_b:
            got = _grow_a_side(
                bits, need_b, side_b, k - 1, cands & ~nb, chosen | low, pool & nb
            )
            if got is not None:
                return got
    return None


def find_induced_complete_bipartite(g: Graph, a: int, b: int) -> Optional[Witness]:
    """First induced K_{a,b}: independent sides complete to each other.

    The ``a``-side is enumerated lexicographically; the ``b``-side is the
    first independent b-subset of the common neighborhood.  A partial a-side
    whose common neighborhood has fewer than ``b`` vertices is not extended:
    no extension of it has more, so the witness is the first in that order.
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
            # leaf candidates per ray: private neighbors of each mid (the mids
            # lie in N(center), so the center's closed neighborhood bans them)
            pools = [
                bits[m] & ~(cn | 1 << center | neighborhood(bits, mid_mask ^ 1 << m))
                for m in mids
            ]
            if not all(pools):
                continue
            leaves: list[int] = []
            if _pick_leaves(bits, pools, leaves, 0):
                return center, tuple(zip(mids, leaves))
    return None


def _pick_leaves(
    bits: Sequence[int], pools: list[int], leaves: list[int], banned: int
) -> bool:
    """Complete ``leaves`` to one leaf per ray of ``pools``, depth first, each
    leaf outside ``banned`` and the closed neighborhoods of the earlier ones;
    False, with ``leaves`` as given, if no completion exists.

    A module function for the reason ``_grow_a_side`` gives.
    """
    i = len(leaves)
    if i == len(pools):
        return True
    options = pools[i] & ~banned
    while options:
        low = options & -options
        options ^= low
        leaves.append(low.bit_length() - 1)
        if _pick_leaves(bits, pools, leaves, banned | low | bits[leaves[-1]]):
            return True
        leaves.pop()
    return False
