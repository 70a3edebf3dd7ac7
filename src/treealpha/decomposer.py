"""Constructive tree-decomposition engine for P5-free graphs.

Given a graph with no induced 5-vertex path and a target ``ell``, the engine
either produces an induced balanced biclique K_{ell,ell} or builds a tree
decomposition whose every bag has independence number at most ``4*ell``.

The engine makes two passes over the input graph, always in its own vertex
ids.  The forward pass eliminates one root at a time: each root r is the
least vertex of a maximum independent set of the vertices not yet
eliminated.  Those vertices, r included, are the level of r.  The roots and
the independence number of each root's closed neighborhood in its level do
not depend on ell, so the forward pass runs once per graph and
``approximate_tia`` shares it across the ells.  At a given ell the levels
are accepted while that number stays below 2*ell, and the first level past
the bound yields the witness.  The backward pass starts from a
single bag holding the last vertex and adds the roots back in reverse order.
Adding r back restructures the decomposition of its level minus r until all
neighbors of r in the level share a bag, then hangs the bag N[r] (within the
level) off that bag as a new leaf.  The decomposition handed to each step
covers exactly the level minus r, so the level is read off its bags, and
every read of the graph in the restructuring stays inside it.

Each restructuring step, a plain-pair or a bad-pair surgery, builds its
master bags, hangs one copy of the tree per outside component off them
(``_append_copy``) and checks the result in one place.  It strictly grows the
set of co-bagged neighbor pairs, so the loop ends within (deg r choose 2)
rounds.  Every structural fact the surgery relies on is asserted at run time,
and a failed assertion refutes the caller's promise about the input with a
verified witness: the first induced P5 of the root's level (``_refute_p5``),
or the K_{ell,ell} between the two sides a biclique claim compares
(``_refute_biclique``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from heapq import heappop, heappush
from operator import and_, or_
from typing import Iterable, Iterator, Optional, Sequence, Union

from .graph import (
    Graph, VertexSet, component, components, is_complete_between, mask_of,
    members, pieces, vertex_set,
)
from .oracles import (
    BICLIQUE,
    ForbiddenStructureFound,
    Witness,
    _induced_path_within,
    _mis_mask,
    alpha,
    alpha_exceeds,
    alpha_of_subset,  # unused here; bench/selftest.py reads it through this module
    biclique_witness,
    find_induced_biclique,
    find_induced_path,
    max_independent_subset,
    verify_witness,
)
from .degeneracy import low_alpha_vertex
from .treedecomp import (
    TreeDecomposition,
    cobagged_pairs,
    compress,
    find_bag_containing_set,
    single_bag_decomposition,
    subtree_distance,
    td_alpha,
    td_alpha_exceeds,
    validate,
)


class DecompositionError(RuntimeError):
    """Internal inconsistency: a guaranteed step failed without a witness."""


# -- small helpers -----------------------------------------------------------


def _root_neighbors(g: Graph, r: int, td: TreeDecomposition) -> VertexSet:
    """The neighbors of root r in its level: those that ``td`` holds.

    ``td`` decomposes the level minus r, so this costs O(deg r).
    """
    return tuple(u for u in g.neighbors(r) if td.node_mask(u))


def _level(g: Graph, r: int, td: TreeDecomposition) -> tuple[set[int], VertexSet]:
    """The level of root r, and the neighbors of r in it.

    ``td`` decomposes the level minus r, so the level is read off its bags.
    Building it sorts the whole level: only the pair context and a pair
    search that found pairs read it.
    """
    return set(td.vertices()) | {r}, _root_neighbors(g, r, td)


def _nrbar(
    g: Graph, r: int, level: set[int], nr: VertexSet
) -> dict[int, set[int]]:
    """For each neighbor u of r, the neighbors of u in the level outside N[r]."""
    far = level.difference(nr, (r,))
    return {u: far.intersection(g.neighbors(u)) for u in nr}


def _rim(g: Graph, comp: VertexSet, level: set[int]) -> set[int]:
    """Neighbors of the vertex set ``comp`` in the level, outside comp."""
    inside = set(comp)
    return {
        u for c in comp for u in g.neighbors(c) if u in level and u not in inside
    }


def _raise_with_witness(g: Graph, w: Witness, msg: str) -> None:
    if not verify_witness(g, w):
        raise DecompositionError(f"{msg}; extracted witness failed verification")
    raise ForbiddenStructureFound(w, msg)


def _check_p5_free(g: Graph) -> None:
    """Refute the input's P5-freeness promise with its first induced P5, if any."""
    w = find_induced_path(g, 5)
    if w is not None:
        _raise_with_witness(g, w, "input contains an induced P5")


def _refute_p5(g: Graph, level: set[int], msg: str) -> None:
    """Refute a failed P5 claim with the first induced P5 of G[level].

    Every claim the surgeries make about a pair context holds unless the
    level, which holds all the vertices the claim speaks of, contains an
    induced P5; finding none there is an internal bug.
    """
    w = _induced_path_within(g.adjacency_bits(), 5, mask_of(g, level))
    if w is None:
        raise DecompositionError(f"{msg}; the level has no induced P5 (internal bug)")
    _raise_with_witness(g, w, msg)


def _refute_biclique(g: Graph, a: set[int], b: set[int], ell: int, msg: str) -> None:
    """Refute a failed biclique claim with a K_{ell,ell} between ``a`` and ``b``.

    The claim has checked the sides disjoint and complete to each other; each
    side gives the first ell vertices of its first maximum independent set.
    """
    side_a = max_independent_subset(g, a)[:ell]
    side_b = max_independent_subset(g, b)[:ell]
    if min(len(side_a), len(side_b)) < ell:
        raise DecompositionError(
            f"{msg}; a side has no {ell} independent vertices (internal bug)"
        )
    _raise_with_witness(g, biclique_witness(side_a, side_b), msg)


def _postcondition_failure(g: Graph, ell: int, msg: str) -> None:
    """Diagnose a failed surgery postcondition: hunt for the broken promise.

    Searches all of ``g``, not only the level: any induced P5 or K_{ell,ell}
    of the input refutes the promise.
    """
    w = find_induced_path(g, 5)
    if w is not None:
        _raise_with_witness(g, w, f"{msg}; input contains an induced P5")
    w = find_induced_biclique(g, ell)
    if w is not None:
        _raise_with_witness(g, w, f"{msg}; input contains an induced biclique")
    raise DecompositionError(f"{msg}; no forbidden structure found (internal bug)")


# -- pair context -------------------------------------------------------------


@dataclass
class PairContext:
    """Everything the surgeries need about a root r and pair (x, y).

    All vertex sets use the host graph's ids and lie inside ``level``, the
    vertices not yet eliminated when r was chosen; ``td`` decomposes the level
    minus r.  ``nrbar`` maps each neighbor u of r in the level to the
    neighbors of u in the level outside N[r].  Construction asserts the
    structural facts the surgeries rely on, converting any failure into a
    witness.
    """

    g: Graph
    root: int
    td: TreeDecomposition
    x: int
    y: int
    ell: int
    bad: bool = field(init=False)
    level: set[int] = field(init=False)
    nrbar: dict[int, set[int]] = field(init=False)
    m: set[int] = field(init=False)
    u_all: set[int] = field(init=False)
    u0: set[int] = field(init=False)
    ux: set[int] = field(init=False)
    uy: set[int] = field(init=False)
    uxy: set[int] = field(init=False)
    w_x: set[int] = field(init=False)
    w_y: set[int] = field(init=False)
    w_xy: set[int] = field(init=False)
    movable: set[int] = field(init=False)
    comps: tuple[VertexSet, ...] = field(init=False)
    t_x: int = field(init=False)
    t_y: int = field(init=False)
    path_xy: tuple[int, ...] = field(init=False)


def build_pair_context(
    g: Graph, r: int, td: TreeDecomposition, x: int, y: int, ell: int
) -> PairContext:
    """Populate and check the derived sets for root ``r`` and pair (x, y).

    Preconditions: x, y are distinct neighbors of r not sharing a bag of
    ``td``.  Raises ForbiddenStructureFound with a verified witness when a
    structural assertion fails, which refutes the P5-free / biclique-free
    promise on the input.
    """
    ctx = PairContext(g=g, root=r, td=td, x=x, y=y, ell=ell)
    ctx.level, nr = _level(g, r, td)
    if x not in nr or y not in nr or x == y:
        raise ValueError("x and y must be distinct neighbors of the root")
    if td.node_mask(x) & td.node_mask(y):
        raise ValueError("pair is already co-bagged")
    if g.adjacent(x, y):
        raise DecompositionError("co-bag pair is adjacent but shares no bag")

    ctx.nrbar = _nrbar(g, r, ctx.level, nr)
    nrx, nry = ctx.nrbar[x], ctx.nrbar[y]
    ctx.m = set(nr) | nrx | nry
    ctx.u_all = {u for u in nr if ctx.nrbar[u] - (nrx | nry)}
    ctx.u0 = {u for u in ctx.u_all if not g.adjacent(u, x) and not g.adjacent(u, y)}
    ctx.ux = {u for u in ctx.u_all if g.adjacent(u, x) and not g.adjacent(u, y)}
    ctx.uy = {u for u in ctx.u_all if g.adjacent(u, y) and not g.adjacent(u, x)}
    ctx.uxy = {u for u in ctx.u_all if g.adjacent(u, x) and g.adjacent(u, y)}
    ctx.w_x = nrx - nry
    ctx.w_y = nry - nrx
    ctx.w_xy = nrx & nry
    ctx.bad = alpha_exceeds(g, mask_of(g, ctx.w_x), ell - 1)
    ctx.comps = tuple(components(g, ctx.level - ctx.m - {r}))
    path = td.path_between_subtrees(x, y)
    ctx.t_x, ctx.t_y = path[0], path[-1]
    ctx.path_xy = path
    ctx.movable = {
        u
        for u in ctx.u_all
        if (nrx - ctx.nrbar[u]) <= nry
        and not alpha_exceeds(g, mask_of(g, nrx - ctx.nrbar[u]), ell - 1)
    }

    _assert_component_structure(ctx)
    if ctx.bad:
        _assert_bad_pair_structure(ctx)
    return ctx


def _assert_component_structure(ctx: PairContext) -> None:
    """Component neighborhoods: inside U or the common outside set, and
    components complete to their one-sided attachments."""
    g, level = ctx.g, ctx.level
    for comp in ctx.comps:
        nc = _rim(g, comp, level)
        if stray := nc - ctx.u_all - ctx.w_xy:
            # comp is a component of the level minus M and r, and M holds
            # N(r), so the rim lies in M.  A rim vertex in N(r) sees comp,
            # which lies outside N[r] and M, so it is in U.  So a stray
            # vertex is in M - N(r) - W_xy: in W_x or in W_y.
            if min(stray) in ctx.w_x:
                _refute_p5(g, level, "component touches a private neighbor of x")
            _refute_p5(g, level, "component touches a private neighbor of y")
        if not is_complete_between(g, nc & (ctx.u0 | ctx.ux | ctx.uy), comp):
            _refute_p5(g, level, "component not complete to a one-sided attachment")


def _assert_bad_pair_structure(ctx: PairContext) -> None:
    """The completeness web around a bad pair, plus the movability claims."""
    g, level, ell = ctx.g, ctx.level, ctx.ell
    if not is_complete_between(g, ctx.w_x, ctx.w_y):
        _refute_p5(
            g, level, "private sides of a bad pair are not complete to each other"
        )
    if alpha_exceeds(g, mask_of(g, ctx.w_y), ell - 1):
        _refute_biclique(
            g, ctx.w_x, ctx.w_y, ell, "both private sides have large independent sets"
        )
    if not is_complete_between(g, ctx.ux, ctx.uy):
        _refute_p5(g, level, "one-sided attachments of x and y are not complete")
    if not is_complete_between(g, ctx.u0 | ctx.uy, ctx.w_x):
        _refute_p5(g, level, "outward neighbor of r misses a private neighbor of x")
    if not is_complete_between(g, ctx.u0 | ctx.ux, ctx.w_y):
        _refute_p5(g, level, "outward neighbor of r misses a private neighbor of y")
    for comp in ctx.comps:
        if not is_complete_between(g, _rim(g, comp, level) & ctx.w_xy, comp):
            _refute_p5(
                g, level, "component not complete to its common-side attachment"
            )
    # movability claims
    for u0 in sorted(ctx.u0 - ctx.movable):
        s = ctx.w_xy - ctx.nrbar[u0]
        if not is_complete_between(g, ctx.w_x, s):
            _refute_p5(g, level, "isolated-attachment vertex is not movable")
        _refute_biclique(
            g, ctx.w_x, s, ell, "isolated-attachment vertex is not movable"
        )
    for u_y in sorted(ctx.uy):
        if u_y not in ctx.movable and not ctx.td.node_mask(u_y) >> ctx.t_y & 1:
            raise DecompositionError(
                f"y-side attachment {u_y} neither movable nor anchored; "
                "the pair was not selected at maximum subtree distance"
            )


# -- pair selection -----------------------------------------------------------


def enumerate_uncobagged_pairs(
    g: Graph, r: int, td: TreeDecomposition
) -> list[tuple[int, int]]:
    """Ordered pairs of neighbors of r not sharing any bag, lexicographic.

    Only neighbors in the level count: those ``td`` holds.
    """
    held = [(v, td.node_mask(v)) for v in _root_neighbors(g, r, td)]
    out: list[tuple[int, int]] = []
    for x, mx in held:
        for y, my in held:
            if x == y or mx & my:
                continue
            if g.adjacent(x, y):
                raise DecompositionError(
                    f"adjacent pair {x},{y} shares no bag; decomposition invalid"
                )
            out.append((x, y))
    return out


def select_pair(
    g: Graph, r: int, td: TreeDecomposition, ell: int
) -> Optional[tuple[int, int, bool]]:
    """The pair to merge next: bad pairs first, then maximum subtree distance.

    Bad means the private outside-neighborhood of x away from y holds an
    independent set of size ``ell``.  Ties break lexicographically.  The
    level is the OR of the bag masks plus r, and each outside-neighborhood
    is one AND with it.  A distance depends only on T(x) and T(y), so it is
    computed once per pair of subtrees; the pairs come in lexicographic
    order, so the first one at the largest distance is the choice.
    """
    pairs = enumerate_uncobagged_pairs(g, r, td)
    if not pairs:
        return None
    bits = g.adjacency_bits()
    level = reduce(or_, td.bag_masks, 1 << r)
    far = level & ~bits[r] & ~(1 << r)
    nrbar = {u: bits[u] & far for u in members(bits[r] & level)}
    bads = [
        (x, y) for x, y in pairs
        if alpha_exceeds(g, nrbar[x] & ~nrbar[y], ell - 1)
    ]
    best, most = pairs[0], -1
    dist: dict[tuple[int, int], int] = {}
    for x, y in bads or pairs:
        mx, my = td.node_mask(x), td.node_mask(y)
        key = (mx, my) if mx < my else (my, mx)
        if (d := dist.get(key)) is None:
            d = dist[key] = subtree_distance(td, x, y)
        if d > most:
            best, most = (x, y), d
    return *best, bool(bads)


# -- the two surgeries --------------------------------------------------------


def transform_plain_pair(ctx: PairContext) -> TreeDecomposition:
    """Restructure so x and y share a bag, when no bad pair exists.

    A master copy keeps the bags restricted to the r/x/y neighborhood set M;
    outward attachments are re-homed to span both anchor nodes, x flows
    along the anchor path, and each outside component gets its own copy of
    the tree carrying its local bags.  Apart from validity, the result keeps
    every co-bagged neighbor pair of r and adds (x, y).
    """
    g, td = ctx.g, ctx.td
    if ctx.bad:
        raise ValueError("plain transform requires a non-bad pair")
    m = mask_of(g, ctx.m)
    bags = [b & m for b in td.bag_masks]
    for u in ctx.u_all:
        span = td.subtree(u)
        for a in (ctx.t_x, ctx.t_y):
            if a not in span:
                span += td.path_between((a,), span)
        for t in span:
            bags[t] |= 1 << u
    for t in ctx.path_xy:
        bags[t] |= 1 << ctx.x

    edges: list[tuple[int, int]] = list(td.edges)
    add_free = ctx.u_all - ctx.uxy
    for comp in ctx.comps:
        rim = _rim(g, comp, ctx.level)
        _append_copy(g, td, bags, edges, rim.union(comp), rim & add_free, ctx.t_y, ctx.t_y)
    out = TreeDecomposition.from_masks(tuple(edges), bags)
    return _check_surgery_output(ctx, out, "plain-pair surgery")


def transform_bad_pair(ctx: PairContext) -> TreeDecomposition:
    """Restructure so a bad pair x, y shares a bag.

    Outward attachments cannot move freely here, so only the movable ones
    spread to every master bag; the y-side stragglers ride the anchor path.
    Outside vertices whose master neighborhoods end up split across bags are
    pulled into the master tree along the unique minimal node set meeting
    all their attachment subtrees; what remains of each component hangs off
    the master at a single anchor node computed per component.
    """
    g, td, ell = ctx.g, ctx.td, ctx.ell
    if not ctx.bad:
        raise ValueError("bad-pair transform requires a bad pair")
    k = td.node_count
    r = ctx.root

    # intermediate master bags.  Each T(a), a in M, stays connected, as the
    # Helly errors below need: ``td`` is valid, the movable fill every bag, and
    # the anchor path meets T(x) at t_x and each y-side straggler's T at t_y.
    m, movable = mask_of(g, ctx.m), mask_of(g, ctx.movable)
    bags = [b & m | movable for b in td.bag_masks]
    ride_along = 1 << ctx.x | mask_of(g, ctx.uy - ctx.movable)
    for t in ctx.path_xy:
        bags[t] |= ride_along

    # pull split outside vertices into the master
    master = TreeDecomposition.from_masks(td.edges, bags)
    parent, below = _rooted_masks(td)
    pulled: set[int] = set()
    for c in sorted(ctx.level - ctx.m - {r}):
        marks = [master.node_mask(a) for a in g.neighbors(c) if a in ctx.m]
        if not marks or reduce(and_, marks):  # none, or one master bag holds all
            continue
        for t in _forced_nodes(td, parent, below, marks):
            bags[t] |= 1 << c
        pulled.add(c)

    # anchor node per original outside component, by vertex
    master = TreeDecomposition.from_masks(td.edges, bags)
    anchor_of: dict[int, int] = {}
    for comp in ctx.comps:
        key = sorted(_rim(g, comp, ctx.level) - ctx.uxy)
        fit = reduce(and_, map(master.node_mask, key), (1 << k) - 1)
        if fit:
            t_c = min(members(fit), key=lambda t: (len(td.tree_path(ctx.t_x, t)), t))
        else:
            t_c = _split_anchor(master, key)
        missing = [v for v in comp if v in pulled and not bags[t_c] >> v & 1]
        if missing:
            _postcondition_failure(
                g, ell, f"pulled vertices {missing} missed their anchor bag"
            )
        for d in sorted(set(comp) - pulled):
            for a in g.neighbors(d):
                if a in ctx.m and not bags[t_c] >> a & 1:
                    _postcondition_failure(
                        g, ell,
                        f"attachment {a} of a remaining outside vertex {d} "
                        "missed the anchor bag",
                    )
        anchor_of.update(dict.fromkeys(comp, t_c))

    edges: list[tuple[int, int]] = list(td.edges)
    rest = sorted(ctx.level - ctx.m - pulled - {r})
    for dcomp in components(g, rest):
        rim = _rim(g, dcomp, ctx.level)
        anchor = anchor_of[dcomp[0]]
        _append_copy(g, td, bags, edges, rim.union(dcomp), rim - ctx.uxy, anchor, ctx.t_x)
    out = TreeDecomposition.from_masks(tuple(edges), bags)
    return _check_surgery_output(ctx, out, "bad-pair surgery")


def _append_copy(
    g: Graph, td: TreeDecomposition, bags: list[int], edges: list[tuple[int, int]],
    keep: set[int], spread: set[int], anchor: int, at: int,
) -> None:
    """Append an outside component's copy of ``td`` to ``bags`` and ``edges``.

    Each bag mask is cut to ``keep`` (the component and its rim) plus
    ``spread``, and the copy's node ``at`` is joined to master node ``anchor``.
    """
    offset, keep, spread = len(bags), mask_of(g, keep), mask_of(g, spread)
    bags.extend(b & keep | spread for b in td.bag_masks)
    edges.extend((a + offset, b + offset) for a, b in td.edges)
    edges.append((anchor, offset + at))


def _rooted_masks(td: TreeDecomposition) -> tuple[Sequence[int], list[int]]:
    """Parents (-1 at the root) and descendant node masks of ``td.rooted``.

    Each node's mask is ORed into its parent's in reverse visit order.
    """
    parent, _, order = td.rooted
    below = [1 << t for t in range(td.node_count)]
    for t in reversed(order[1:]):
        below[parent[t]] |= below[t]
    return parent, below


def _forced_nodes(
    td: TreeDecomposition, parent: Sequence[int], below: list[int], marks: list[int]
) -> set[int]:
    """Nodes of every tree edge separating two attachment subtrees entirely.

    This is the unique minimum connected node set meeting all the given
    subtrees when they have no common node.
    """
    out: set[int] = set()
    for child in range(td.node_count):
        p = parent[child]
        if p < 0:
            continue
        side = below[child]
        if any(sm & ~side == 0 for sm in marks) and any(
            sm & side == 0 for sm in marks
        ):
            out.add(child)
            out.add(p)
    if not out:
        # Unreached for connected marks: with no common node, two of them are
        # disjoint (Helly property of subtrees of a tree), and the first edge
        # of the shortest node path between those two separates them.
        raise DecompositionError("split neighborhood without a separating edge")
    return out


def _split_anchor(master: TreeDecomposition, key: list[int]) -> int:
    """Anchor for a component whose attachments fit no single master bag."""
    for i, a in enumerate(key):
        for b in key[i + 1 :]:
            if not master.node_mask(a) & master.node_mask(b):
                return min(master.path_between_subtrees(a, b))
    # Unreached for connected T(a): subtrees of a tree that pairwise meet
    # share a node (Helly), and the caller found no node common to all.
    raise DecompositionError("attachments pairwise meet yet fit no bag")


def _check_surgery_output(
    ctx: PairContext, out: TreeDecomposition, label: str
) -> TreeDecomposition:
    """``out``, once it is checked valid, within the bag bound and co-bagging x, y."""
    g, ell, r = ctx.g, ctx.ell, ctx.root
    problems = validate(g, out, ctx.level - {r})
    if problems:
        _postcondition_failure(g, ell, f"{label} broke validity: {problems[:3]}")
    if td_alpha_exceeds(g, out, 4 * ell):
        _postcondition_failure(g, ell, f"{label} exceeded the 4*ell bag bound")
    if not out.node_mask(ctx.x) & out.node_mask(ctx.y):
        raise DecompositionError(f"{label} failed to co-bag the chosen pair")
    return out


# -- the saturation loop and the full pipeline --------------------------------


def saturate_root(
    g: Graph,
    r: int,
    td: TreeDecomposition,
    ell: int,
    log: Optional[list] = None,
) -> TreeDecomposition:
    """Restructure until every pair of neighbors of r in its level shares a bag.

    ``td`` decomposes the level of r minus r.  Each round merges the
    selected pair (the surgery's check raises unless x and y then share a
    bag) and compresses; the round's co-bagged pairs, checked to grow
    strictly in the surgery and to survive compression, are the next round's
    start.  So they grow every round, and since they are drawn from the
    C(d, 2) pairs of N(r), d = deg r, the loop ends within C(d, 2) rounds;
    with d < 2 there is no pair, and no round.
    """
    nr = _root_neighbors(g, r, td)
    entry = {"root": r, "degree": len(nr), "iterations": 0, "pairs": []}
    before = None
    while len(nr) > 1 and (sel := select_pair(g, r, td, ell)) is not None:
        x, y, bad = sel
        if before is None:
            before = cobagged_pairs(td, nr)
        ctx = build_pair_context(g, r, td, x, y, ell)
        new_td = transform_bad_pair(ctx) if bad else transform_plain_pair(ctx)
        after = cobagged_pairs(new_td, nr)
        if not before < after:
            raise DecompositionError(
                "surgery did not strictly grow the co-bagged pairs"
            )
        td = compress(new_td)
        before = cobagged_pairs(td, nr)
        if before != after:
            raise DecompositionError("compression changed the co-bagged pairs")
        entry["iterations"] += 1
        entry["pairs"].append((x, y, bad, "bad" if bad else "plain"))
    if log is not None:
        log.append(entry)
    return td


def _elimination_order(g: Graph) -> Iterator[tuple[int, int]]:
    """The forward pass: roots r_1, ..., r_{n-1} with a_i = alpha(N[r_i]).

    Level i is the set of vertices not yet eliminated, and a_i is taken
    within it.  r_i is the least vertex of the level's first maximum
    independent set, as ``low_alpha_vertex`` picks it, so neither depends on
    ell.  That set is the union of the first optima of the level's
    components (see ``_mis_mask``), so each component is solved once, when
    it appears.  Removing r from its component C re-solves only the
    components D of C - r.  The optimum I_C of C leaves |I_C & D| vertices in
    D, so D's search runs with that floor less one and still returns D's
    first optimum.
    """
    bits = g.adjacency_bits()
    # (least vertex of the optimum, component, its first optimum); the
    # least vertices are distinct, so the top is the next root's component.
    heap: list[tuple[int, int, int]] = []

    def split(rest: int, optimum: int) -> None:
        for comp in pieces(component, bits, rest):
            best = _mis_mask(bits, comp, (optimum & comp).bit_count() - 1)
            if best < 0:  # -1 would put a false root on the heap, never ending the loop
                raise DecompositionError("component optimum missed its floor")
            heappush(heap, ((best & -best).bit_length() - 1, comp, best))

    alive = (1 << g.n) - 1
    split(alive, 0)
    while alive & (alive - 1):
        r, comp, best = heappop(heap)
        bit = 1 << r
        yield r, alpha(bits, (bits[r] | bit) & alive)
        alive ^= bit
        split(comp ^ bit, best ^ bit)


def _decompose_levels(
    g: Graph,
    ell: int,
    levels: Iterable[tuple[int, int]],
    log: Optional[list],
) -> Union[Witness, TreeDecomposition]:
    """``decompose`` at ``ell`` from the forward pass's ``levels``.

    The roots are accepted while alpha(N[r_i]) < 2*ell.  The first level
    past the bound runs ``low_alpha_vertex``'s extraction on that level, so
    its witness (or the exception raised) is the per-level search's own.
    """
    alive = (1 << g.n) - 1
    roots: list[int] = []
    for r, a in levels:
        if a >= 2 * ell:
            report = low_alpha_vertex(g, ell, 2, within=members(alive))
            if report.witness is None:
                raise DecompositionError(
                    f"low_alpha_vertex accepted the level of root {r}, "
                    f"where the forward pass found alpha {a}"
                )
            if report.witness.kind == BICLIQUE:
                return report.witness
            raise ForbiddenStructureFound(
                report.witness, "input contains an induced P5"
            )
        roots.append(r)
        alive ^= 1 << r
    td = single_bag_decomposition(members(alive))
    for r in reversed(roots):
        try:
            td = saturate_root(g, r, td, ell, log)
        except ForbiddenStructureFound as exc:
            if exc.witness.kind == BICLIQUE:
                return exc.witness
            raise
        nr = _root_neighbors(g, r, td)
        t = find_bag_containing_set(td, nr)
        if t is None:
            raise DecompositionError(
                "no bag holds all neighbors of the root after saturation"
            )
        td = td.with_leaf(t, vertex_set(nr + (r,)))
    problems = validate(g, td)
    if problems:
        raise DecompositionError(f"final decomposition invalid: {problems[:3]}")
    if td_alpha_exceeds(g, td, 4 * ell):
        raise DecompositionError("final decomposition exceeds the bag bound")
    return td


def decompose(
    g: Graph,
    ell: int,
    check_p5: bool = True,
    log: Optional[list] = None,
) -> Union[Witness, TreeDecomposition]:
    """An induced K_{ell,ell}, or a tree decomposition with bag alpha <= 4*ell.

    Raises ForbiddenStructureFound if the graph contains an induced
    5-vertex path (checked up front when ``check_p5`` is set, and whenever
    an internal assertion uncovers one).  The forward pass picks the roots,
    the backward pass adds them back; see the module docstring.  The forward
    pass runs only up to the first level it rejects at ``ell``.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if check_p5:
        _check_p5_free(g)
    return _decompose_levels(g, ell, _elimination_order(g), log)


def approximate_tia(
    g: Graph, log: Optional[list] = None
) -> tuple[int, TreeDecomposition, int]:
    """Constant-factor approximation of the tree-independence number.

    Runs the engine for ell = 2, 3, ... and stops at the first decomposition
    outcome.  The forward pass runs once and every ell reuses its roots.
    Returns (bag independence k*, the decomposition, ell*); the sandwich
    ell*-1 <= tree-alpha <= k* <= 4*ell* holds for P5-free inputs.
    """
    _check_p5_free(g)
    if g.edge_count == 0:
        if g.n == 0:
            return 0, single_bag_decomposition(()), 1
        bags = tuple((v,) for v in range(g.n))
        edges = tuple((i, i + 1) for i in range(g.n - 1))
        return 1, TreeDecomposition(edges, bags), 1
    levels = list(_elimination_order(g))
    ell = 2
    while True:
        got = _decompose_levels(g, ell, levels, log)
        if isinstance(got, TreeDecomposition):
            return td_alpha(g, got), got, ell
        ell += 1
        if ell > g.n // 2 + 1:
            raise DecompositionError("no decomposition up to the biclique limit")
