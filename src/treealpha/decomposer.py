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
(``_append_copy``) and checks the result in one place.  Its node t keeps bag
t's neighbors of r and a new pair shares a bag, so it strictly grows the set
of co-bagged neighbor pairs, which ``compress`` keeps, and the loop ends
within (deg r choose 2) rounds.  Every structural fact the surgery relies on
is asserted at run time, and a failed assertion refutes the caller's promise
about the input with a verified witness: the first induced P5 of the root's
level (``_refute_p5``), or the K_{ell,ell} between the two sides a biclique
claim compares (``_refute_biclique``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from heapq import heappop, heappush
from operator import and_
from typing import Iterable, Iterator, Optional, Sequence, Union

from .graph import (
    Graph, VertexSet, complete_between, component, mask_of, members,
    neighborhood, pieces,
)
from .oracles import (
    BICLIQUE, ForbiddenStructureFound, Witness, _induced_path_within, _mis_mask,
    alpha, alpha_exceeds, biclique_witness, find_induced_biclique,
    find_induced_path, max_independent_subset, verify_witness,
    alpha_of_subset,  # unused here; bench/selftest.py reads it through this module
)
from .degeneracy import low_alpha_vertex
from .treedecomp import (
    TreeDecomposition, compress, find_bag_containing_set, node_masks,
    single_bag_decomposition, subtree_distance, td_alpha, td_alpha_exceeds, validate,
)


class DecompositionError(RuntimeError):
    """Internal inconsistency: a guaranteed step failed without a witness."""


# -- small helpers -----------------------------------------------------------


def _root_neighbors(g: Graph, r: int, td: TreeDecomposition) -> VertexSet:
    """The neighbors of root r in its level, which ``td`` decomposes minus r."""
    return members(g.neighbor_bits(r) & td.vertex_mask)


def _level(g: Graph, r: int, td: TreeDecomposition) -> tuple[set[int], VertexSet]:
    """The level of root r as a set, and the neighbors of r in it: views of
    the level mask ``td.vertex_mask | 1 << r``, which the engine reads."""
    return set(members(td.vertex_mask | 1 << r)), _root_neighbors(g, r, td)


def _nrbar_rows(
    bits: Sequence[int], r: int, level: int, nr: Iterable[int]
) -> dict[int, int]:
    """For each neighbor u of r, the mask of u's neighbors in the level outside N[r]."""
    far = level & ~bits[r] & ~(1 << r)
    return {u: bits[u] & far for u in nr}


def _nrbar(g: Graph, r: int, level: set[int], nr: VertexSet) -> dict[int, set[int]]:
    """``_nrbar_rows`` as sets, for a level given as a set."""
    rows = _nrbar_rows(g.adjacency_bits(), r, mask_of(g, level), nr)
    return {u: set(members(row)) for u, row in rows.items()}


def _rim(g: Graph, comp: VertexSet, level: set[int]) -> set[int]:
    """Neighbors of ``comp`` in the level, outside comp; the engine's rim, as sets."""
    inside = mask_of(g, comp)
    rim = neighborhood(g.adjacency_bits(), inside) & mask_of(g, level) & ~inside
    return set(members(rim))


def _raise_with_witness(g: Graph, w: Witness, msg: str) -> None:
    if not verify_witness(g, w):
        raise DecompositionError(f"{msg}; extracted witness failed verification")
    raise ForbiddenStructureFound(w, msg)


def _check_p5_free(g: Graph) -> None:
    """Refute the input's P5-freeness promise with its first induced P5, if any."""
    w = find_induced_path(g, 5)
    if w is not None:
        _raise_with_witness(g, w, "input contains an induced P5")


def _refute_p5(g: Graph, level: int, msg: str) -> None:
    """Refute a failed P5 claim with the first induced P5 of G[level].

    Every claim the surgeries make about a pair context holds unless the
    level (a vertex mask), which holds all the vertices the claim speaks of,
    contains an induced P5; finding none there is an internal bug.
    """
    w = _induced_path_within(g.adjacency_bits(), 5, level)
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


def _set_view(name: str) -> property:
    """A set view of the mask field ``name``; assigning a set stores its mask."""
    return property(
        lambda ctx: set(members(getattr(ctx, name))),
        lambda ctx, vertices: setattr(ctx, name, mask_of(ctx.g, vertices)),
    )


@dataclass
class PairContext:
    """Everything the surgeries need about a root r and pair (x, y).

    All vertex sets use the host graph's ids and lie inside ``level``, the
    vertices not yet eliminated when r was chosen; ``td`` decomposes the level
    minus r.  ``nrbar`` maps each neighbor u of r in the level to the
    neighbors of u in the level outside N[r].  Construction asserts the
    structural facts the surgeries rely on, converting any failure into a
    witness.  It is held as vertex masks, the ``*_bits`` fields, which the
    checks and the surgeries read; the sets, ``nrbar`` and ``comps`` are
    views of them, built on each read.
    """

    g: Graph
    root: int
    td: TreeDecomposition
    x: int
    y: int
    ell: int
    bad: bool = field(init=False)
    level_bits: int = field(init=False)
    nrbar_bits: dict[int, int] = field(init=False)
    m_bits: int = field(init=False)
    u_all_bits: int = field(init=False)
    u0_bits: int = field(init=False)
    ux_bits: int = field(init=False)
    uy_bits: int = field(init=False)
    uxy_bits: int = field(init=False)
    w_x_bits: int = field(init=False)
    w_y_bits: int = field(init=False)
    w_xy_bits: int = field(init=False)
    movable_bits: int = field(init=False)
    comp_bits: tuple[int, ...] = field(init=False)
    rim_bits: tuple[int, ...] = field(init=False)
    t_x: int = field(init=False)
    t_y: int = field(init=False)
    path_xy: tuple[int, ...] = field(init=False)

    level = _set_view("level_bits")
    m = _set_view("m_bits")
    u_all = _set_view("u_all_bits")
    u0 = _set_view("u0_bits")
    ux = _set_view("ux_bits")
    uy = _set_view("uy_bits")
    uxy = _set_view("uxy_bits")
    w_x = _set_view("w_x_bits")
    w_y = _set_view("w_y_bits")
    w_xy = _set_view("w_xy_bits")
    movable = _set_view("movable_bits")
    nrbar = property(lambda ctx: {u: set(members(b)) for u, b in ctx.nrbar_bits.items()})
    comps = property(lambda ctx: tuple(map(members, ctx.comp_bits)))


def build_pair_context(
    g: Graph, r: int, td: TreeDecomposition, x: int, y: int, ell: int
) -> PairContext:
    """Populate and check the derived sets for root ``r`` and pair (x, y).

    Preconditions: x, y are distinct neighbors of r not sharing a bag of
    ``td``.  Raises ForbiddenStructureFound with a verified witness when a
    structural assertion fails, which refutes the P5-free / biclique-free
    promise on the input.  U's four classes are its ANDs with the rows of x
    and y.
    """
    ctx = PairContext(g=g, root=r, td=td, x=x, y=y, ell=ell)
    ctx.level_bits = level = td.vertex_mask | 1 << r
    nr_bits = g.neighbor_bits(r) & level
    nr = members(nr_bits)
    if x not in nr or y not in nr or x == y:
        raise ValueError("x and y must be distinct neighbors of the root")
    if td.node_mask(x) & td.node_mask(y):
        raise ValueError("pair is already co-bagged")
    bits = g.adjacency_bits()
    bx, by = bits[x], bits[y]
    if bx >> y & 1:
        raise DecompositionError("co-bag pair is adjacent but shares no bag")

    rows = ctx.nrbar_bits = _nrbar_rows(bits, r, level, nr)
    nrx, nry = rows[x], rows[y]
    ctx.m_bits = m = nr_bits | nrx | nry
    ctx.u_all_bits = u = sum(1 << v for v in nr if rows[v] & ~(nrx | nry))
    ctx.u0_bits, ctx.uxy_bits = u & ~(bx | by), u & bx & by
    ctx.ux_bits, ctx.uy_bits = u & bx & ~by, u & by & ~bx
    ctx.w_x_bits, ctx.w_y_bits, ctx.w_xy_bits = nrx & ~nry, nry & ~nrx, nrx & nry
    ctx.bad = alpha_exceeds(g, ctx.w_x_bits, ell - 1)
    ctx.comp_bits = comps = tuple(pieces(component, bits, level & ~m & ~(1 << r)))
    ctx.rim_bits = tuple(neighborhood(bits, c) & level & ~c for c in comps)
    ctx.path_xy = path = td.path_between_subtrees(x, y)
    ctx.t_x, ctx.t_y = path[0], path[-1]
    ctx.movable_bits = sum(
        1 << v for v in members(u)
        if not (rest := nrx & ~rows[v]) & ~nry and not alpha_exceeds(g, rest, ell - 1)
    )

    _assert_component_structure(ctx)
    if ctx.bad:
        _assert_bad_pair_structure(ctx)
    return ctx


def _assert_component_structure(ctx: PairContext) -> None:
    """Component neighborhoods: inside U or the common outside set, and
    components complete to their one-sided attachments."""
    g, level, bits = ctx.g, ctx.level_bits, ctx.g.adjacency_bits()
    one_sided = ctx.u0_bits | ctx.ux_bits | ctx.uy_bits
    for comp, nc in zip(ctx.comp_bits, ctx.rim_bits):
        if stray := nc & ~ctx.u_all_bits & ~ctx.w_xy_bits:
            # comp is a component of the level minus M and r, and M holds
            # N(r), so the rim lies in M.  A rim vertex in N(r) sees comp,
            # which lies outside N[r] and M, so it is in U.  So a stray
            # vertex is in M - N(r) - W_xy: in W_x or in W_y.
            if stray & -stray & ctx.w_x_bits:
                _refute_p5(g, level, "component touches a private neighbor of x")
            _refute_p5(g, level, "component touches a private neighbor of y")
        if not complete_between(bits, nc & one_sided, comp):
            _refute_p5(g, level, "component not complete to a one-sided attachment")


def _assert_bad_pair_structure(ctx: PairContext) -> None:
    """The completeness web around a bad pair, plus the movability claims."""
    g, level, ell, bits = ctx.g, ctx.level_bits, ctx.ell, ctx.g.adjacency_bits()
    w_x, w_y, w_xy = ctx.w_x_bits, ctx.w_y_bits, ctx.w_xy_bits
    u0, ux, uy, movable = ctx.u0_bits, ctx.ux_bits, ctx.uy_bits, ctx.movable_bits
    if not complete_between(bits, w_x, w_y):
        _refute_p5(
            g, level, "private sides of a bad pair are not complete to each other"
        )
    if alpha_exceeds(g, w_y, ell - 1):
        _refute_biclique(
            g, members(w_x), members(w_y), ell,
            "both private sides have large independent sets",
        )
    if not complete_between(bits, ux, uy):
        _refute_p5(g, level, "one-sided attachments of x and y are not complete")
    if not complete_between(bits, u0 | uy, w_x):
        _refute_p5(g, level, "outward neighbor of r misses a private neighbor of x")
    if not complete_between(bits, u0 | ux, w_y):
        _refute_p5(g, level, "outward neighbor of r misses a private neighbor of y")
    for comp, rim in zip(ctx.comp_bits, ctx.rim_bits):
        if not complete_between(bits, rim & w_xy, comp):
            _refute_p5(
                g, level, "component not complete to its common-side attachment"
            )
    # movability claims
    for u in members(u0 & ~movable):
        s = w_xy & ~ctx.nrbar_bits[u]
        if not complete_between(bits, w_x, s):
            _refute_p5(g, level, "isolated-attachment vertex is not movable")
        _refute_biclique(
            g, members(w_x), members(s), ell,
            "isolated-attachment vertex is not movable",
        )
    for u_y in members(uy & ~movable):
        if not ctx.td.node_mask(u_y) >> ctx.t_y & 1:
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
    # Helly exit.  A node common to every T(v) co-bags every pair, so the scan
    # below would list no pair and reach no adjacency check.  The AND is exact
    # on any tree, valid or not, so the exit loses no error.
    if reduce(and_, (mv for _, mv in held), -1):
        return []
    bits, out = g.adjacency_bits(), []  # x and y lie in neighbor_bits(r): vertices of g
    for x, mx in held:
        for y, my in held:
            if x == y or mx & my:
                continue
            if bits[x] >> y & 1:
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
    level is the decomposition's vertex mask plus r, and each
    outside-neighborhood is one AND with it.  A distance depends only on
    T(x) and T(y), so it is computed once per pair of subtrees; the pairs come
    in lexicographic order, so the first one at the largest distance is the
    choice.
    """
    pairs = enumerate_uncobagged_pairs(g, r, td)
    if not pairs:
        return None
    bits, level = g.adjacency_bits(), td.vertex_mask | 1 << r
    nrbar = _nrbar_rows(bits, r, level, members(bits[r] & level))
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
    td = ctx.td
    if ctx.bad:
        raise ValueError("plain transform requires a non-bad pair")
    bags = [b & ctx.m_bits for b in td.bag_masks]
    for u in members(ctx.u_all_bits):
        span = td.subtree(u)
        for a in (ctx.t_x, ctx.t_y):
            if a not in span:
                span += td.path_between((a,), span)
        for t in span:
            bags[t] |= 1 << u
    for t in ctx.path_xy:
        bags[t] |= 1 << ctx.x

    edges: list[tuple[int, int]] = list(td.edges)
    add_free = ctx.u_all_bits & ~ctx.uxy_bits
    for comp, rim in zip(ctx.comp_bits, ctx.rim_bits):
        _append_copy(td, bags, edges, rim | comp, rim & add_free, ctx.t_y, ctx.t_y)
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
    g, td, ell, r = ctx.g, ctx.td, ctx.ell, ctx.root
    if not ctx.bad:
        raise ValueError("bad-pair transform requires a bad pair")

    # intermediate master bags.  Each T(a), a in M, stays connected, as the
    # Helly errors below need: ``td`` is valid, the movable fill every bag, and
    # the anchor path meets T(x) at t_x and each y-side straggler's T at t_y.
    bits, m, movable = g.adjacency_bits(), ctx.m_bits, ctx.movable_bits
    bags = [b & m | movable for b in td.bag_masks]
    ride_along = 1 << ctx.x | ctx.uy_bits & ~movable
    for t in ctx.path_xy:
        bags[t] |= ride_along

    # pull split outside vertices into the master.  Pulls add no vertex of M and
    # every rim lies in M (the component assertion), so T(a), a in M, is folded once.
    subtrees = node_masks(map(members, bags))
    parent, below = _rooted_masks(td)
    pulled = 0
    outside = ctx.level_bits & ~m & ~(1 << r)
    for c in members(outside):
        marks = [subtrees.get(a, 0) for a in members(bits[c] & m)]
        if not marks or reduce(and_, marks):  # none, or one master bag holds all
            continue
        for t in _forced_nodes(td, parent, below, marks):
            bags[t] |= 1 << c
        pulled |= 1 << c

    # anchor node per original outside component, by vertex
    anchor_of: dict[int, int] = {}
    for comp, rim in zip(ctx.comp_bits, ctx.rim_bits):
        marks = [subtrees.get(a, 0) for a in members(rim & ~ctx.uxy_bits)]
        fit = reduce(and_, marks, (1 << td.node_count) - 1)
        if fit:
            t_c = min(members(fit), key=lambda t: (len(td.tree_path(ctx.t_x, t)), t))
        else:
            t_c = _split_anchor(td, marks)
        if missing := list(members(comp & pulled & ~bags[t_c])):
            _postcondition_failure(
                g, ell, f"pulled vertices {missing} missed their anchor bag"
            )
        for d in members(comp & ~pulled):
            for a in members(bits[d] & m & ~bags[t_c]):
                _postcondition_failure(
                    g, ell,
                    f"attachment {a} of a remaining outside vertex {d} "
                    "missed the anchor bag",
                )
        anchor_of.update(dict.fromkeys(members(comp), t_c))

    edges: list[tuple[int, int]] = list(td.edges)
    for dcomp in pieces(component, bits, outside & ~pulled):
        rim = neighborhood(bits, dcomp) & ctx.level_bits & ~dcomp
        anchor = anchor_of[(dcomp & -dcomp).bit_length() - 1]
        _append_copy(td, bags, edges, rim | dcomp, rim & ~ctx.uxy_bits, anchor, ctx.t_x)
    out = TreeDecomposition.from_masks(tuple(edges), bags)
    return _check_surgery_output(ctx, out, "bad-pair surgery")


def _append_copy(
    td: TreeDecomposition, bags: list[int], edges: list[tuple[int, int]],
    keep: int, spread: int, anchor: int, at: int,
) -> None:
    """Append an outside component's copy of ``td`` to ``bags`` and ``edges``.

    Each bag mask is cut to the mask ``keep`` (the component and its rim) plus
    ``spread``, and the copy's node ``at`` is joined to master node ``anchor``.
    """
    offset = len(bags)
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


def _split_anchor(td: TreeDecomposition, marks: list[int]) -> int:
    """Anchor for a component whose attachment subtrees ``marks``, node masks
    of a master on ``td``'s tree, have no common node."""
    for i, sa in enumerate(marks):
        for sb in marks[i + 1 :]:
            if not sa & sb:
                return min(td.path_between(set(members(sa)), set(members(sb))))
    # Unreached for connected T(a): subtrees of a tree that pairwise meet
    # share a node (Helly), and the caller found no node common to all.
    raise DecompositionError("attachments pairwise meet yet fit no bag")


def _check_surgery_output(
    ctx: PairContext, out: TreeDecomposition, label: str
) -> TreeDecomposition:
    """``out``, once it is checked valid, within the bag bound and co-bagging x, y."""
    g, ell, r = ctx.g, ctx.ell, ctx.root
    problems = validate(g, out, members(ctx.level_bits & ~(1 << r)))
    if problems:
        _postcondition_failure(g, ell, f"{label} broke validity: {problems[:3]}")
    if td_alpha_exceeds(g, out, 4 * ell):
        _postcondition_failure(g, ell, f"{label} exceeded the 4*ell bag bound")
    if not out.node_mask(ctx.x) & out.node_mask(ctx.y):
        raise DecompositionError(f"{label} failed to co-bag the chosen pair")
    return out


# -- the saturation loop and the full pipeline --------------------------------


def saturate_root(
    g: Graph, r: int, td: TreeDecomposition, ell: int, log: Optional[list] = None
) -> TreeDecomposition:
    """Restructure until every pair of neighbors of r in its level shares a bag.

    ``td`` decomposes the level of r minus r.  Each round merges the
    selected pair and compresses.  The co-bagged pairs of N(r) grow strictly:
    node t of the surgery's output keeps bag t's part in N(r) (checked
    below), x and y share a bag after the surgery's check and not before
    (``build_pair_context`` checks), and compression keeps the pairs.  They
    are drawn from the C(d, 2) pairs of N(r), d = deg r, so the loop ends
    within C(d, 2) rounds; with d < 2 there is no pair, and no round.
    """
    nr = g.neighbor_bits(r) & td.vertex_mask
    entry = {"root": r, "degree": nr.bit_count(), "iterations": 0, "pairs": []}
    while nr & (nr - 1) and (sel := select_pair(g, r, td, ell)) is not None:
        x, y, bad = sel
        ctx = build_pair_context(g, r, td, x, y, ell)
        new_td = transform_bad_pair(ctx) if bad else transform_plain_pair(ctx)
        # The master keeps every pair: each surgery cuts node t's bag to a superset
        # of N(r), then only adds.  x and y now share a bag (the surgery check) and
        # did not before (the context check): the pairs grow strictly.
        if any(a & nr & ~b for a, b in zip(td.bag_masks, new_td.bag_masks)):
            raise DecompositionError(
                "surgery did not strictly grow the co-bagged pairs"
            )
        # compress edits no bag and drops only bags inside a kept one: pairs stay
        td = compress(new_td)
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
    g: Graph, ell: int, levels: Iterable[tuple[int, int]], log: Optional[list]
) -> Union[Witness, TreeDecomposition]:
    """``decompose`` at ``ell`` from the forward pass's ``levels``.

    The roots are accepted while alpha(N[r_i]) < 2*ell.  The first level
    past the bound runs ``low_alpha_vertex``'s extraction on that level, so
    its witness (or the exception raised) is the per-level search's own.
    """
    bits, alive = g.adjacency_bits(), (1 << g.n) - 1
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
        alive |= 1 << r  # now the level of r
        nr = bits[r] & alive
        t = find_bag_containing_set(td, members(nr))
        if t is None:
            raise DecompositionError(
                "no bag holds all neighbors of the root after saturation"
            )
        td = td.with_leaf(t, members(nr | 1 << r))
    problems = validate(g, td)
    if problems:
        raise DecompositionError(f"final decomposition invalid: {problems[:3]}")
    if td_alpha_exceeds(g, td, 4 * ell):
        raise DecompositionError("final decomposition exceeds the bag bound")
    return td


def decompose(
    g: Graph, ell: int, check_p5: bool = True, log: Optional[list] = None
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
