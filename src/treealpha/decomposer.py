"""Constructive tree-decomposition engine for P5-free graphs.

Given a graph with no induced 5-vertex path and a target ``ell``, the engine
either produces an induced balanced biclique K_{ell,ell} or builds a tree
decomposition whose every bag has independence number at most ``4*ell``.

The engine makes two passes over the input graph, always in its own vertex
ids.  The forward pass eliminates one root at a time: each root r is a vertex
whose closed neighborhood among the vertices not yet eliminated has small
independence number.  Those vertices, r included, are the level of r.  The
backward pass starts from a single bag holding the last vertex and adds the
roots back in reverse order.  Adding r back restructures the decomposition of
its level minus r until all neighbors of r in the level share a bag, then
hangs the bag N[r] (within the level) off that bag.  The decomposition handed
to each step covers exactly the level minus r, so the level is read off its
bags, and every read of the graph in the restructuring stays inside it.

Each restructuring step strictly grows the number of co-bagged neighbor
pairs, so the loop finishes within (deg r choose 2) rounds.  Every structural
fact the surgery relies on is asserted at run time; a failed assertion is
converted into a verified witness (an induced path or biclique) that refutes
the caller's promise about the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Optional, Sequence, Union

from .graph import Graph, VertexSet, components, mask_of, members, vertex_set
from .oracles import (
    BICLIQUE,
    ForbiddenStructureFound,
    Witness,
    alpha_exceeds,
    alpha_of_subset,  # unused here; bench/selftest.py reads it through this module
    biclique_witness,
    find_induced_biclique,
    find_induced_path,
    max_independent_subset,
    path_witness,
    verify_witness,
)
from .degeneracy import low_alpha_vertex
from .treedecomp import (
    TreeDecomposition,
    cobagged_pairs,
    compress,
    find_bag_containing_set,
    node_masks,
    single_bag_decomposition,
    subtree_distance,
    td_alpha,
    td_alpha_exceeds,
    validate,
)


class DecompositionError(RuntimeError):
    """Internal inconsistency: a guaranteed step failed without a witness."""


# -- small helpers -----------------------------------------------------------


def _level(g: Graph, r: int, td: TreeDecomposition) -> tuple[set[int], VertexSet]:
    """The level of root r, and the neighbors of r in it.

    ``td`` decomposes the level minus r, so the level is read off its bags.
    """
    level = set(td.vertices()) | {r}
    return level, tuple(u for u in g.neighbors(r) if u in level)


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


def _first_noncomplete(g: Graph, side_a, side_b) -> Optional[tuple[int, int]]:
    for a in sorted(side_a):
        for b in sorted(side_b):
            if not g.adjacent(a, b):
                return a, b
    return None


def _adjacency_flip_on_path(
    g: Graph, comp: VertexSet, w: int
) -> tuple[int, int]:
    """Adjacent c, c2 in comp with w adjacent to c but not to c2.

    Exists whenever w sees part of the connected set comp but not all of it.
    """
    inside = set(comp)
    liked = [c for c in comp if g.adjacent(w, c)]
    disliked = [c for c in comp if not g.adjacent(w, c)]
    if not liked or not disliked:
        raise DecompositionError("no adjacency flip available")
    start = min(liked)
    parent = {start: -1}
    frontier = [start]
    goal = None
    while frontier and goal is None:
        nxt: list[int] = []
        for c in frontier:
            for u in sorted(g.neighbors(c)):
                if u in inside and u not in parent:
                    parent[u] = c
                    if not g.adjacent(w, u):
                        goal = u
                        break
                    nxt.append(u)
            if goal is not None:
                break
        frontier = nxt
    if goal is None:
        raise DecompositionError("component not connected; flip search failed")
    return parent[goal], goal


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

    _assert_component_structure(ctx, nrx, nry)
    if ctx.bad:
        _assert_bad_pair_structure(ctx, nrx, nry)
    return ctx


def _assert_component_structure(ctx: PairContext, nrx: set, nry: set) -> None:
    """Component neighborhoods: inside U or the common outside set, and
    components complete to their private-side attachments."""
    g, r, x, y = ctx.g, ctx.root, ctx.x, ctx.y
    for comp in ctx.comps:
        nc = _rim(g, comp, ctx.level)
        for w in sorted(nc - ctx.u_all - ctx.w_xy):
            c = min(v for v in comp if g.adjacent(w, v))
            if w in ctx.w_x:
                _raise_with_witness(
                    g, path_witness((c, w, x, r, y)),
                    "component touches a private neighbor of x",
                )
            if w in ctx.w_y:
                _raise_with_witness(
                    g, path_witness((c, w, y, r, x)),
                    "component touches a private neighbor of y",
                )
            raise DecompositionError(
                f"component neighbor {w} outside U and the common set"
            )
        for u in sorted(nc & (ctx.u0 | ctx.ux | ctx.uy)):
            if all(g.adjacent(u, c) for c in comp):
                continue
            c_adj, c_non = _adjacency_flip_on_path(g, comp, u)
            other = y if u in ctx.u0 | ctx.ux else x
            _raise_with_witness(
                g, path_witness((c_non, c_adj, u, r, other)),
                "component not complete to a one-sided attachment",
            )


def _assert_bad_pair_structure(ctx: PairContext, nrx: set, nry: set) -> None:
    """The completeness web around a bad pair, plus the movability claims."""
    g, r, x, y, ell = ctx.g, ctx.root, ctx.x, ctx.y, ctx.ell

    bad_pair = _first_noncomplete(g, ctx.w_x, ctx.w_y)
    if bad_pair is not None:
        wx, wy = bad_pair
        _raise_with_witness(
            g, path_witness((wx, x, r, y, wy)),
            "private sides of a bad pair are not complete to each other",
        )
    if alpha_exceeds(g, mask_of(g, ctx.w_y), ell - 1):
        side_a = max_independent_subset(g, ctx.w_x)[:ell]
        side_b = max_independent_subset(g, ctx.w_y)[:ell]
        _raise_with_witness(
            g, biclique_witness(side_a, side_b),
            "both private sides have large independent sets",
        )
    for u_x in sorted(ctx.ux):
        for u_y in sorted(ctx.uy):
            if g.adjacent(u_x, u_y):
                continue
            out_x = sorted(ctx.nrbar[u_x] - nrx - nry)
            out_y = sorted(ctx.nrbar[u_y] - nrx - nry)
            common = sorted(set(out_x) & set(out_y))
            if common:
                _raise_with_witness(
                    g, path_witness((x, u_x, common[0], u_y, y)),
                    "one-sided attachments of x and y are not complete",
                )
            wx, wy = out_x[0], out_y[0]
            if not g.adjacent(wx, wy):
                _raise_with_witness(
                    g, path_witness((wx, u_x, r, u_y, wy)),
                    "one-sided attachments of x and y are not complete",
                )
            _raise_with_witness(
                g, path_witness((x, u_x, wx, wy, u_y)),
                "one-sided attachments of x and y are not complete",
            )
    for u in sorted(ctx.u0 | ctx.uy):
        pair = _first_noncomplete(g, [u], ctx.w_x)
        if pair is not None:
            w_u = min(ctx.nrbar[u] - nrx - nry)
            _raise_with_witness(
                g, path_witness((pair[1], x, r, u, w_u)),
                "outward neighbor of r misses a private neighbor of x",
            )
    for u in sorted(ctx.u0 | ctx.ux):
        pair = _first_noncomplete(g, [u], ctx.w_y)
        if pair is not None:
            w_u = min(ctx.nrbar[u] - nrx - nry)
            _raise_with_witness(
                g, path_witness((pair[1], y, r, u, w_u)),
                "outward neighbor of r misses a private neighbor of y",
            )
    for comp in ctx.comps:
        for w in sorted(_rim(g, comp, ctx.level) & ctx.w_xy):
            if all(g.adjacent(w, c) for c in comp):
                continue
            c_adj, c_non = _adjacency_flip_on_path(g, comp, w)
            _raise_with_witness(
                g, path_witness((c_non, c_adj, w, x, r)),
                "component not complete to its common-side attachment",
            )
    # movability claims
    for u0 in sorted(ctx.u0 - ctx.movable):
        s = ctx.w_xy - ctx.nrbar[u0]
        pair = _first_noncomplete(g, ctx.w_x, s)
        if pair is not None:
            wx, ws = pair
            _raise_with_witness(
                g, path_witness((u0, wx, x, ws, y)),
                "isolated-attachment vertex is not movable",
            )
        side_a = max_independent_subset(g, ctx.w_x)[:ell]
        side_b = max_independent_subset(g, s)[:ell]
        if len(side_b) < ell:
            raise DecompositionError(
                "unmovable isolated attachment without a large independent set"
            )
        _raise_with_witness(
            g, biclique_witness(side_a, side_b),
            "isolated-attachment vertex is not movable",
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
    nr = _level(g, r, td)[1]
    held = [(v, td.node_mask(v)) for v in nr]
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
    independent set of size ``ell``.  Ties break lexicographically.
    """
    pairs = enumerate_uncobagged_pairs(g, r, td)
    if not pairs:
        return None
    nrbar = _nrbar(g, r, *_level(g, r, td))
    bads = [
        (x, y)
        for x, y in pairs
        if alpha_exceeds(g, mask_of(g, nrbar[x] - nrbar[y]), ell - 1)
    ]
    x, y = max(bads or pairs, key=lambda p: (subtree_distance(td, *p), -p[0], -p[1]))
    return x, y, bool(bads)


# -- the two surgeries --------------------------------------------------------


def transform_plain_pair(ctx: PairContext) -> TreeDecomposition:
    """Restructure so x and y share a bag, when no bad pair exists.

    A master copy keeps the bags restricted to the r/x/y neighborhood set M;
    outward attachments are re-homed to span both anchor nodes, x flows
    along the anchor path, and each outside component gets its own copy of
    the tree carrying its local bags.  Apart from validity, the result keeps
    every co-bagged neighbor pair of r and adds (x, y).
    """
    g, td, ell = ctx.g, ctx.td, ctx.ell
    if ctx.bad:
        raise ValueError("plain transform requires a non-bad pair")
    k = td.node_count
    master: list[set[int]] = [set(bag) & ctx.m for bag in td.bags]
    for u in sorted(ctx.u_all):
        span = td.subtree(u)
        for a in (ctx.t_x, ctx.t_y):
            if a not in span:
                span += td.path_between((a,), span)
        for t in span:
            master[t].add(u)
    for t in ctx.path_xy:
        master[t].add(ctx.x)

    bags: list[VertexSet] = [tuple(sorted(b)) for b in master]
    edges: list[tuple[int, int]] = list(td.edges)
    add_free = ctx.u_all - ctx.uxy
    for comp in ctx.comps:
        rim = _rim(g, comp, ctx.level)
        closed = set(comp) | rim
        extra = rim & add_free
        offset = len(bags)
        for t in range(k):
            bags.append(tuple(sorted((set(td.bags[t]) & closed) | extra)))
        edges.extend((a + offset, b + offset) for a, b in td.edges)
        edges.append((ctx.t_y, offset + ctx.t_y))

    out = TreeDecomposition(tuple(edges), tuple(bags))
    _check_surgery_output(ctx, out, "plain-pair surgery")
    return out


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

    # intermediate master bags
    inter = [(set(bag) & ctx.m) | ctx.movable for bag in td.bags]
    ride_along = {ctx.x} | (ctx.uy - ctx.movable)
    for t in ctx.path_xy:
        inter[t] |= ride_along

    # pull split outside vertices into the master
    subtree_of = node_masks(inter)
    parent, below = _rooted_masks(td)
    final: list[set[int]] = [set(b) for b in inter]
    pulled: set[int] = set()
    for c in sorted(ctx.level - ctx.m - {r}):
        marks = [subtree_of[a] for a in g.neighbors(c) if a in ctx.m]
        if not marks:
            continue
        common = marks[0]
        for sm in marks[1:]:
            common &= sm
        if common:
            continue
        nodes = _forced_nodes(td, parent, below, marks)
        for t in nodes:
            final[t].add(c)
        pulled.add(c)

    comp_of = {v: i for i, comp in enumerate(ctx.comps) for v in comp}

    # anchor node per original outside component
    final_masks = node_masks(final)
    anchors: list[int] = []
    for comp in ctx.comps:
        inside = set(comp)
        key = sorted(_rim(g, comp, ctx.level) - ctx.uxy)
        fit = (1 << k) - 1
        for v in key:
            fit &= final_masks[v]
        if fit:
            t_c = min(members(fit), key=lambda t: (len(td.tree_path(ctx.t_x, t)), t))
        else:
            t_c = _split_anchor(td, final_masks, key)
        c_prime = inside & pulled
        c_second = inside - pulled
        missing = [v for v in sorted(c_prime) if not final_masks[v] >> t_c & 1]
        if missing:
            _postcondition_failure(
                g, ell, f"pulled vertices {missing} missed their anchor bag"
            )
        for d in sorted(c_second):
            for a in g.neighbors(d):
                if a in ctx.m and a not in final[t_c]:
                    _postcondition_failure(
                        g, ell,
                        f"attachment {a} of a remaining outside vertex {d} "
                        "missed the anchor bag",
                    )
        anchors.append(t_c)

    bags: list[VertexSet] = [tuple(sorted(b)) for b in final]
    edges: list[tuple[int, int]] = list(td.edges)
    m_prime = ctx.m | pulled
    rest = sorted(ctx.level - m_prime - {r})
    for dcomp in components(g, rest):
        nd = _rim(g, dcomp, ctx.level)
        spread = nd - ctx.uxy
        offset = len(bags)
        closed = set(dcomp) | nd
        for t in range(k):
            bags.append(tuple(sorted((set(td.bags[t]) & closed) | spread)))
        edges.extend((a + offset, b + offset) for a, b in td.edges)
        anchor = anchors[comp_of[min(dcomp)]]
        edges.append((anchor, offset + ctx.t_x))

    out = TreeDecomposition(tuple(edges), tuple(bags))
    _check_surgery_output(ctx, out, "bad-pair surgery")
    return out


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
        raise DecompositionError("split neighborhood without a separating edge")
    return out


def _split_anchor(
    td: TreeDecomposition, masks: dict[int, int], key: list[int]
) -> int:
    """Anchor for a component whose attachments fit no single master bag."""
    for i, a in enumerate(key):
        for b in key[i + 1 :]:
            sa, sb = masks[a], masks[b]
            if not sa & sb:
                return min(td.path_between(set(members(sa)), set(members(sb))))
    raise DecompositionError("attachments pairwise meet yet fit no bag")


def _check_surgery_output(
    ctx: PairContext, out: TreeDecomposition, label: str
) -> None:
    g, ell, r = ctx.g, ctx.ell, ctx.root
    problems = validate(g, out, ctx.level - {r})
    if problems:
        _postcondition_failure(g, ell, f"{label} broke validity: {problems[:3]}")
    if td_alpha_exceeds(g, out, 4 * ell):
        _postcondition_failure(g, ell, f"{label} exceeded the 4*ell bag bound")
    if not out.node_mask(ctx.x) & out.node_mask(ctx.y):
        raise DecompositionError(f"{label} failed to co-bag the chosen pair")


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
    selected pair and strictly grows the set of co-bagged neighbor pairs, so
    at most (deg r choose 2) rounds run.  The decomposition is compressed
    between rounds; compression never drops a co-bagged pair.  A round's
    co-bagged pairs after compression, checked equal to those before it, are
    the next round's starting set.
    """
    nr = _level(g, r, td)[1]
    entry = {"root": r, "degree": len(nr), "iterations": 0, "pairs": []}
    limit = comb(len(nr), 2)
    before = None
    while (sel := select_pair(g, r, td, ell)) is not None:
        x, y, bad = sel
        if before is None:
            before = cobagged_pairs(td, nr)
        ctx = build_pair_context(g, r, td, x, y, ell)
        new_td = transform_bad_pair(ctx) if bad else transform_plain_pair(ctx)
        after = cobagged_pairs(new_td, nr)
        if not (before < after and frozenset((x, y)) in after):
            raise DecompositionError(
                "surgery did not strictly grow the co-bagged pairs"
            )
        td = compress(new_td)
        before = cobagged_pairs(td, nr)
        if before != after:
            raise DecompositionError("compression changed the co-bagged pairs")
        entry["iterations"] += 1
        entry["pairs"].append((x, y, bad, "bad" if bad else "plain"))
        if entry["iterations"] > limit:
            raise DecompositionError(
                f"saturation exceeded {limit} rounds for degree {len(nr)}"
            )
    if log is not None:
        log.append(entry)
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
    the backward pass adds them back; see the module docstring.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if check_p5:
        w = find_induced_path(g, 5)
        if w is not None:
            raise ForbiddenStructureFound(w, "input contains an induced P5")
    alive = set(range(g.n))
    roots: list[int] = []
    while len(alive) >= 2:
        report = low_alpha_vertex(g, ell, 2, within=alive)
        if report.witness is not None:
            if report.witness.kind == BICLIQUE:
                return report.witness
            raise ForbiddenStructureFound(
                report.witness, "input contains an induced P5"
            )
        roots.append(report.vertex)
        alive.remove(report.vertex)
    td = single_bag_decomposition(alive)
    for r in reversed(roots):
        try:
            td = saturate_root(g, r, td, ell, log)
        except ForbiddenStructureFound as exc:
            if exc.witness.kind == BICLIQUE:
                return exc.witness
            raise
        nr = _level(g, r, td)[1]
        t = find_bag_containing_set(td, nr)
        if t is None:
            raise DecompositionError(
                "no bag holds all neighbors of the root after saturation"
            )
        bags = td.bags + (vertex_set(nr + (r,)),)
        td = TreeDecomposition(td.edges + ((t, len(td.bags)),), bags)
    problems = validate(g, td)
    if problems:
        raise DecompositionError(f"final decomposition invalid: {problems[:3]}")
    if td_alpha_exceeds(g, td, 4 * ell):
        raise DecompositionError("final decomposition exceeds the bag bound")
    return td


def approximate_tia(
    g: Graph, log: Optional[list] = None
) -> tuple[int, TreeDecomposition, int]:
    """Constant-factor approximation of the tree-independence number.

    Runs the engine for ell = 1, 2, ... and stops at the first decomposition
    outcome.  Returns (bag independence k*, the decomposition, ell*); the
    sandwich ell*-1 <= tree-alpha <= k* <= 4*ell* holds for P5-free inputs.
    """
    w = find_induced_path(g, 5)
    if w is not None:
        raise ForbiddenStructureFound(w, "input contains an induced P5")
    if g.edge_count == 0:
        if g.n == 0:
            return 0, single_bag_decomposition(()), 1
        bags = tuple((v,) for v in range(g.n))
        edges = tuple((i, i + 1) for i in range(g.n - 1))
        return 1, TreeDecomposition(edges, bags), 1
    ell = 2
    while True:
        got = decompose(g, ell, check_p5=False, log=log)
        if isinstance(got, TreeDecomposition):
            return td_alpha(g, got), got, ell
        ell += 1
        if ell > g.n // 2 + 1:
            raise DecompositionError("no decomposition up to the biclique limit")
