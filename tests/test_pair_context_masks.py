"""The pair context on masks against the set-based code it replaced.

``build_pair_context`` used to hold the level, the outside-neighborhoods,
M, U and its classes, the W sets and the movable set as Python sets, and its
two assertions read those sets.  Those versions stay below verbatim as the
reference, renamed ``ref_*``, with the helpers and the dataclass they used,
so they share no code with the masks.  On every context the engine builds,
along the corpus, on seeded perturb-filter graphs and on random graphs with
induced P5s, the mask version must give the same public fields, or raise the
same exception with the same message and witness.

The decomposition's cached level mask (``TreeDecomposition.vertex_mask``) and
the Helly exit of ``enumerate_uncobagged_pairs`` are pinned here too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from operator import or_

import pytest

import treealpha.decomposer as dec
import treealpha.treedecomp as tdm
from treealpha.decomposer import (
    DecompositionError,
    PairContext,
    _check_surgery_output,
    _induced_path_within,
    _raise_with_witness,
    _refute_biclique,
    build_pair_context,
    enumerate_uncobagged_pairs,
)
from treealpha.graph import (
    Graph,
    VertexSet,
    components,
    is_complete_between,
    mask_of,
    members,
    neighborhood,
)
from treealpha.harness import gen_p5_free
from treealpha.oracles import ForbiddenStructureFound, alpha_exceeds
from treealpha.treedecomp import TreeDecomposition, compress, validate

from conftest import random_graph


# -- reference: the set-based versions, verbatim ------------------------------------


def ref_root_neighbors(g: Graph, r: int, td: TreeDecomposition) -> VertexSet:
    return tuple(u for u in g.neighbors(r) if td.node_mask(u))


def ref_level(g: Graph, r: int, td: TreeDecomposition) -> tuple[set[int], VertexSet]:
    return set(td.vertices()) | {r}, ref_root_neighbors(g, r, td)


def ref_nrbar(
    g: Graph, r: int, level: set[int], nr: VertexSet
) -> dict[int, set[int]]:
    bits = g.adjacency_bits()
    far = mask_of(g, level) & ~bits[r] & ~(1 << r)
    return {u: set(members(bits[u] & far)) for u in nr}


def ref_rim(g: Graph, comp: VertexSet, level: set[int]) -> set[int]:
    inside = mask_of(g, comp)
    rim = neighborhood(g.adjacency_bits(), inside) & ~inside
    return level.intersection(members(rim))


def ref_refute_p5(g: Graph, level: set[int], msg: str) -> None:
    w = _induced_path_within(g.adjacency_bits(), 5, mask_of(g, level))
    if w is None:
        raise DecompositionError(f"{msg}; the level has no induced P5 (internal bug)")
    _raise_with_witness(g, w, msg)


@dataclass
class RefPairContext:
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


def ref_build_pair_context(
    g: Graph, r: int, td: TreeDecomposition, x: int, y: int, ell: int
) -> RefPairContext:
    ctx = RefPairContext(g=g, root=r, td=td, x=x, y=y, ell=ell)
    ctx.level, nr = ref_level(g, r, td)
    if x not in nr or y not in nr or x == y:
        raise ValueError("x and y must be distinct neighbors of the root")
    if td.node_mask(x) & td.node_mask(y):
        raise ValueError("pair is already co-bagged")
    if g.adjacent(x, y):
        raise DecompositionError("co-bag pair is adjacent but shares no bag")

    ctx.nrbar = ref_nrbar(g, r, ctx.level, nr)
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

    ref_assert_component_structure(ctx)
    if ctx.bad:
        ref_assert_bad_pair_structure(ctx)
    return ctx


def ref_assert_component_structure(ctx: RefPairContext) -> None:
    g, level = ctx.g, ctx.level
    for comp in ctx.comps:
        nc = ref_rim(g, comp, level)
        if stray := nc - ctx.u_all - ctx.w_xy:
            if min(stray) in ctx.w_x:
                ref_refute_p5(g, level, "component touches a private neighbor of x")
            ref_refute_p5(g, level, "component touches a private neighbor of y")
        if not is_complete_between(g, nc & (ctx.u0 | ctx.ux | ctx.uy), comp):
            ref_refute_p5(g, level, "component not complete to a one-sided attachment")


def ref_assert_bad_pair_structure(ctx: RefPairContext) -> None:
    g, level, ell = ctx.g, ctx.level, ctx.ell
    if not is_complete_between(g, ctx.w_x, ctx.w_y):
        ref_refute_p5(
            g, level, "private sides of a bad pair are not complete to each other"
        )
    if alpha_exceeds(g, mask_of(g, ctx.w_y), ell - 1):
        _refute_biclique(
            g, ctx.w_x, ctx.w_y, ell, "both private sides have large independent sets"
        )
    if not is_complete_between(g, ctx.ux, ctx.uy):
        ref_refute_p5(g, level, "one-sided attachments of x and y are not complete")
    if not is_complete_between(g, ctx.u0 | ctx.uy, ctx.w_x):
        ref_refute_p5(g, level, "outward neighbor of r misses a private neighbor of x")
    if not is_complete_between(g, ctx.u0 | ctx.ux, ctx.w_y):
        ref_refute_p5(g, level, "outward neighbor of r misses a private neighbor of y")
    for comp in ctx.comps:
        if not is_complete_between(g, ref_rim(g, comp, level) & ctx.w_xy, comp):
            ref_refute_p5(
                g, level, "component not complete to its common-side attachment"
            )
    # movability claims
    for u0 in sorted(ctx.u0 - ctx.movable):
        s = ctx.w_xy - ctx.nrbar[u0]
        if not is_complete_between(g, ctx.w_x, s):
            ref_refute_p5(g, level, "isolated-attachment vertex is not movable")
        _refute_biclique(
            g, ctx.w_x, s, ell, "isolated-attachment vertex is not movable"
        )
    for u_y in sorted(ctx.uy):
        if u_y not in ctx.movable and not ctx.td.node_mask(u_y) >> ctx.t_y & 1:
            raise DecompositionError(
                f"y-side attachment {u_y} neither movable nor anchored; "
                "the pair was not selected at maximum subtree distance"
            )


# -- the comparison -----------------------------------------------------------------


FIELDS = (
    "bad", "level", "nrbar", "m", "u_all", "u0", "ux", "uy", "uxy",
    "w_x", "w_y", "w_xy", "movable", "comps", "t_x", "t_y", "path_xy",
)


def _outcome(build, args):
    """The public fields ``build`` fills, or the type, message and witness raised."""
    try:
        ctx = build(*args)
    except (ValueError, DecompositionError) as exc:
        return type(exc), str(exc)
    except ForbiddenStructureFound as exc:
        return type(exc), str(exc), exc.witness
    return {name: getattr(ctx, name) for name in FIELDS}


def _recorded_contexts(runs) -> list[tuple]:
    """The arguments of every ``build_pair_context`` call the engine makes."""
    calls: list[tuple] = []
    real = dec.build_pair_context

    def record(*args):
        calls.append(args)
        return real(*args)

    dec.build_pair_context = record
    try:
        for g, ell, check_p5 in runs:
            try:
                dec.decompose(g, ell, check_p5=check_p5)
            except ForbiddenStructureFound:
                pass
    finally:
        dec.build_pair_context = real
    return calls


def _assert_same(calls) -> dict[str, int]:
    kinds = {"built": 0, "refuted": 0}
    for args in calls:
        got = _outcome(build_pair_context, args)
        assert got == _outcome(ref_build_pair_context, args), args[1:]
        kinds["built" if isinstance(got, dict) else "refuted"] += 1
    return kinds


def test_engine_contexts_match_the_set_based_code(p5_kll_corpus):
    calls = _recorded_contexts((g, ell, False) for g, ell, _ in p5_kll_corpus)
    assert len(calls) > 100
    kinds = _assert_same(calls)
    assert kinds["built"] > 100


def test_perturb_filter_contexts_match_the_set_based_code():
    runs = [
        (gen_p5_free(n, seed, "perturb-filter"), ell, False)
        for seed, n in enumerate((24, 30, 36, 42, 48))
        for ell in (2, 3)
    ]
    calls = _recorded_contexts(runs)
    assert len(calls) > 100
    assert _assert_same(calls)["built"] > 100


def test_refuting_contexts_match_the_set_based_code():
    # random graphs with induced P5s, decomposed without the up-front check,
    # reach the assertions' refutations
    rng = random.Random(20261021)
    runs = [
        (random_graph(rng.randint(5, 13), rng.choice([0.25, 0.4, 0.6]), rng), 2, False)
        for _ in range(300)
    ]
    kinds = _assert_same(_recorded_contexts(runs))
    assert kinds["refuted"] > 10 and kinds["built"] > 100


def test_preconditions_raise_as_before():
    # root 0 sees 1, 2 and 3; 1-2 is an edge; 3 shares the first bag with 1
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)])
    td = TreeDecomposition(((0, 1),), ((1, 3), (2, 4)))
    for x, y in ((1, 1), (1, 4), (4, 1), (1, 3), (1, 2)):
        args = (g, 0, td, x, y, 2)
        want = _outcome(ref_build_pair_context, args)
        assert _outcome(build_pair_context, args) == want
        assert want[0] in (ValueError, DecompositionError)
    args = (g, 0, td, 3, 2, 2)  # the one pair that passes
    assert _outcome(build_pair_context, args) == _outcome(ref_build_pair_context, args)


def test_a_biclique_refutation_matches():
    # alpha(W_y) reaches ell: the bad-pair check raises the biclique between
    # the private sides
    ell = 3
    r, x, y = 0, 1, 2
    a_side = tuple(range(3, 3 + ell))
    b_side = tuple(range(3 + ell, 3 + 2 * ell))
    edges = [(r, x), (r, y)] + [(x, a) for a in a_side] + [(y, b) for b in b_side]
    edges += [(a, b) for a in a_side for b in b_side]
    g = Graph(3 + 2 * ell, edges)
    td = TreeDecomposition(
        ((0, 1), (1, 2)), ((x,) + a_side, a_side + b_side, (y,) + b_side)
    )
    args = (g, r, td, x, y, ell)
    got = _outcome(build_pair_context, args)
    assert got == _outcome(ref_build_pair_context, args)
    assert got[0] is ForbiddenStructureFound and got[2].parts == (a_side, b_side)


def test_a_hand_built_context_reads_its_assigned_level():
    # root 0 with neighbors 1 and 2; vertex 3 hangs off 2
    g = Graph(4, [(0, 1), (0, 2), (2, 3)])
    ctx = PairContext(g=g, root=0, td=None, x=1, y=2, ell=2)
    ctx.level = {0, 1, 2}
    assert ctx.level_bits == 0b111 and ctx.level == {0, 1, 2}
    joined = TreeDecomposition((), ((1, 2),))
    assert _check_surgery_output(ctx, joined, "surgery") is joined
    # with 3 in the level, the same tree misses a vertex
    ctx.level = {0, 1, 2, 3}
    assert ctx.level_bits == 0b1111
    with pytest.raises(DecompositionError, match="surgery broke validity"):
        _check_surgery_output(ctx, joined, "surgery")


# -- the cached level mask ----------------------------------------------------------


def _folded(td: TreeDecomposition) -> int:
    return reduce(or_, td.bag_masks, 0)


def test_vertex_mask_is_the_or_of_the_bag_masks():
    rng = random.Random(26)
    for _ in range(300):
        k = rng.randint(1, 9)
        edges = tuple((rng.randrange(t), t) for t in range(1, k))
        bags = tuple(
            tuple(sorted(rng.sample(range(12), rng.randint(0, 5)))) for _ in range(k)
        )
        td = TreeDecomposition(edges, bags)
        assert td.vertex_mask == _folded(td) == mask_of(Graph(12, []), td.vertices())
        masks = tuple(rng.getrandbits(rng.randint(0, 40)) for _ in range(k))
        built = TreeDecomposition.from_masks(edges, masks)
        assert built.vertex_mask == reduce(or_, masks, 0)
        # extended and passed on, not folded again
        leaf = td.with_leaf(rng.randrange(k), (rng.randrange(20),))
        assert leaf._vertex_mask is not None and leaf.vertex_mask == _folded(leaf)
        squashed = compress(leaf)
        assert squashed._vertex_mask is not None
        assert squashed.vertex_mask == _folded(squashed)
    # a decomposition whose mask was never read passes on nothing to compress
    fresh = TreeDecomposition(((0, 1),), ((0, 1), (1,)))
    assert compress(fresh)._vertex_mask is None
    assert compress(fresh).vertex_mask == 0b11


def test_engine_outputs_keep_the_level_mask(monkeypatch):
    seen = {"surgery": 0, "compress": 0}
    check, squash = dec._check_surgery_output, dec.compress

    def checked(ctx, out, label):
        seen["surgery"] += 1
        out = check(ctx, out, label)
        assert out.vertex_mask == _folded(out) == ctx.level_bits & ~(1 << ctx.root)
        return out

    def compressed(td):
        td.vertex_mask  # read, so that compress passes it on
        out = squash(td)
        seen["compress"] += 1
        assert out._vertex_mask == td.vertex_mask == _folded(out)
        return out

    monkeypatch.setattr(dec, "_check_surgery_output", checked)
    monkeypatch.setattr(dec, "compress", compressed)
    for i in range(12):
        g = gen_p5_free(20 + 3 * i, i, ("union-join", "perturb-filter")[i % 2])
        _, td, _ = dec.approximate_tia(g)  # its leaves come from with_leaf
        assert td.vertex_mask == _folded(td) == (1 << g.n) - 1
    assert seen["surgery"] == seen["compress"] > 50


def _triangles(n_triangles: int) -> Graph:
    rng = random.Random(350)
    n = 3 * n_triangles
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(
        n,
        [
            (perm[3 * i + a], perm[3 * i + b])
            for i in range(n_triangles)
            for a, b in ((0, 1), (1, 2), (0, 2))
        ],
    )


def test_the_level_mask_is_folded_at_most_once_on_triangles(monkeypatch):
    # ``reduce`` in treedecomp is the full fold of the bag masks; if
    # ``with_leaf`` dropped the mask, every root would fold the whole tree
    g = _triangles(350)
    folds = []
    real = tdm.reduce

    def counted(*args):
        folds.append(args[0])
        return real(*args)

    monkeypatch.setattr(tdm, "reduce", counted)
    td = dec.decompose(g, 2, check_p5=False)
    assert isinstance(td, TreeDecomposition) and td.node_count == g.n
    assert td.vertex_mask == (1 << g.n) - 1
    assert len(folds) <= 1


# -- the Helly exit -----------------------------------------------------------------


def ref_enumerate_uncobagged_pairs(g, r, td):
    nr = ref_root_neighbors(g, r, td)
    out: list[tuple[int, int]] = []
    for x in nr:
        for y in nr:
            if x == y or td.node_mask(x) & td.node_mask(y):
                continue
            if g.adjacent(x, y):
                raise DecompositionError(
                    f"adjacent pair {x},{y} shares no bag; decomposition invalid"
                )
            out.append((x, y))
    return out


def _pairs_outcome(fn, *args):
    try:
        return fn(*args)
    except DecompositionError as exc:
        return str(exc)


def test_helly_exit_on_a_tree_invalid_elsewhere():
    # root 0 sees 1, 2 and 3, which one bag holds; 4-5 is an edge no bag covers
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (4, 5), (3, 4)])
    broken = (
        ((1, 2, 3), (3, 4), (5, 5)),  # a repeated vertex, and 4-5 uncovered
        ((1, 2, 3), (3, 4), (5, 9)),  # a vertex outside the graph
        ((1, 2, 3), (4,), (5, 3)),  # T(3) disconnected
    )
    for bags in broken:
        td = TreeDecomposition(((0, 1), (1, 2)), bags)
        assert validate(g, td, range(1, 6)) != []
        assert enumerate_uncobagged_pairs(g, 0, td) == []
        assert ref_enumerate_uncobagged_pairs(g, 0, td) == []
    # without a common node the scan runs, and still rejects an adjacent
    # pair that no bag holds
    td = TreeDecomposition(((0, 1),), ((1, 3), (2, 3, 4, 5)))
    assert _pairs_outcome(enumerate_uncobagged_pairs, g, 0, td) == (
        "adjacent pair 1,2 shares no bag; decomposition invalid"
    )
    assert _pairs_outcome(ref_enumerate_uncobagged_pairs, g, 0, td) == (
        "adjacent pair 1,2 shares no bag; decomposition invalid"
    )


def test_helly_exit_matches_the_scan_on_random_trees():
    rng = random.Random(2026)
    exits = 0
    for _ in range(600):
        k, n = rng.randint(1, 8), rng.randint(2, 9)
        edges = tuple((rng.randrange(t), t) for t in range(1, k))
        bags = [set(rng.sample(range(n), rng.randint(0, n))) for _ in range(k)]
        if rng.random() < 0.3:
            bags[rng.randrange(k)] |= set(range(n))  # one bag holds everything
        td = TreeDecomposition(edges, tuple(tuple(sorted(b)) for b in bags))
        g = random_graph(n + 1, 0.5, rng)
        r = n  # the root, outside td
        got = _pairs_outcome(enumerate_uncobagged_pairs, g, r, td)
        assert got == _pairs_outcome(ref_enumerate_uncobagged_pairs, g, r, td)
        held = [td.node_mask(v) for v in ref_root_neighbors(g, r, td)]
        exits += bool(reduce(lambda a, b: a & b, held, -1))
    assert exits > 100


def test_the_exit_keeps_every_engine_call(p5_kll_corpus, monkeypatch):
    # the exit returns early but drops no call: the more-than-200 pin in
    # test_node_masks.py still sees every scan, and with the old scan in its
    # place the engine makes the same number of scans
    def counts(scan) -> dict[str, int]:
        seen = {"enumerate_uncobagged_pairs": 0}
        real = {"enumerate_uncobagged_pairs": scan}
        for name in seen:

            def counted(*args, _name=name):
                seen[_name] += 1
                return real[_name](*args)

            monkeypatch.setattr(dec, name, counted)
        for g, ell, _ in p5_kll_corpus:
            dec.decompose(g, ell, check_p5=False)
        monkeypatch.undo()
        return seen

    with_exit = counts(enumerate_uncobagged_pairs)
    without = counts(ref_enumerate_uncobagged_pairs)
    assert with_exit["enumerate_uncobagged_pairs"] > 200
    assert with_exit == without
