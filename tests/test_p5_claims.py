"""The pair context's P5 claims against the hand-built witnesses they replaced.

A failed P5 claim now raises the first induced P5 of the root's level through
``decomposer._refute_p5``.  Before, each claim built its own five-vertex path
from the vertices it named.  The reference functions below are those earlier
assertions, verbatim.  On every pair context the engine builds, the new and
old assertions must agree on whether they raise, the exception type and the
message.  A new P5 witness must verify, lie inside the level, and be the
first induced P5 of the level's induced subgraph, lifted to host ids.

The last tests scan ``decomposer.py`` itself.  Every ``_refute_p5`` call
passes one of the nine pinned claim messages as a literal, each message
appears once, and the hand-built path witnesses are gone.
"""

import ast
import random
from pathlib import Path
from typing import Optional

import pytest

import treealpha.decomposer as dec
from treealpha.decomposer import (
    DecompositionError,
    _raise_with_witness,
    _rim,
    decompose,
)
from treealpha.graph import Graph, VertexSet, induced_subgraph, mask_of
from treealpha.oracles import (
    PATH,
    ForbiddenStructureFound,
    alpha_exceeds,
    biclique_witness,
    find_induced_path,
    max_independent_subset,
    path_witness,
    verify_witness,
)

from conftest import random_graph

P5_CLAIMS = (
    "component touches a private neighbor of x",
    "component touches a private neighbor of y",
    "component not complete to a one-sided attachment",
    "private sides of a bad pair are not complete to each other",
    "one-sided attachments of x and y are not complete",
    "outward neighbor of r misses a private neighbor of x",
    "outward neighbor of r misses a private neighbor of y",
    "component not complete to its common-side attachment",
    "isolated-attachment vertex is not movable",
)


# -- reference: the hand-built witnesses, verbatim ---------------------------------


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


def _assert_component_structure(ctx, nrx: set, nry: set) -> None:
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


def _assert_bad_pair_structure(ctx, nrx: set, nry: set) -> None:
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


# -- the comparison ----------------------------------------------------------------


def _raised(check, *args):
    try:
        check(*args)
    except (ForbiddenStructureFound, DecompositionError) as exc:
        return exc
    return None


class _Differential:
    """Runs the old assertion beside each new one the engine calls."""

    def __init__(self, monkeypatch):
        self.contexts = 0
        self.raised: set[str] = set()  # messages of the refutations seen
        for name, ref in (
            ("_assert_component_structure", _assert_component_structure),
            ("_assert_bad_pair_structure", _assert_bad_pair_structure),
        ):
            monkeypatch.setattr(dec, name, self._beside(getattr(dec, name), ref))

    def _beside(self, new, ref):
        def check(ctx):
            got = _raised(new, ctx)
            want = _raised(ref, ctx, ctx.nrbar[ctx.x], ctx.nrbar[ctx.y])
            self.contexts += 1
            assert type(got) is type(want), (ctx.g, ctx.root, ctx.x, ctx.y, got, want)
            assert str(got) == str(want)
            if isinstance(got, ForbiddenStructureFound):
                if got.witness.kind == PATH:
                    self._check_p5(ctx, got)
                else:
                    assert got.witness == want.witness
            if got is not None:
                self.raised.add(str(got))
                raise got
        return check

    def _check_p5(self, ctx, exc):
        g, (path,) = ctx.g, exc.witness.parts
        assert verify_witness(g, exc.witness) and len(path) == 5
        assert set(path) <= ctx.level
        sub, mapping = induced_subgraph(g, ctx.level)
        (first,) = find_induced_path(sub, 5).parts
        assert tuple(mapping[v] for v in first) == path


def _run(g: Graph, ell: int, check_p5: bool = True) -> None:
    try:
        decompose(g, ell, check_p5=check_p5)
    except ForbiddenStructureFound as exc:
        assert exc.witness.kind == PATH


def _random_graphs():
    rng = random.Random(20261018)
    for _ in range(400):
        yield random_graph(rng.randint(5, 13), rng.choice([0.25, 0.4, 0.6]), rng)


# Random graphs outside the corpus above whose surgery fails a rarer claim.
_RARE = {
    "both private sides have large independent sets": Graph(9, [
        (0, 7), (1, 3), (1, 8), (2, 3), (2, 5), (2, 7), (3, 4), (4, 5), (4, 7),
        (5, 8), (7, 8),
    ]),
    "outward neighbor of r misses a private neighbor of y": Graph(9, [
        (0, 1), (0, 4), (0, 6), (0, 8), (1, 2), (1, 4), (1, 7), (1, 8), (2, 4),
        (2, 5), (2, 8), (3, 4), (3, 8), (4, 7), (4, 8), (5, 6), (5, 7), (5, 8),
    ]),
    "component not complete to its common-side attachment": Graph(8, [
        (0, 1), (0, 3), (1, 5), (2, 5), (2, 7), (3, 4), (3, 5), (3, 6), (4, 5),
        (5, 6),
    ]),
}


def test_claims_agree_on_the_p5_free_corpora(monkeypatch, p5_kll_corpus, p5_corpus):
    diff = _Differential(monkeypatch)
    for g, ell, _ in p5_kll_corpus:
        _run(g, ell)
    for g, _ in p5_corpus:
        for ell in (2, 3):
            _run(g, ell)
    assert diff.contexts > 100
    assert diff.raised == set()


def test_claims_agree_on_random_graphs(monkeypatch):
    diff = _Differential(monkeypatch)
    for g in _random_graphs():
        for ell in (2, 3):
            _run(g, ell, check_p5=False)
    assert diff.contexts > 400
    assert diff.raised == {
        "component touches a private neighbor of x",
        "component touches a private neighbor of y",
        "component not complete to a one-sided attachment",
        "private sides of a bad pair are not complete to each other",
        "one-sided attachments of x and y are not complete",
        "outward neighbor of r misses a private neighbor of x",
    }


@pytest.mark.parametrize("claim", sorted(_RARE))
def test_claims_agree_on_rarer_refutations(monkeypatch, claim):
    diff = _Differential(monkeypatch)
    _run(_RARE[claim], 2, check_p5=False)
    assert claim in diff.raised


def test_a_failed_claim_in_a_level_without_p5_is_an_internal_error(monkeypatch):
    g = _RARE["outward neighbor of r misses a private neighbor of y"]
    monkeypatch.setattr(dec, "_induced_path_within", lambda bits, t, mask: None)
    with pytest.raises(DecompositionError, match="internal bug") as info:
        decompose(g, 2, check_p5=False)
    assert str(info.value).startswith(tuple(P5_CLAIMS))


# -- the module's own text ---------------------------------------------------------


def _module_tree() -> ast.Module:
    return ast.parse(Path(dec.__file__).read_text())


def test_every_p5_claim_refutes_through_the_shared_helper():
    messages = []
    for node in ast.walk(_module_tree()):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_refute_p5":
            assert len(node.args) == 3 and not node.keywords, ast.dump(node)
            msg = node.args[2]
            assert isinstance(msg, ast.Constant) and isinstance(msg.value, str), (
                f"line {node.lineno}: the claim message must be a string literal"
            )
            messages.append(msg.value)
    assert sorted(messages) == sorted(P5_CLAIMS)


def test_no_hand_built_path_witness_is_left():
    names = set()
    for node in ast.walk(_module_tree()):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    for gone in ("path_witness", "_first_noncomplete", "_adjacency_flip_on_path"):
        assert gone not in names
