"""The saturation round's arguments, checked where the engine runs them.

Both surgeries hang their component copies through one helper and end in one
check, ``_check_surgery_output``, which raises unless the pair shares a bag;
``saturate_root`` therefore keeps only the strict-growth and compression
checks, which bound its rounds by C(deg r, 2).  ``compress`` contracts in one
pass what the old restart-from-node-0 loop, kept below verbatim, contracted.
A component's stray rim vertex always lies in W_x or W_y, so the stray-rim
error that followed the two P5 refutations is gone.  The biclique claims share
``_refute_biclique``, which reports a short side as an internal bug.
"""

import ast
import random
from math import comb
from pathlib import Path

import pytest

import treealpha.decomposer as dec
from treealpha.decomposer import (
    DecompositionError,
    PairContext,
    _check_surgery_output,
    _refute_biclique,
    _rim,
    decompose,
)
from treealpha.graph import Graph
from treealpha.oracles import ForbiddenStructureFound
from treealpha.treedecomp import TreeDecomposition, compress

from conftest import complete_bipartite, random_graph


# -- reference: the restart loop, verbatim -------------------------------------------


def ref_compress(td: TreeDecomposition) -> TreeDecomposition:
    """Contract tree edges whose one bag is contained in the other.

    Keeps validity, bag independence, and every co-bagged vertex pair, while
    shrinking the node count (no adjacent containment remains).
    """
    bags = [set(b) for b in td.bags]
    adj = [set(td.node_neighbors(t)) for t in range(td.node_count)]
    alive = [True] * td.node_count
    changed = True
    while changed:
        changed = False
        for t in range(td.node_count):
            if not alive[t]:
                continue
            for s in sorted(adj[t]):
                if bags[s] <= bags[t]:
                    # contract s into t
                    for q in adj[s]:
                        if q != t:
                            adj[q].discard(s)
                            adj[q].add(t)
                            adj[t].add(q)
                    adj[t].discard(s)
                    alive[s] = False
                    adj[s] = set()
                    changed = True
                    break
            if changed:
                break
    keep = [t for t in range(td.node_count) if alive[t]]
    index = {t: i for i, t in enumerate(keep)}
    edges = sorted(
        (min(index[a], index[b]), max(index[a], index[b]))
        for a in keep
        for b in adj[a]
        if a < b
    )
    return TreeDecomposition(
        tuple(edges), tuple(tuple(sorted(bags[t])) for t in keep)
    )


# -- running the engine ---------------------------------------------------------------


def _random_graphs(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_graph(rng.randint(5, 13), rng.choice([0.25, 0.4, 0.6]), rng)


def _run(g: Graph, ell: int, check_p5: bool = True, log=None) -> None:
    try:
        decompose(g, ell, check_p5=check_p5, log=log)
    except ForbiddenStructureFound:
        pass


def _run_everything(p5_kll_corpus, p5_corpus, log=None) -> None:
    for g, ell, _ in p5_kll_corpus:
        _run(g, ell, log=log)
    for g, _ in p5_corpus:
        for ell in (2, 3):
            _run(g, ell, log=log)
    for g in _random_graphs(100, 20261019):
        for ell in (2, 3):
            _run(g, ell, check_p5=False, log=log)


# -- compress in one pass ---------------------------------------------------------------


def test_compress_equals_the_restart_loop_on_every_surgery_output(
    monkeypatch, p5_kll_corpus, p5_corpus
):
    inputs = []
    real = dec.compress

    def record(td):
        inputs.append(td)
        return real(td)

    monkeypatch.setattr(dec, "compress", record)
    _run_everything(p5_kll_corpus, p5_corpus)
    assert len(inputs) > 200
    assert any(compress(td).node_count < td.node_count for td in inputs)
    for td in inputs:
        assert compress(td) == ref_compress(td)


def test_compress_equals_the_restart_loop_on_random_trees():
    rng = random.Random(1912)
    for _ in range(500):
        k = rng.randint(1, 12)
        edges = tuple((rng.randrange(t), t) for t in range(1, k))
        bags = tuple(
            tuple(sorted(rng.sample(range(6), rng.randint(0, 4)))) for _ in range(k)
        )
        td = TreeDecomposition(edges, bags)
        assert compress(td) == ref_compress(td)


# -- the stray-rim argument --------------------------------------------------------------


def test_every_rim_lies_in_m_and_its_root_part_in_u(monkeypatch, p5_kll_corpus, p5_corpus):
    seen = {"contexts": 0, "stray": 0}
    real = dec._assert_component_structure

    def check(ctx):
        nr = set(ctx.nrbar)
        for comp in ctx.comps:
            rim = _rim(ctx.g, comp, ctx.level)
            assert rim <= ctx.m
            assert rim & nr <= ctx.u_all
            stray = rim - ctx.u_all - ctx.w_xy
            assert stray <= ctx.w_x | ctx.w_y
            seen["stray"] += bool(stray)
        seen["contexts"] += 1
        real(ctx)

    monkeypatch.setattr(dec, "_assert_component_structure", check)
    _run_everything(p5_kll_corpus, p5_corpus)
    assert seen["contexts"] > 400
    assert seen["stray"] > 0  # the random graphs reach the refutations


# -- the round bound -------------------------------------------------------------------


def test_every_saturation_ends_within_its_pair_count(p5_kll_corpus, p5_corpus):
    log: list = []
    _run_everything(p5_kll_corpus, p5_corpus, log=log)
    assert len(log) > 200
    assert max(entry["iterations"] for entry in log) > 1
    for entry in log:
        assert entry["iterations"] <= comb(entry["degree"], 2)


# -- one copy step and one check ---------------------------------------------------------


def _function(name: str) -> ast.FunctionDef:
    tree = ast.parse(Path(dec.__file__).read_text())
    return next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


@pytest.mark.parametrize("name", ["transform_plain_pair", "transform_bad_pair"])
def test_each_surgery_copies_through_the_helper_and_ends_in_the_check(name):
    fn = _function(name)
    called = {
        node.func.id for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "_append_copy" in called
    last = fn.body[-1]
    assert isinstance(last, ast.Return)
    assert last.value.func.id == "_check_surgery_output"


def test_surgery_check_returns_the_tree_and_rejects_a_split_pair():
    # root 0 with neighbors 1 and 2, which no bag of ``split`` holds together
    g = Graph(3, [(0, 1), (0, 2)])
    ctx = PairContext(g=g, root=0, td=None, x=1, y=2, ell=2)
    ctx.level = {0, 1, 2}
    joined = TreeDecomposition((), ((1, 2),))
    assert _check_surgery_output(ctx, joined, "surgery") is joined
    split = TreeDecomposition(((0, 1),), ((1,), (2,)))
    with pytest.raises(DecompositionError, match="failed to co-bag the chosen pair"):
        _check_surgery_output(ctx, split, "surgery")


# -- the biclique claims --------------------------------------------------------------


def test_refute_biclique_raises_the_first_sides_biclique():
    g = complete_bipartite(3, 3)
    with pytest.raises(ForbiddenStructureFound, match="^claim$") as info:
        _refute_biclique(g, {0, 1, 2}, {3, 4, 5}, 2, "claim")
    assert info.value.witness.parts == ((0, 1), (3, 4))


def test_refute_biclique_reports_a_short_side_as_an_internal_bug():
    # W_x = {1, 2, 3} independent, S = {4, 5, 6} a triangle complete to it:
    # the claim's sides are complete, but S has alpha 1 < ell = 2
    ell = 2
    edges = [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 6)]
    edges += [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]
    g = Graph(7, edges)
    msg = "isolated-attachment vertex is not movable"
    with pytest.raises(DecompositionError, match=r"\(internal bug\)$") as info:
        _refute_biclique(g, {1, 2, 3}, {4, 5, 6}, ell, msg)
    assert str(info.value).startswith(msg)


def test_no_biclique_claim_builds_its_own_witness():
    fn = _function("_assert_bad_pair_structure")
    names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
    assert "biclique_witness" not in names
    assert "_refute_biclique" in names
