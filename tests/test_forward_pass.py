"""The once-per-graph forward pass against the per-level search it replaced.

``_reference_decompose`` and ``_reference_approximate_tia`` below are the
engine's entry points as they were when every ``decompose`` call ran its own
forward pass (one ``low_alpha_vertex`` search of the whole level per root)
and ``approximate_tia`` ran ``decompose`` once per ell.  They stay here
verbatim as the reference the shared order must match exactly: the same
roots and neighborhood alphas, decompositions, logs, witnesses and raised
exceptions.
"""

import random
from typing import Optional, Union

import pytest

import treealpha.decomposer as dec
import treealpha.treedecomp as tdm
from treealpha.decomposer import (
    DecompositionError,
    _elimination_order,
    _level,
    approximate_tia,
    decompose,
    saturate_root,
)
from treealpha.degeneracy import low_alpha_vertex
from treealpha.graph import Graph, vertex_set
from treealpha.harness import gen_p5_free
from treealpha.oracles import (
    BICLIQUE,
    ForbiddenStructureFound,
    Witness,
    find_induced_path,
)
from treealpha.treedecomp import (
    TreeDecomposition,
    find_bag_containing_set,
    serialize_td,
    single_bag_decomposition,
    td_alpha,
    td_alpha_exceeds,
    validate,
)

from conftest import random_graph


# -- reference: one forward pass per decompose call, verbatim -----------------------


def _reference_decompose(
    g: Graph,
    ell: int,
    check_p5: bool = True,
    log: Optional[list] = None,
) -> Union[Witness, TreeDecomposition]:
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


def _reference_approximate_tia(
    g: Graph, log: Optional[list] = None
) -> tuple[int, TreeDecomposition, int]:
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
        got = _reference_decompose(g, ell, check_p5=False, log=log)
        if isinstance(got, TreeDecomposition):
            return td_alpha(g, got), got, ell
        ell += 1
        if ell > g.n // 2 + 1:
            raise DecompositionError("no decomposition up to the biclique limit")


def _reference_order(g: Graph) -> list[tuple[int, int]]:
    """The per-level search's roots and alpha(N[r]), at an ell it never rejects."""
    alive = set(range(g.n))
    out = []
    while len(alive) >= 2:
        report = low_alpha_vertex(g, g.n + 1, 2, within=alive)
        out.append((report.vertex, report.alpha_closed))
        alive.remove(report.vertex)
    return out


# -- inputs -------------------------------------------------------------------------


def _relabelled_union(parts: list[Graph], rng: random.Random) -> Graph:
    """Disjoint union of ``parts`` with its vertex ids shuffled."""
    n = sum(h.n for h in parts)
    perm = list(range(n))
    rng.shuffle(perm)
    edges, start = [], 0
    for h in parts:
        edges += [(perm[u + start], perm[v + start]) for u, v in h.edges()]
        start += h.n
    return Graph(n, edges)


def _p5_free_cases():
    for n in (6, 11, 17, 24, 31):
        for seed in range(3):
            for method in ("union-join", "perturb-filter"):
                yield gen_p5_free(n, seed, method)
    rng = random.Random(909)
    for k in range(12):
        parts = [
            gen_p5_free(rng.randint(1, 12), rng.randrange(1 << 20), method)
            for method in ("union-join", "perturb-filter")[: 1 + k % 2]
            for _ in range(1 + k % 4)
        ]
        yield _relabelled_union(parts, rng)


def _random_cases():
    rng = random.Random(4077)
    for _ in range(100):
        yield random_graph(rng.randint(4, 20), rng.choice([0.15, 0.3, 0.5, 0.7]), rng)


def _outcome(run):
    """(result or raised exception, log) of one engine run, comparable by ==."""
    log: list = []
    try:
        got = run(log)
    except ForbiddenStructureFound as exc:
        return ("raised", type(exc), str(exc), exc.witness), log
    except DecompositionError as exc:
        return ("raised", type(exc), str(exc), None), log
    if isinstance(got, TreeDecomposition):
        return ("td", serialize_td(got)), log
    if isinstance(got, Witness):
        return ("witness", got), log
    k, td, ell = got
    return ("tia", k, serialize_td(td), ell), log


# -- the order ----------------------------------------------------------------------


def test_order_matches_the_per_level_search(p5_kll_corpus):
    graphs = [g for g, _, _ in p5_kll_corpus] + list(_p5_free_cases())
    graphs += list(_random_cases())
    graphs += [Graph(0, []), Graph(1, []), Graph(2, [(0, 1)]), Graph(5, [])]
    for g in graphs:
        assert list(_elimination_order(g)) == _reference_order(g), g


# -- decompose and approximate_tia --------------------------------------------------


def test_decompose_matches_the_per_level_reference(p5_kll_corpus):
    cases = [(g, ell) for g, ell, _ in p5_kll_corpus]
    cases += [(g, ell) for g in _p5_free_cases() for ell in (2, 3)]
    kinds = set()
    for g, ell in cases:
        got = _outcome(lambda log: decompose(g, ell, log=log))
        want = _outcome(lambda log: _reference_decompose(g, ell, log=log))
        assert got == want, (g, ell)
        kinds.add(got[0][0])
    assert kinds == {"td", "witness"}


def test_decompose_without_the_p5_check_matches_on_random_graphs():
    kinds = set()
    for g in _random_cases():
        for ell in (2, 3):
            got = _outcome(lambda log: decompose(g, ell, check_p5=False, log=log))
            want = _outcome(
                lambda log: _reference_decompose(g, ell, check_p5=False, log=log)
            )
            assert got == want, (g, ell)
            kinds.add(got[0][0])
    assert kinds == {"td", "witness", "raised"}


def test_approximate_tia_matches_the_per_ell_reference(p5_kll_corpus):
    graphs = [g for g, _, _ in p5_kll_corpus] + list(_p5_free_cases())
    graphs += list(_random_cases())[:40]
    ells = set()
    for g in graphs:
        got = _outcome(lambda log: approximate_tia(g, log=log))
        want = _outcome(lambda log: _reference_approximate_tia(g, log=log))
        assert got == want, g
        if got[0][0] == "tia":
            ells.add(got[0][3])
    assert {2, 3} <= ells


def test_a_rejected_level_the_search_accepts_is_an_internal_error(monkeypatch):
    g = Graph(3, [(0, 1), (1, 2)])
    monkeypatch.setattr(dec, "_elimination_order", lambda g: iter([(0, 9), (1, 1)]))
    with pytest.raises(DecompositionError, match="low_alpha_vertex accepted"):
        decompose(g, 2)


def test_a_component_search_below_its_floor_is_an_internal_error(monkeypatch):
    g = Graph(3, [(0, 1), (1, 2)])
    monkeypatch.setattr(dec, "_mis_mask", lambda bits, mask, floor=-1: -1)
    with pytest.raises(DecompositionError, match="missed its floor"):
        decompose(g, 2)


# -- with_leaf ----------------------------------------------------------------------


def _assert_same_decomposition(got: TreeDecomposition, want: TreeDecomposition, g: Graph):
    assert got == want
    assert (got.edges, got.bags) == (want.edges, want.bags)
    assert [got.node_neighbors(t) for t in range(got.node_count)] == [
        want.node_neighbors(t) for t in range(want.node_count)
    ]
    for v in range(-1, g.n + 2):
        assert got.node_mask(v) == want.node_mask(v)
    assert got.vertices() == want.vertices()
    assert got.rooted == want.rooted


def test_with_leaf_equals_the_constructor():
    rng = random.Random(31)
    checked = 0
    for g in _p5_free_cases():
        td = decompose(g, 3)
        if not isinstance(td, TreeDecomposition):
            continue
        td.rooted  # a cached index must not leak into the extended one
        for _ in range(3):
            t = rng.randrange(td.node_count)
            bag = vertex_set(rng.sample(range(g.n + 2), rng.randint(0, 4)))
            want = TreeDecomposition(td.edges + ((t, td.node_count),), td.bags + (bag,))
            got = td.with_leaf(t, bag)
            _assert_same_decomposition(got, want, g)
            td = got
            checked += 1
    assert checked > 50
    single = single_bag_decomposition((0, 1))
    _assert_same_decomposition(
        single.with_leaf(0, (1, 2)),
        TreeDecomposition(((0, 1),), ((0, 1), (1, 2))),
        Graph(3, []),
    )
    for t in (-1, 1):
        with pytest.raises(ValueError, match="bad tree edge"):
            single.with_leaf(t, (0,))


# -- scaling guard: deterministic counts, not wall time -----------------------------


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


def test_forward_pass_and_leaf_appends_scale_linearly_on_triangles(monkeypatch):
    g = _triangles(350)
    counts = {"mis": 0, "node_masks": 0}
    mis, fold = dec._mis_mask, tdm.node_masks

    def counted_mis(*args):
        counts["mis"] += 1
        return mis(*args)

    def counted_fold(*args):
        counts["node_masks"] += 1
        return fold(*args)

    monkeypatch.setattr(dec, "_mis_mask", counted_mis)
    monkeypatch.setattr(tdm, "node_masks", counted_fold)
    td = decompose(g, 2, check_p5=False)
    assert isinstance(td, TreeDecomposition) and td.node_count == g.n
    # one solve per component as it appears, one alpha(N[r]) per root
    assert counts["mis"] <= 3 * g.n
    # no surgery runs on triangles, so only the starting single bag is folded
    assert counts["node_masks"] == 1
