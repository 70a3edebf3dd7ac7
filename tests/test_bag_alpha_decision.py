"""The bag bound as a decision: ``alpha_exceeds`` and ``td_alpha_exceeds``.

The engine only ever compares independence numbers with a threshold, so it
asks "is alpha > k?" and lets the search stop once that is settled.  These
tests pin the decision against the exact value at the primitive level, and
check that routing the engine's threshold tests through it changes no output:
with the decision swapped back to exact comparisons, every decomposition,
witness and log is the same.
"""

import random

import pytest

from treealpha import decomposer, oracles
from treealpha.decomposer import (
    DecompositionError,
    PairContext,
    _check_surgery_output,
    approximate_tia,
    decompose,
)
from treealpha.graph import Graph, mask_of
from treealpha.harness import gen_p5_free
from treealpha.oracles import (
    ForbiddenStructureFound,
    Witness,
    _mis_mask,
    alpha_exceeds,
    alpha_mask,
    alpha_of_subset,
)
from treealpha.treedecomp import (
    TreeDecomposition,
    serialize_td,
    td_alpha,
    td_alpha_exceeds,
    validate,
)

from conftest import complete, edgeless, random_graph


def _disjoint_union(a: Graph, b: Graph) -> Graph:
    return Graph(a.n + b.n, list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()])


def _graphs(count: int, seed: int):
    """Random graphs with n <= 30: sparse to dense, plus the extreme shapes."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(0, 30)
        kind = i % 6
        if kind == 0:
            yield edgeless(n)
        elif kind == 1:
            yield complete(n)
        elif kind == 2:
            k = rng.randint(0, n)
            yield _disjoint_union(
                random_graph(k, rng.random(), rng), random_graph(n - k, rng.random(), rng)
            )
        else:
            yield random_graph(n, rng.choice((0.1, 0.3, 0.5, 0.8)), rng)


def _masks(g: Graph, rng: random.Random):
    full = (1 << g.n) - 1
    yield 0
    yield full
    for _ in range(3):
        yield rng.getrandbits(g.n) if g.n else 0


def _exact_threshold(g, mask, k):
    return alpha_mask(g, mask) > k


def _exact_td_threshold(g, td, k):
    return max((alpha_of_subset(g, bag) for bag in td.bags), default=0) > k


# -- primitives ----------------------------------------------------------------


def test_alpha_exceeds_matches_exact_alpha():
    rng = random.Random(8)
    graphs = 0
    for g in _graphs(300, 20260801):
        graphs += 1
        for mask in _masks(g, rng):
            alpha = alpha_mask(g, mask)
            for k in range(-1, g.n + 1):
                assert alpha_exceeds(g, mask, k) == (alpha > k), (g.n, mask, k)
    assert graphs == 300


def test_mis_mask_floor_returns_the_unpruned_set_or_nothing():
    rng = random.Random(9)
    for g in _graphs(120, 20260802):
        bits = g.adjacency_bits()
        for mask in _masks(g, rng):
            best = _mis_mask(bits, mask)
            for floor in range(-1, mask.bit_count() + 2):
                want = best if best.bit_count() > floor else -1
                assert _mis_mask(bits, mask, floor) == want, (g.n, mask, floor)


def test_mis_mask_floor_carries_across_components(monkeypatch):
    h = gen_p5_free(40, 3, "union-join")
    g = Graph(160, [(u + 40 * i, v + 40 * i) for i in range(4) for u, v in h.edges()])
    bits, full = g.adjacency_bits(), (1 << g.n) - 1
    best = _mis_mask(bits, full)
    alpha = best.bit_count()
    assert alpha == 4 * alpha_mask(h, (1 << h.n) - 1)
    searched = {}
    for k in (-1, alpha - 1, alpha, alpha + 1):
        calls = [0]

        def counted(bits, mask, inner=oracles.component):
            calls[0] += 1
            return inner(bits, mask)

        with monkeypatch.context() as m:
            m.setattr(oracles, "component", counted)
            assert _mis_mask(bits, full, k) == (best if alpha > k else -1), k
            assert alpha_exceeds(g, full, k) == (alpha > k), k
        searched[k] = calls[0]
    # a "no" stops at the last copy, which cannot beat what the floor leaves
    # it; a floor that every component ignored searched as much as k = -1
    assert searched[alpha] < searched[-1]
    assert searched[alpha + 1] < searched[-1]


def test_td_alpha_exceeds_on_engine_decompositions(p5_kll_corpus):
    checked = 0
    for g, ell, _ in p5_kll_corpus[::3]:
        td = decompose(g, ell, check_p5=False)
        assert isinstance(td, TreeDecomposition)
        exact = td_alpha(g, td)
        assert exact == max((alpha_of_subset(g, bag) for bag in td.bags), default=0)
        for k in range(-1, exact + 2):
            assert td_alpha_exceeds(g, td, k) == (exact > k)
        checked += 1
    assert checked == 32


def test_td_alpha_exceeds_with_repeated_bags():
    for g in _graphs(60, 20260803):
        if g.n == 0:
            continue
        full = tuple(range(g.n))
        halves = (full[: g.n // 2 + 1], full[g.n // 2 :])
        # a star of bags around a whole-graph bag, every bag repeated
        bags = (full, halves[0], halves[0], halves[1], halves[1], full)
        td = TreeDecomposition(tuple((0, t) for t in range(1, len(bags))), bags)
        assert validate(g, td) == []
        exact = td_alpha(g, td)
        assert exact == alpha_mask(g, mask_of(g, full))
        for k in range(-1, g.n + 1):
            assert td_alpha_exceeds(g, td, k) == (exact > k)


# -- the engine ----------------------------------------------------------------


def _engine_outputs(graphs):
    """Every decompose outcome at ell = 2, 3, 4, and approximate_tia."""
    out = []
    for g in graphs:
        for ell in (2, 3, 4):
            log: list = []
            got = decompose(g, ell, check_p5=False, log=log)
            text = serialize_td(got) if isinstance(got, TreeDecomposition) else got
            out.append((ell, text, log))
        log = []
        k_star, td, ell_star = approximate_tia(g, log=log)
        out.append((k_star, serialize_td(td), ell_star, log))
    return out


def test_engine_outputs_equal_the_exact_threshold_engine(
    p5_kll_corpus, p5_corpus, monkeypatch
):
    graphs = [g for g, _, _ in p5_kll_corpus] + [g for g, _ in p5_corpus]
    decided = _engine_outputs(graphs)
    monkeypatch.setattr(decomposer, "alpha_exceeds", _exact_threshold)
    monkeypatch.setattr(decomposer, "td_alpha_exceeds", _exact_td_threshold)
    assert _engine_outputs(graphs) == decided
    # the comparison covers witnesses, bad-pair surgeries and plain ones
    assert any(isinstance(o[1], Witness) for o in decided)
    kinds = {pair[3] for o in decided for entry in o[-1] for pair in entry["pairs"]}
    assert kinds == {"bad", "plain"}


# (n, seed) of perturb-filter graphs whose bad pairs have an attachment u
# with alpha(N_x - N_u) at ell - 1 or ell: the edge of the `movable` test
MOVABLE_EDGE = ((39, 18), (40, 78), (19, 130), (37, 144))


def test_pair_context_thresholds_equal_exact_alpha(p5_kll_corpus, monkeypatch):
    """``bad`` and ``movable`` on every context the engine builds, field by field.

    A ``movable`` threshold off by one leaves the engine's outputs on these
    graphs unchanged, so the fields are compared directly.
    """
    real = decomposer.build_pair_context
    near = set()  # (bad, alpha - ell) where a subset alpha is ell - 1 or ell

    def checked(g, r, td, x, y, ell):
        ctx = real(g, r, td, x, y, ell)
        nrx, nry = ctx.nrbar[x], ctx.nrbar[y]
        assert ctx.bad == (alpha_of_subset(g, ctx.w_x) >= ell)
        for u in ctx.u_all:
            rest = nrx - ctx.nrbar[u]
            alpha = alpha_of_subset(g, rest)
            assert (u in ctx.movable) == (rest <= nry and alpha <= ell - 1)
            if rest <= nry and alpha in (ell - 1, ell):
                near.add((ctx.bad, alpha - ell))
        return ctx

    monkeypatch.setattr(decomposer, "build_pair_context", checked)
    graphs = [g for g, _, _ in p5_kll_corpus]
    graphs += [gen_p5_free(n, seed, "perturb-filter") for n, seed in MOVABLE_EDGE]
    for g in graphs:
        approximate_tia(g)
    assert {(True, -1), (True, 0)} <= near


def test_bad_pair_with_a_large_y_side_yields_the_biclique():
    """alpha(W_y) exactly ell: the bad-pair check must raise, not pass."""
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
    assert validate(g, td, range(1, g.n)) == []
    with pytest.raises(ForbiddenStructureFound, match="both private sides") as info:
        decomposer.build_pair_context(g, r, td, x, y, ell)
    assert info.value.witness.parts == (a_side, b_side)


def _star_context(leaves: int, ell: int) -> tuple[PairContext, TreeDecomposition]:
    """Root 0 joined to ``leaves`` independent vertices, all in one bag.

    A star is P5-free and has no induced K_{2,2}, so a bag over its leaves is
    a valid decomposition of the level minus the root whose only fault can be
    the bag bound.
    """
    g = Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
    out = TreeDecomposition((), (tuple(range(1, leaves + 1)),))
    ctx = PairContext(g=g, root=0, td=out, x=1, y=2, ell=ell)
    ctx.level = set(range(leaves + 1))
    return ctx, out


def test_surgery_check_still_catches_a_bag_above_the_bound(monkeypatch):
    ell = 2
    ctx, out = _star_context(4 * ell + 1, ell)
    assert validate(ctx.g, out, ctx.level - {0}) == []
    assert td_alpha(ctx.g, out) == 4 * ell + 1
    calls = []
    real = decomposer._postcondition_failure

    def spy(g, level_ell, msg):
        calls.append(msg)
        real(g, level_ell, msg)

    monkeypatch.setattr(decomposer, "_postcondition_failure", spy)
    with pytest.raises(DecompositionError, match="exceeded the 4\\*ell bag bound"):
        _check_surgery_output(ctx, out, "surgery")
    assert calls == ["surgery exceeded the 4*ell bag bound"]


def test_surgery_check_accepts_a_bag_at_the_bound():
    ell = 2
    ctx, out = _star_context(4 * ell, ell)
    assert td_alpha(ctx.g, out) == 4 * ell
    _check_surgery_output(ctx, out, "surgery")
