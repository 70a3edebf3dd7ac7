from math import comb

import pytest

from treealpha.decomposer import (
    approximate_tia,
    build_pair_context,
    decompose,
    enumerate_uncobagged_pairs,
    saturate_root,
    select_pair,
    transform_bad_pair,
    transform_plain_pair,
)
from treealpha.graph import Graph
from treealpha.oracles import (
    ForbiddenStructureFound,
    Witness,
    verify_witness,
)
from treealpha.treedecomp import (
    TreeDecomposition,
    cobagged_pairs,
    single_bag_decomposition,
    td_alpha,
    validate,
)

from conftest import complete, complete_bipartite, cycle, edgeless, path_graph

C5 = cycle(5)
C5_MINUS_0_TD = TreeDecomposition(((0, 1), (1, 2)), ((1, 2), (2, 3), (3, 4)))

# star-of-star: 0 is the root, leg 1 has private leaves 4 and 5
SPIDER = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
SPIDER_TD = TreeDecomposition(
    ((0, 1), (1, 2), (2, 3)), ((1, 4, 5), (), (2,), (3,))
)


def test_enumerate_uncobagged_pairs_c5():
    assert enumerate_uncobagged_pairs(C5, 0, C5_MINUS_0_TD) == [(1, 4), (4, 1)]


def test_enumerate_single_bag_and_low_degree():
    g = complete(4)
    assert enumerate_uncobagged_pairs(g, 0, single_bag_decomposition((1, 2, 3))) == []
    p3 = path_graph(3)
    td = single_bag_decomposition((0, 2))
    assert enumerate_uncobagged_pairs(p3, 1, td) == []


def test_select_pair_c5():
    assert select_pair(C5, 0, C5_MINUS_0_TD, 2) == (1, 4, False)


def test_select_pair_none_when_saturated():
    assert select_pair(complete(4), 0, single_bag_decomposition((1, 2, 3)), 2) is None


def test_select_pair_prefers_far_bad_pair():
    # (1,2) and (1,3) are both bad; subtree distances 2 and 3
    assert validate(SPIDER, SPIDER_TD, set(range(1, 6))) == []
    sel = select_pair(SPIDER, 0, SPIDER_TD, 2)
    assert sel == (1, 3, True)


def test_build_pair_context_c5():
    ctx = build_pair_context(C5, 0, C5_MINUS_0_TD, 1, 4, 2)
    assert ctx.m == {1, 2, 3, 4}
    assert ctx.u_all == set()
    assert ctx.w_x == {2} and ctx.w_y == {3} and ctx.w_xy == set()
    assert ctx.comps == ()
    assert ctx.bad is False
    assert (ctx.t_x, ctx.t_y) == (0, 2)


def test_build_pair_context_validates_inputs():
    with pytest.raises(ValueError):
        build_pair_context(C5, 0, C5_MINUS_0_TD, 1, 1, 2)
    with pytest.raises(ValueError):
        build_pair_context(C5, 0, C5_MINUS_0_TD, 2, 3, 2)  # co-bagged pair


def test_plain_transform_reproduces_worked_bags():
    ctx = build_pair_context(C5, 0, C5_MINUS_0_TD, 1, 4, 2)
    out = transform_plain_pair(ctx)
    assert out.bags == ((1, 2), (1, 2, 3), (1, 3, 4))
    assert out.node_count == 3  # no component copies
    assert td_alpha(C5, out) == 2
    assert frozenset((1, 4)) in cobagged_pairs(out, (1, 4))


def test_plain_transform_rejects_bad_context():
    ctx = build_pair_context(SPIDER, 0, SPIDER_TD, 1, 3, 2)
    with pytest.raises(ValueError):
        transform_plain_pair(ctx)


def test_bad_transform_on_spider():
    ctx = build_pair_context(SPIDER, 0, SPIDER_TD, 1, 3, 2)
    assert ctx.bad and ctx.w_x == {4, 5}
    out = transform_bad_pair(ctx)
    assert out.bags == ((1, 4, 5), (1,), (1, 2), (1, 3))
    subset = set(range(6)) - {0}
    assert frozenset((1, 3)) in cobagged_pairs(out, (1, 3))
    assert td_alpha(SPIDER, out) <= 8


def test_bad_transform_pulls_split_outside_vertex():
    # r=0; pair (1,2); 3 hangs off the far side of the node tree; 8 sits
    # outside the neighborhood set with attachments 3 and 7 whose bag sets
    # are disjoint, so 8 must be pulled into the master tree and the
    # component anchor comes from the disjoint-pair branch.
    g = Graph(
        9,
        [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
         (2, 7), (3, 8), (7, 8)],
    )
    from treealpha.oracles import find_induced_path

    assert find_induced_path(g, 5) is None
    td = TreeDecomposition(
        ((0, 1), (1, 2), (2, 3), (3, 4)),
        ((1, 4, 5, 6), (1, 3, 8), (1, 8), (1, 7, 8), (2, 7)),
    )
    assert validate(g, td, set(range(1, 9))) == []
    ctx = build_pair_context(g, 0, td, 1, 2, 3)
    assert ctx.bad and ctx.comps == ((8,),) and not ctx.movable
    out = transform_bad_pair(ctx)
    assert out.bags == (
        (1, 4, 5, 6), (1, 3, 8), (1, 8), (1, 7, 8), (1, 2, 7),
    )
    assert validate(g, out, set(range(1, 9))) == []
    assert frozenset((1, 2)) in cobagged_pairs(out, (1, 2))
    assert td_alpha(g, out) == 3  # within 4 * ell = 12


def test_bad_transform_movable_attachment_keeps_component_outside():
    # the attachment vertex 3 is complete to the private side of x, hence
    # movable: it spreads across every master bag, the outside vertex 7
    # keeps its neighborhood inside one bag (no pull, so the master set
    # stays put), and the component rides its own copy of the tree.
    g = Graph(
        8,
        [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6), (3, 4), (3, 5),
         (3, 6), (3, 7)],
    )
    td = TreeDecomposition(
        ((0, 1), (1, 2), (1, 3)), ((2,), (3, 4, 5, 6), (3, 7), (1, 4, 5, 6))
    )
    ctx = build_pair_context(g, 0, td, 1, 2, 3)
    assert ctx.bad and ctx.u0 == {3} == ctx.movable
    assert ctx.comps == ((7,),)
    out = transform_bad_pair(ctx)
    assert out.node_count == 8  # master plus one full component copy
    master_union = set().union(*map(set, out.bags[:4]))
    assert 7 not in master_union
    assert all(3 in bag for bag in out.bags)  # movable vertex spreads
    assert validate(g, out, set(range(1, 8))) == []
    assert frozenset((1, 2)) in cobagged_pairs(out, (1, 2))
    assert td_alpha(g, out) <= 12


def test_saturate_c5_single_round():
    log = []
    td = saturate_root(C5, 0, C5_MINUS_0_TD, 2, log=log)
    assert log[0]["iterations"] == 1
    assert log[0]["pairs"][0][:2] == (1, 4)
    pairs = cobagged_pairs(td, C5.neighbors(0))
    assert pairs == {frozenset((1, 4))}


def test_saturate_zero_rounds_for_clique_neighborhood():
    g = complete(4)
    log = []
    td = saturate_root(g, 0, single_bag_decomposition((1, 2, 3)), 2, log=log)
    assert log[0]["iterations"] == 0
    assert td.bags == ((1, 2, 3),)


def test_saturate_respects_iteration_budget(p5_kll_corpus):
    for g, ell, _ in p5_kll_corpus[:30]:
        log = []
        res = decompose(g, ell, check_p5=False, log=log)
        for entry in log:
            assert entry["iterations"] <= comb(entry["degree"], 2)


def test_decompose_c5():
    td = decompose(C5, 2)
    assert isinstance(td, TreeDecomposition)
    assert validate(C5, td) == []
    assert td_alpha(C5, td) == 2
    assert any(set(bag) == {0, 1, 4} for bag in td.bags)


def test_decompose_k4_single_chain():
    td = decompose(complete(4), 2)
    assert validate(complete(4), td) == []
    assert td_alpha(complete(4), td) == 1


def test_decompose_k22_dichotomy():
    # alpha(N[v]) = 2 < 2*ell for all v, so the engine may legitimately
    # return a decomposition instead of the biclique; the dichotomy only
    # demands one of the two.
    g = complete_bipartite(2, 2)
    res = decompose(g, 2)
    if isinstance(res, TreeDecomposition):
        assert validate(g, res) == [] and td_alpha(g, res) <= 8
    else:
        assert res.kind == "biclique" and verify_witness(g, res)


def test_decompose_finds_biclique_in_k44():
    g = complete_bipartite(4, 4)
    res = decompose(g, 2)
    assert isinstance(res, Witness) and res.kind == "biclique"
    assert verify_witness(g, res)


def test_decompose_rejects_p5():
    with pytest.raises(ForbiddenStructureFound) as err:
        decompose(path_graph(5), 2)
    assert err.value.witness.kind == "path"


def test_decompose_rejects_small_ell():
    with pytest.raises(ValueError):
        decompose(C5, 1)


def test_decompose_null_and_single():
    td = decompose(Graph(0, []), 2)
    assert td.bags == ((),)
    td = decompose(Graph(1, []), 2)
    assert td.bags == ((0,),)


def test_decompose_dichotomy_on_corpus(p5_corpus):
    for g, seed in p5_corpus:
        for ell in (2, 3):
            res = decompose(g, ell, check_p5=False)
            if isinstance(res, TreeDecomposition):
                assert validate(g, res) == []
                assert td_alpha(g, res) <= 4 * ell
            else:
                assert res.kind == "biclique"
                assert len(res.parts[0]) == ell == len(res.parts[1])
                assert verify_witness(g, res)


def test_decompose_bound_on_biclique_free_corpus(p5_kll_corpus):
    for g, ell, _ in p5_kll_corpus:
        res = decompose(g, ell, check_p5=False)
        assert isinstance(res, TreeDecomposition)
        assert validate(g, res) == []
        assert td_alpha(g, res) <= 4 * ell


def test_decompose_idempotent_under_isolated_vertex(p5_kll_corpus):
    from treealpha.treedecomp import restrict

    for g, ell, _ in p5_kll_corpus[:6]:
        padded = Graph(g.n + 1, g.edges())
        td = decompose(padded, ell, check_p5=False)
        assert isinstance(td, TreeDecomposition)
        core = restrict(td, range(g.n))
        assert validate(g, core) == []


def test_approximate_tia_examples():
    k_star, td, ell_star = approximate_tia(C5)
    assert (k_star, ell_star) == (2, 2)
    assert validate(C5, td) == []
    k_star, td, ell_star = approximate_tia(edgeless(3))
    assert (k_star, ell_star) == (1, 1)
    assert td.node_count == 3
    k_star, td, ell_star = approximate_tia(complete_bipartite(3, 3))
    assert ell_star - 1 <= 3 <= k_star <= 4 * ell_star


def test_approximate_tia_rejects_p5():
    with pytest.raises(ForbiddenStructureFound):
        approximate_tia(path_graph(7))


def test_surgery_converts_broken_promise_to_witness():
    # feed a context built on a graph with a hidden P5 and watch the
    # machinery refuse: the pair (1,4) context on C6-minus-a-vertex style
    g = path_graph(5)
    with pytest.raises(ForbiddenStructureFound):
        decompose(g, 2)
