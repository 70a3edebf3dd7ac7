"""Defensive branches that no engine run reaches, driven by hand.

``_postcondition_failure`` diagnoses a surgery output that broke its bound
by searching the whole input for an induced P5, then for a K_{ell,ell}.
``_assert_bad_pair_structure`` ends in two claims that no corpus graph
fails: every isolated-attachment vertex of a bad pair is movable (a P5 claim,
then a biclique claim), and every y-side attachment that is not movable lies
in the bag t_y.  The tests below take the spider's bad-pair context, empty
every class but W_x so that each earlier claim holds at once, and then set
the few fields that make one branch fail.  Each failure must end in a
verified witness or in its named ``DecompositionError``.
"""

import pytest

from treealpha.decomposer import (
    DecompositionError,
    PairContext,
    _assert_bad_pair_structure,
    _postcondition_failure,
    build_pair_context,
)
from treealpha.graph import Graph
from treealpha.oracles import (
    BICLIQUE,
    PATH,
    ForbiddenStructureFound,
    find_induced_path,
    verify_witness,
)
from treealpha.treedecomp import TreeDecomposition

from conftest import complete_bipartite, cycle, path_graph

NOT_MOVABLE = "isolated-attachment vertex is not movable"

# star-of-star: 0 is the root, leg 1 has private leaves 4 and 5; td decomposes
# the level {0, ..., 5} minus the root, so vertices from 6 on lie outside it
SPIDER_EDGES = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]
SPIDER_TD = TreeDecomposition(((0, 1), (1, 2), (2, 3)), ((1, 4, 5), (), (2,), (3,)))


# -- the postcondition diagnosis ----------------------------------------------


def _diagnosis(g: Graph, ell: int) -> ForbiddenStructureFound:
    with pytest.raises(ForbiddenStructureFound) as caught:
        _postcondition_failure(g, ell, "surgery output exceeds the bound")
    assert verify_witness(g, caught.value.witness)
    return caught.value


def test_postcondition_failure_names_an_induced_p5():
    g = path_graph(5)
    found = _diagnosis(g, 2)
    assert found.witness.kind == PATH and found.witness.size() == 5
    assert str(found) == "surgery output exceeds the bound; input contains an induced P5"


@pytest.mark.parametrize("ell", [2, 3])
def test_postcondition_failure_names_a_biclique_in_a_p5_free_graph(ell):
    g = complete_bipartite(ell, ell)
    assert find_induced_path(g, 5) is None
    found = _diagnosis(g, ell)
    assert found.witness.kind == BICLIQUE and found.witness.size() == ell
    assert str(found) == (
        "surgery output exceeds the bound; input contains an induced biclique"
    )


def test_postcondition_failure_without_a_structure_is_an_internal_bug():
    with pytest.raises(DecompositionError, match="no forbidden structure found"):
        _postcondition_failure(cycle(5), 2, "surgery output exceeds the bound")


# -- the bad-pair claims past the completeness web ----------------------------


def _bare_bad_context(n: int, extra_edges: list[tuple[int, int]]) -> PairContext:
    """The spider's bad pair (1, 3) at root 0, with every class but W_x empty.

    ``extra_edges`` join vertices from 6 on, outside the level, so the
    context is built exactly as on the spider alone.
    """
    g = Graph(n, SPIDER_EDGES + extra_edges)
    ctx = build_pair_context(g, 0, SPIDER_TD, 1, 3, 2)
    assert ctx.bad and ctx.level == set(range(6)) and ctx.w_x == {4, 5}
    ctx.w_y = ctx.w_xy = ctx.u0 = ctx.ux = ctx.uy = ctx.movable = set()
    ctx.comp_bits = ctx.rim_bits = ()
    return ctx


def test_an_unanchored_y_side_attachment_is_an_internal_error():
    ctx = _bare_bad_context(6, [])
    ctx.uy = {1}  # complete to W_x = {4, 5}; T(1) is node 0 alone
    ctx.t_y = 0
    _assert_bad_pair_structure(ctx)  # anchored: no error
    ctx.t_y = 3
    with pytest.raises(DecompositionError) as caught:
        _assert_bad_pair_structure(ctx)
    assert str(caught.value) == (
        "y-side attachment 1 neither movable nor anchored; "
        "the pair was not selected at maximum subtree distance"
    )


def test_an_immovable_attachment_refutes_with_a_p5_of_the_level():
    # 6 - 2 - 0 - 1 - 4 is an induced P5 once the level holds 6
    ctx = _bare_bad_context(7, [(2, 6)])
    ctx.u0 = {1}  # complete to W_x = {4, 5}
    ctx.w_xy = {2}  # so S = W_xy - nrbar(1) = {2}, which misses W_x
    with pytest.raises(DecompositionError, match="the level has no induced P5"):
        _assert_bad_pair_structure(ctx)
    ctx.level = set(range(7))
    with pytest.raises(ForbiddenStructureFound) as caught:
        _assert_bad_pair_structure(ctx)
    w = caught.value.witness
    assert str(caught.value) == NOT_MOVABLE
    assert w.kind == PATH and verify_witness(ctx.g, w) and 6 in w.parts[0]


def test_an_immovable_attachment_refutes_with_a_biclique():
    # 6 and 7 are complete to W_x = {4, 5}: an induced K_{2,2}
    ctx = _bare_bad_context(8, [(4, 6), (4, 7), (5, 6), (5, 7)])
    ctx.u0 = {1}
    ctx.w_xy = {6, 7}  # S = {6, 7}, complete to W_x
    with pytest.raises(ForbiddenStructureFound) as caught:
        _assert_bad_pair_structure(ctx)
    w = caught.value.witness
    assert str(caught.value) == NOT_MOVABLE
    assert w.kind == BICLIQUE and w.parts == ((4, 5), (6, 7))
    assert verify_witness(ctx.g, w)
