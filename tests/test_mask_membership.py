"""Membership tests against vertex masks reject what is not a vertex.

``verify_witness`` checks a biclique's vertices only through
``is_independent``, whose ``mask_of`` raises ValueError for a non-vertex;
the extraction helpers test side membership with a bit of a side's mask.
"""

import pytest

from treealpha.degeneracy import low_degree_induced_matching
from treealpha.graph import Graph
from treealpha.oracles import (
    BICLIQUE,
    MatchingResult,
    Witness,
    bipartite_max_matching,
    verify_witness,
)

from conftest import complete_bipartite


@pytest.mark.parametrize("bad", [-1, 4, 5])
@pytest.mark.parametrize("side", [0, 1])
def test_biclique_witness_with_a_non_vertex_is_false(bad, side):
    g = complete_bipartite(2, 2)  # sides (0, 1) and (2, 3)
    parts = [[0, 1], [2, 3]]
    parts[side][side] = bad
    w = Witness(BICLIQUE, tuple(tuple(sorted(p)) for p in parts))
    assert not verify_witness(g, w)
    assert verify_witness(g, Witness(BICLIQUE, ((0, 1), (2, 3))))


def test_biclique_witness_with_g_n_on_a_single_vertex_side_is_false():
    g = complete_bipartite(1, 1)
    assert verify_witness(g, Witness(BICLIQUE, ((0,), (1,))))
    assert not verify_witness(g, Witness(BICLIQUE, ((0,), (g.n,))))
    assert not verify_witness(g, Witness(BICLIQUE, ((-1,), (1,))))


def test_low_degree_matching_rejects_a_partner_outside_y():
    g = Graph(7, [(0, 3), (1, 4), (2, 5), (0, 6)])
    x_side, y_side = (0, 1, 2), (3, 4, 5)
    good = bipartite_max_matching(g, x_side, y_side)
    w = low_degree_induced_matching(g, x_side, y_side, good, 1, 2)
    assert verify_witness(g, w)
    for partner_of_0 in (6, 1, -1):
        # 6 and 1 are vertices but not in Y; -1 is no vertex at all
        m = MatchingResult(edges=((0, partner_of_0), (1, 4), (2, 5)), cover=good.cover)
        with pytest.raises(ValueError, match="matching does not cover 0 within Y"):
            low_degree_induced_matching(g, x_side, y_side, m, 1, 2)
    unmatched = MatchingResult(edges=((1, 4), (2, 5)), cover=good.cover)
    with pytest.raises(ValueError, match="matching does not cover 0 within Y"):
        low_degree_induced_matching(g, x_side, y_side, unmatched, 1, 2)
