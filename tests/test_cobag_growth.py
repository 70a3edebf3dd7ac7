"""The saturation round's growth check, bag by bag.

``saturate_root`` no longer builds the co-bagged pairs of N(r).  Both
surgeries build the output's first ``td.node_count`` nodes from ``td``'s
nodes, cutting bag t to a set that holds N(r) and then only adding vertices,
so node t keeps bag t's part in N(r) and no co-bagged pair is lost; the
round raises when a node does not.  Here the old pair-set check runs on
every surgery output the engine builds, beside the bag-wise fact, and a
surgery that drops one neighbor of r from a master bag must make the round
raise.
"""

import pytest

import treealpha.decomposer as dec
from treealpha.decomposer import DecompositionError
from treealpha.graph import members
from treealpha.harness import gen_p5_free
from treealpha.treedecomp import TreeDecomposition, cobagged_pairs


def _perturb_filter_runs():
    return [gen_p5_free(20 + 4 * seed, seed, "perturb-filter") for seed in range(10)]


def _recorded_surgeries(p5_kll_corpus, monkeypatch):
    """(context, output) of every surgery along the corpus and the perturb-filter runs."""
    seen: list = []
    for name in ("transform_plain_pair", "transform_bad_pair"):

        def recorded(ctx, _real=getattr(dec, name)):
            seen.append((ctx, _real(ctx)))
            return seen[-1][1]

        monkeypatch.setattr(dec, name, recorded)
    for g, ell, _ in p5_kll_corpus:
        dec.decompose(g, ell, check_p5=False)
    for g in _perturb_filter_runs():
        dec.approximate_tia(g)
    monkeypatch.undo()
    return seen


def test_every_surgery_keeps_each_bag_and_grows_the_pairs(p5_kll_corpus, monkeypatch):
    surgeries = _recorded_surgeries(p5_kll_corpus, monkeypatch)
    assert len(surgeries) > 300
    assert {ctx.bad for ctx, _ in surgeries} == {False, True}
    for ctx, out in surgeries:
        td = ctx.td
        nr = ctx.g.neighbor_bits(ctx.root) & td.vertex_mask
        assert cobagged_pairs(td, members(nr)) < cobagged_pairs(out, members(nr))
        assert out.node_count >= td.node_count
        for t in range(td.node_count):
            assert td.bag_masks[t] & nr & ~out.bag_masks[t] == 0


def _drop_a_neighbor(out: TreeDecomposition, td: TreeDecomposition, nr: int):
    """``out`` with the least neighbor of r in the first nonempty bag t & N(r) removed."""
    t = next(t for t in range(td.node_count) if td.bag_masks[t] & nr)
    cut = td.bag_masks[t] & nr
    bags = list(out.bag_masks)
    bags[t] &= ~(cut & -cut)
    return TreeDecomposition.from_masks(out.edges, bags)


def test_a_surgery_that_drops_a_neighbor_of_the_root_makes_the_round_raise(
    p5_kll_corpus, monkeypatch
):
    ctx = next(
        ctx for ctx, _ in _recorded_surgeries(p5_kll_corpus, monkeypatch)
        if not ctx.bad
    )
    real, dropped = dec.transform_plain_pair, []

    def dropping(c):
        nr = c.g.neighbor_bits(c.root) & c.td.vertex_mask
        dropped.append(c)
        return _drop_a_neighbor(real(c), c.td, nr)

    monkeypatch.setattr(dec, "transform_plain_pair", dropping)
    with pytest.raises(
        DecompositionError, match="^surgery did not strictly grow the co-bagged pairs$"
    ):
        dec.saturate_root(ctx.g, ctx.root, ctx.td, ctx.ell)
    assert len(dropped) == 1
    # unpatched, the same round goes through
    monkeypatch.undo()
    dec.saturate_root(ctx.g, ctx.root, ctx.td, ctx.ell)
