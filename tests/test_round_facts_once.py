"""The saturation round builds each fact once.

``saturate_root`` counts the co-bagged pairs of N(r) once per round, on the
surgery's output, and carries them past ``compress`` uncounted: compress
contracts an edge only when one bag contains the other and edits no bag, so
every dropped bag lies inside a kept one.  The first test checks that
argument on every tree the engine compresses.  The bad-pair surgery reads
T(a), a in M, from one fold of its master bags instead of two throwaway
decompositions, and the pair context computes each outside component's rim
once.  The counts below pin those savings.
"""

import treealpha.decomposer as dec
from treealpha.graph import members
from treealpha.harness import gen_p5_free
from treealpha.treedecomp import TreeDecomposition, cobagged_pairs, compress


def _perturb_filter_runs():
    return [gen_p5_free(20 + 4 * seed, seed, "perturb-filter") for seed in range(10)]


def test_compress_keeps_the_cobagged_pairs_of_every_surgery_output(
    p5_kll_corpus, monkeypatch
):
    outputs: list[TreeDecomposition] = []

    def recorded(td):
        outputs.append(td)
        return compress(td)

    monkeypatch.setattr(dec, "compress", recorded)
    for g, ell, _ in p5_kll_corpus:
        dec.decompose(g, ell, check_p5=False)
    from_corpus = len(outputs)
    for g in _perturb_filter_runs():
        dec.approximate_tia(g)
    assert from_corpus == 155 and len(outputs) > from_corpus + 50
    for out in outputs:
        every = out.vertices()
        assert cobagged_pairs(compress(out), every) == cobagged_pairs(out, every)


def test_one_cobag_count_per_round_and_one_per_root(p5_kll_corpus, monkeypatch):
    calls = {"cobagged_pairs": 0, "compress": 0}
    for name in calls:

        def counted(*args, _name=name, _real=getattr(dec, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(dec, name, counted)
    log: list = []
    for g, ell, _ in p5_kll_corpus:
        dec.decompose(g, ell, check_p5=False, log=log)
    roots = sum(entry["iterations"] > 0 for entry in log)
    assert calls["compress"] == sum(entry["iterations"] for entry in log) == 155
    assert roots == 112
    # the recount after compress made 422 calls on this corpus
    assert calls["cobagged_pairs"] == calls["compress"] + roots == 267


def test_one_decomposition_per_bad_pair_surgery(monkeypatch):
    seen = {"surgeries": 0, "from_masks": 0, "_split_anchor": 0}
    inside = []
    surgery, split = dec.transform_bad_pair, dec._split_anchor
    built = TreeDecomposition.from_masks

    def counted_surgery(ctx):
        seen["surgeries"] += 1
        inside.append(ctx)
        try:
            return surgery(ctx)
        finally:
            inside.pop()

    def counted_split(*args):
        seen["_split_anchor"] += 1
        return split(*args)

    def counted_build(cls, edges, masks):
        seen["from_masks"] += bool(inside)
        return built(edges, masks)

    monkeypatch.setattr(dec, "transform_bad_pair", counted_surgery)
    monkeypatch.setattr(dec, "_split_anchor", counted_split)
    monkeypatch.setattr(TreeDecomposition, "from_masks", classmethod(counted_build))
    k_star, _, ell_star = dec.approximate_tia(gen_p5_free(80, 3, "perturb-filter"))
    assert (k_star, ell_star) == (7, 4)
    # the parent built the master twice per surgery: 30 decompositions
    assert seen == {"surgeries": 10, "from_masks": 10, "_split_anchor": 2}


def _set_rim(g, comp: int, level: int) -> int:
    """The vertices of ``level`` outside ``comp`` with a neighbor in it, by sets."""
    inside = set(members(comp))
    return sum(
        1 << w for w in members(level & ~comp)
        if inside & set(g.neighbors(w))
    )


def test_every_engine_context_holds_the_rim_of_each_component(
    p5_kll_corpus, monkeypatch
):
    contexts = []
    real = dec.build_pair_context

    def recorded(*args):
        contexts.append(real(*args))
        return contexts[-1]

    monkeypatch.setattr(dec, "build_pair_context", recorded)
    for g, ell, _ in p5_kll_corpus:
        dec.decompose(g, ell, check_p5=False)
    for g in _perturb_filter_runs():
        dec.approximate_tia(g)
    with_comps = 0
    for ctx in contexts:
        assert len(ctx.rim_bits) == len(ctx.comp_bits)
        for comp, rim in zip(ctx.comp_bits, ctx.rim_bits):
            assert rim == _set_rim(ctx.g, comp, ctx.level_bits)
        with_comps += bool(ctx.comp_bits)
    assert len(contexts) > 300 and with_comps > 100
