"""The saturation round's mask bookkeeping against the set-based code it replaced.

``select_pair`` used to build the level and each outside-neighborhood as
sets and score every pair by its subtree distance; ``compress`` held the node
adjacency as sets and listed the contained neighbors afresh after every
contraction.  Those versions stay below verbatim as the reference, renamed
``ref_*``.  On every call the engine makes along the corpus and on seeded
random trees, the mask versions must give the same pair, the same bad flag
and the same decomposition, node order and edges included.
"""

import random

import pytest

import treealpha.decomposer as dec
from treealpha.decomposer import _level, _nrbar, enumerate_uncobagged_pairs
from treealpha.graph import Graph, mask_of
from treealpha.oracles import alpha_exceeds
from treealpha.treedecomp import TreeDecomposition, compress, subtree_distance


# -- reference: the set-based versions, verbatim -----------------------------------


def ref_select_pair(g, r, td, ell):
    pairs = enumerate_uncobagged_pairs(g, r, td)
    if not pairs:
        return None
    nrbar = _nrbar(g, r, *_level(g, r, td))
    bads = [
        (x, y)
        for x, y in pairs
        if alpha_exceeds(g, mask_of(g, nrbar[x] - nrbar[y]), ell - 1)
    ]
    x, y = max(bads or pairs, key=lambda p: (subtree_distance(td, *p), -p[0], -p[1]))
    return x, y, bool(bads)


def ref_compress(td):
    bags = td.bag_masks
    adj = [set(td.node_neighbors(t)) for t in range(td.node_count)]
    alive = [True] * td.node_count
    for t in range(td.node_count):  # an absorbed node has no neighbors left
        while inner := [s for s in adj[t] if not bags[s] & ~bags[t]]:
            s = min(inner)
            for q in adj[s]:
                if q != t:
                    adj[q].discard(s)
                    adj[q].add(t)
                    adj[t].add(q)
            adj[t].discard(s)
            alive[s] = False
            adj[s] = set()
    keep = [t for t in range(td.node_count) if alive[t]]
    index = {t: i for i, t in enumerate(keep)}
    edges = sorted((index[a], index[b]) for a in keep for b in adj[a] if a < b)
    return TreeDecomposition.from_masks(tuple(edges), [bags[t] for t in keep])


# -- helpers ---------------------------------------------------------------------------


def _same(a: TreeDecomposition, b: TreeDecomposition) -> bool:
    """Equal node order, edges (in order) and bags."""
    return a.edges == b.edges and a.bags == b.bags and a.bag_masks == b.bag_masks


def _random_td(rng: random.Random, k: int, n: int) -> TreeDecomposition:
    """A random node tree where every vertex has a connected subtree."""
    edges = tuple((rng.randrange(t), t) for t in range(1, k))
    adj: list[list[int]] = [[] for _ in range(k)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    bags: list[set[int]] = [set() for _ in range(k)]
    for v in range(n):
        nodes = {rng.randrange(k)}
        for _ in range(rng.randrange(k)):
            t = rng.choice(sorted(nodes))
            nodes.add(rng.choice(adj[t]) if adj[t] else t)
        for t in nodes:
            bags[t].add(v)
    return TreeDecomposition(edges, tuple(tuple(sorted(b)) for b in bags))


def _rooted_graph(td: TreeDecomposition, n: int, rng: random.Random) -> Graph:
    """Co-bagged edges only among 0..n-1, plus a root n with random neighbors."""
    cobagged = {(u, v) for bag in td.bags for u in bag for v in bag if u < v}
    edges = [e for e in sorted(cobagged) if rng.random() < 0.4]
    edges += [(v, n) for v in range(n) if rng.random() < 0.5]
    return Graph(n + 1, edges)


# -- along the engine ------------------------------------------------------------------


@pytest.fixture(scope="module")
def engine_calls(p5_kll_corpus):
    """The arguments of every ``select_pair`` and ``compress`` call the engine makes."""
    calls: dict[str, list[tuple]] = {"select_pair": [], "compress": []}
    originals = {name: getattr(dec, name) for name in calls}

    def recorder(name):
        def record(*args):
            calls[name].append(args)
            return originals[name](*args)

        return record

    for name in calls:
        setattr(dec, name, recorder(name))
    try:
        for g, ell, _ in p5_kll_corpus:
            dec.decompose(g, ell, check_p5=False)
    finally:
        for name, fn in originals.items():
            setattr(dec, name, fn)
    return calls


def test_engine_select_pair_calls_match_the_set_based_code(engine_calls):
    calls = engine_calls["select_pair"]
    assert len(calls) > 200
    results = [dec.select_pair(*args) for args in calls]
    assert results == [ref_select_pair(*args) for args in calls]
    assert any(res is not None and res[2] for res in results)  # the bad test fires
    assert any(res is not None and not res[2] for res in results)
    assert None in results


def test_engine_compress_calls_match_the_set_based_code(engine_calls):
    calls = engine_calls["compress"]
    assert len(calls) > 150
    assert any(compress(td).node_count < td.node_count for (td,) in calls)
    for (td,) in calls:
        assert _same(compress(td), ref_compress(td))


# -- random trees ----------------------------------------------------------------------


def test_select_pair_matches_on_random_trees():
    rng = random.Random(2311)
    seen = set()
    for _ in range(400):
        k, n = rng.randint(1, 14), rng.randint(2, 12)
        td = _random_td(rng, k, n)
        g = _rooted_graph(td, n, rng)
        for ell in (2, 3):
            got = dec.select_pair(g, n, td, ell)
            assert got == ref_select_pair(g, n, td, ell)
            seen.add(None if got is None else got[2])
    assert seen == {None, True, False}


def test_compress_matches_on_random_trees():
    rng = random.Random(2312)
    contracted = 0
    for _ in range(500):
        k = rng.randint(1, 40)
        ids = rng.sample(range(k), k)  # parents need not have the lower id
        edges = tuple((ids[rng.randrange(t)], ids[t]) for t in range(1, k))
        width = rng.randint(1, 8)
        bags = tuple(
            tuple(sorted(rng.sample(range(width), rng.randint(0, width))))
            for _ in range(k)
        )
        td = TreeDecomposition(edges, bags)
        out = compress(td)
        assert _same(out, ref_compress(td))
        contracted += td.node_count - out.node_count
    assert contracted > 1000
