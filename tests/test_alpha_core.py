"""The exact-alpha core: the value oracle ``alpha`` and the descent ``_mis_mask``.

The value oracle is checked against networkx's clique number of the
complement, and the descent against the recursive branch and bound it
replaced, kept below verbatim as the reference.  The memo shared between
calls must never hand one graph's value to another.  Deep and wide inputs
run at the default recursion limit.
"""

import random
import sys
from typing import Sequence

import networkx as nx
import pytest

from treealpha import harness, oracles
from treealpha.graph import Graph, component, is_independent
from treealpha.harness import gen_p5_free
from treealpha.oracles import alpha, alpha_of_subset, max_independent_set

from conftest import random_graph


# -- reference: the recursive search, verbatim -----------------------------------
# The library's own descent is called as ``oracles._mis_mask``.


def _clique_cover_bound(bits: Sequence[int], mask: int) -> int:
    """Greedy clique cover of the masked vertices; its size bounds alpha."""
    cliques: list[int] = []
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        nb = bits[v]
        for i, c in enumerate(cliques):
            if c & ~nb == 0:  # v adjacent to every current member
                cliques[i] = c | (1 << v)
                break
        else:
            cliques.append(1 << v)
    return len(cliques)


def _mis_mask(bits: Sequence[int], mask: int, floor: int = -1) -> int:
    """Maximum independent set of the masked subgraph, as a bitmask.

    Returns the first optimum in branching order.  The branching tree strips
    the vertices isolated within the mask, then branches on a maximum-degree
    vertex (ties to the lowest id), include branch first.  The result is the
    first maximum-size leaf of that tree, unpruned, in depth-first order.
    Pruning by a valid upper bound keeps that leaf, since no subtree holding
    it can be cut.

    ``solve(mask, floor)`` returns that leaf if it has more than ``floor``
    vertices, else -1.  A disconnected mask is solved one component at a time
    and the results are united, which returns the same set.  The union's
    pivot lies in one component and is that component's own pivot, so the
    union's tree interleaves the components' trees: two of its leaves first
    differ where they differ in one component's tree.  Hence the first
    maximum leaf of the union is the union of the components' first maximum
    leaves.

    Returns ``solve(mask, floor)``; the default ``floor=-1`` always yields the
    optimum.
    """

    def solve(mask: int, floor: int) -> int:
        # vertices isolated within mask are in every optimum
        iso = 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            if not bits[low.bit_length() - 1] & mask:
                iso |= low
        if iso:
            mask ^= iso
            floor -= iso.bit_count()
        if not mask:
            return iso if floor < 0 else -1
        comp = component(bits, mask)
        if comp != mask:
            # Each component must beat the floor less the optima already
            # found and the most the unsolved components could add.
            out = iso
            while mask:
                mask ^= comp
                got = solve(comp, floor - mask.bit_count())
                if got < 0:
                    return -1
                out |= got
                floor -= got.bit_count()
                comp = component(bits, mask)
            return out
        if floor > 0 and _clique_cover_bound(bits, mask) <= floor:
            return -1
        # pivot: max degree within mask, lowest id on ties
        pivot = pdeg = -1
        m = mask
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            d = (bits[v] & mask).bit_count()
            if d > pdeg:
                pivot, pdeg = v, d
        p = 1 << pivot
        inc = solve(mask & ~(bits[pivot] | p), floor - 1)
        if inc >= 0:
            inc |= p
            floor = inc.bit_count()
        exc = solve(mask ^ p, floor)
        if exc >= 0:
            return exc | iso
        return inc | iso if inc >= 0 else -1

    return solve(mask, floor)


# -- helpers ----------------------------------------------------------------------


def _nx_alpha(g: Graph, mask: int) -> int:
    """alpha of the masked subgraph as networkx's clique number of its complement."""
    keep = [v for v in range(g.n) if mask >> v & 1]
    h = nx.Graph()
    h.add_nodes_from(keep)
    h.add_edges_from((u, v) for u, v in g.edges() if mask >> u & 1 and mask >> v & 1)
    return max((len(c) for c in nx.find_cliques(nx.complement(h))), default=0)


def _cograph(n: int, rng: random.Random) -> Graph:
    """A random union/join tree over n vertices, shuffled, joins at random depths."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = harness._random_cograph_edges(n, rng)
    return Graph(n, [(labels[u], labels[v]) for u, v in edges])


def _mixed(n: int, rng: random.Random) -> Graph:
    """Random graphs glued by unions and joins: components and co-components."""
    if n <= 5 or rng.random() < 0.3:
        return random_graph(n, rng.choice((0.1, 0.3, 0.5, 0.8)), rng)
    k = rng.randint(1, n - 1)
    a, b = _mixed(k, rng), _mixed(n - k, rng)
    edges = list(a.edges()) + [(u + k, v + k) for u, v in b.edges()]
    if rng.random() < 0.5:
        edges += [(u, v) for u in range(k) for v in range(k, n)]
    labels = list(range(n))
    rng.shuffle(labels)
    return Graph(n, [(labels[u], labels[v]) for u, v in edges])


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


# -- the value oracle -------------------------------------------------------------


def test_value_oracle_equals_networkx_on_random_graphs():
    rng = random.Random(1101)
    checked = 0
    for _ in range(400):
        g = random_graph(rng.randint(0, 14), rng.choice((0.1, 0.25, 0.5, 0.75, 0.9)), rng)
        full = (1 << g.n) - 1
        for mask in (full, rng.getrandbits(g.n) if g.n else 0):
            assert alpha(g.adjacency_bits(), mask) == _nx_alpha(g, mask), (g, mask)
            checked += 1
    assert checked == 800


def test_value_oracle_equals_networkx_on_union_join_cographs():
    rng = random.Random(1102)
    for n in range(1, 41):
        for g in (gen_p5_free(n, n, "union-join"), _cograph(n, rng)):
            full = (1 << g.n) - 1
            for mask in (full, rng.getrandbits(g.n)):
                assert alpha(g.adjacency_bits(), mask) == _nx_alpha(g, mask), (g, mask)


# -- the descent ------------------------------------------------------------------


def test_descent_equals_the_recursive_search():
    rng = random.Random(1103)
    checked = 0
    while checked < 10_000:
        n = rng.randint(0, 18)
        g = _mixed(n, rng) if rng.random() < 0.5 else random_graph(
            n, rng.choice((0.05, 0.15, 0.3, 0.5, 0.8)), rng
        )
        bits = g.adjacency_bits()
        for mask in ((1 << n) - 1, rng.getrandbits(n) if n else 0):
            best = _mis_mask(bits, mask)
            for floor in range(-1, best.bit_count() + 2):
                want = _mis_mask(bits, mask, floor)
                assert oracles._mis_mask(bits, mask, floor) == want, (g, mask, floor)
                checked += 1


# -- the shared memo --------------------------------------------------------------


def test_interleaved_graphs_answer_as_fresh_calls():
    rng = random.Random(1104)
    g, h = random_graph(16, 0.3, rng), _cograph(16, rng)
    masks = [rng.getrandbits(16) for _ in range(60)]
    # a list gets a private memo per call, so these are fresh answers
    fresh = {
        (which, m): (alpha(list(bits), m), oracles._mis_mask(list(bits), m))
        for which, bits in ((0, g.adjacency_bits()), (1, h.adjacency_bits()))
        for m in masks
    }
    for m in masks:
        for which in rng.sample((0, 1), 2):
            bits = (g, h)[which].adjacency_bits()
            assert (alpha(bits, m), oracles._mis_mask(bits, m)) == fresh[which, m]


def test_a_mutated_list_gets_no_stale_value():
    bits = [0] * 6  # edgeless: alpha 6
    full = (1 << 6) - 1
    assert alpha(bits, full) == 6
    for u in range(6):
        for v in range(u + 1, 6):
            bits[u] |= 1 << v
            bits[v] |= 1 << u
    assert alpha(bits, full) == 1
    assert oracles._mis_mask(bits, full) == 1
    # an equal tuple is another object, so it starts its own memo
    assert alpha(tuple(bits), full) == 1


# -- deep and wide inputs at the default recursion limit --------------------------


def test_union_join_1500_needs_no_recursion(default_recursion_limit, monkeypatch):
    # a cograph has no induced P4, so the generator's P5 re-certification
    # (minutes at this size) is skipped; the graph is the generator's own
    monkeypatch.setattr(harness, "find_induced_path", lambda g, t: None)
    g = gen_p5_free(1500, 0, "union-join")
    got = max_independent_set(g)
    assert is_independent(g, got)
    assert len(got) == alpha(g.adjacency_bits(), (1 << g.n) - 1)
    chosen = set(got)
    assert all(chosen & set(g.neighbors(v)) for v in range(g.n) if v not in chosen)


def test_a_2000_vertex_path_needs_no_recursion(default_recursion_limit):
    g = Graph(2000, [(i, i + 1) for i in range(1999)])
    got = max_independent_set(g)
    assert is_independent(g, got)
    assert len(got) == 1000


def test_a_caterpillar_with_200_spine_vertices(default_recursion_limit):
    k = 200
    g = Graph(2 * k, [(i, i + 1) for i in range(k - 1)] + [(i, k + i) for i in range(k)])
    assert alpha_of_subset(g, range(2 * k)) == k
