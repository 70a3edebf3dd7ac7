"""``bipartite_max_matching`` searches on an explicit stack.

The recursive augmenting-path search it replaced, kept below verbatim as the
reference, recursed once per step of an augmenting path.  On an alternating
chain whose last X-vertex must re-route every earlier match it raised
``RecursionError`` at the default recursion limit once the chain had 1,200
X-vertices.  The stack search visits in the same order, so the matching and
the Konig cover are the reference's on every input.
"""

import random
import sys

import pytest

from treealpha.graph import Graph, VertexSet, is_independent, vertex_set
from treealpha.oracles import MatchingResult, bipartite_max_matching


# -- reference: the recursive search, verbatim ------------------------------------------


def ref_bipartite_max_matching(g: Graph, x, y) -> MatchingResult:
    """Maximum matching between independent sides ``x`` and ``y``.

    Augmenting-path search; the cover comes from the final alternating
    reachability layering, so |edges| == |cover| always holds.
    """
    xs, ys = vertex_set(x), vertex_set(y)
    if set(xs) & set(ys):
        raise ValueError("sides overlap")
    if not is_independent(g, xs):
        raise ValueError("side X is not independent")
    if not is_independent(g, ys):
        raise ValueError("side Y is not independent")
    yset = set(ys)
    adj = {u: [v for v in g.neighbors(u) if v in yset] for u in xs}
    match_x: dict[int, int] = {}
    match_y: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_y or augment(match_y[v], seen):
                match_x[u] = v
                match_y[v] = u
                return True
        return False

    for u in xs:
        augment(u, set())

    # Konig: alternate from unmatched X along non-matching then matching edges
    reach_x = {u for u in xs if u not in match_x}
    reach_y: set[int] = set()
    frontier = list(sorted(reach_x))
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v in reach_y:
                continue
            if match_x.get(u) == v:
                continue
            reach_y.add(v)
            w = match_y.get(v)
            if w is not None and w not in reach_x:
                reach_x.add(w)
                frontier.append(w)
    cover = vertex_set([u for u in xs if u not in reach_x] + [v for v in ys if v in reach_y])
    edges = tuple(sorted((u, v) for u, v in match_x.items()))
    return MatchingResult(edges=edges, cover=cover)


# -- inputs --------------------------------------------------------------------------------


def _random_bipartite(rng: random.Random) -> tuple[Graph, VertexSet, VertexSet]:
    """A random bipartite graph whose sides interleave in the vertex ids."""
    n = rng.randint(0, 16)
    ids = list(range(n))
    rng.shuffle(ids)
    cut = rng.randint(0, n)
    xs, ys = ids[:cut], ids[cut:]
    p = rng.choice((0.1, 0.25, 0.5, 0.8))
    edges = [(min(u, v), max(u, v)) for u in xs for v in ys if rng.random() < p]
    return Graph(n, edges), vertex_set(xs), vertex_set(ys)


def _chain(n: int) -> tuple[Graph, VertexSet, VertexSet]:
    """x_i sees y_i and y_(i+1), and x_n only y_n; the ids of the y_i fall.

    Each x_i first takes y_(i+1), so x_n's augmenting path runs back through
    every x_i: it is n steps long.
    """
    xs = list(range(n))
    ys = [2 * n - 1 - i for i in range(n)]
    edges = [(xs[i], ys[i]) for i in range(n)]
    edges += [(xs[i], ys[i + 1]) for i in range(n - 1)]
    return Graph(2 * n, edges), vertex_set(xs), vertex_set(ys)


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


# -- the comparison --------------------------------------------------------------------------


def test_stack_search_equals_the_recursion_on_random_bipartite_graphs():
    rng = random.Random(1203)
    sizes = set()
    for _ in range(1500):
        g, xs, ys = _random_bipartite(rng)
        got = bipartite_max_matching(g, xs, ys)
        assert got == ref_bipartite_max_matching(g, xs, ys)
        assert len(got.edges) == len(got.cover)
        sizes.add(len(got.edges))
    assert max(sizes) >= 6


def test_stack_search_equals_the_recursion_on_short_chains():
    for n in range(1, 40):
        g, xs, ys = _chain(n)
        got = bipartite_max_matching(g, xs, ys)
        assert got == ref_bipartite_max_matching(g, xs, ys)
        assert len(got.edges) == n


def test_a_1500_step_chain_needs_no_recursion(default_recursion_limit):
    n = 1500
    g, xs, ys = _chain(n)
    got = bipartite_max_matching(g, xs, ys)
    assert got.edges == tuple((i, 2 * n - 1 - i) for i in range(n))  # x_i with y_i
    assert len(got.cover) == n
    # every edge is covered
    cover = set(got.cover)
    assert all(u in cover or v in cover for u, v in g.edges())


def test_the_recursion_fails_on_a_1200_step_chain(default_recursion_limit):
    g, xs, ys = _chain(1200)
    with pytest.raises(RecursionError):
        ref_bipartite_max_matching(g, xs, ys)
    g, xs, ys = _chain(500)
    assert len(ref_bipartite_max_matching(g, xs, ys).edges) == 500


def test_the_sides_are_still_checked():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="overlap"):
        bipartite_max_matching(g, (0, 1), (1, 2))
    with pytest.raises(ValueError, match="side X"):
        bipartite_max_matching(g, (0, 1), (2,))
    with pytest.raises(ValueError, match="side Y"):
        bipartite_max_matching(g, (0,), (1, 2))
