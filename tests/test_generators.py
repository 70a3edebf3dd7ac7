"""Generators certify each edge flip by a search through the flipped pair.

The whole-graph flip loops that the generators used before are kept below
as the reference: every output must equal theirs, byte for byte.  The
through-pair searches are checked against brute force on small graphs.
"""

import random
from itertools import combinations
from typing import Optional, Sequence

import pytest

from treealpha.graph import Graph, serialize_graph
from treealpha.harness import (
    _random_cograph_edges,
    gen_class_free,
    gen_p5_free,
    parse_pattern,
    pattern_absent,
)
from treealpha.oracles import (
    biclique_through,
    find_induced_path,
    path_through,
    verify_witness,
)

from conftest import random_graph


# -- the whole-graph flip loops, verbatim, as the reference --------------------


def reference_gen_p5_free(n: int, seed: int, method: str = "union-join") -> Graph:
    """A certified P5-free graph, deterministic per (n, seed, method)."""
    if method not in ("union-join", "perturb-filter"):
        raise ValueError(f"unknown method {method!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(f"p5free:{method}:{n}:{seed}")
    g = Graph(n, _random_cograph_edges(n, rng))
    if method == "perturb-filter":
        edges = {tuple(sorted(e)) for e in g.edges()}
        for _ in range(3 * n):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            trial = set(edges)
            if e in trial:
                trial.remove(e)
            else:
                trial.add(e)
            candidate = Graph(n, sorted(trial))
            if find_induced_path(candidate, 5) is None:
                edges = trial
                g = candidate
    w = find_induced_path(g, 5)
    if w is not None:
        raise RuntimeError("generator produced a graph with an induced P5")
    return g


def reference_gen_class_free(
    n: int,
    seed: int,
    forbidden: Sequence[tuple],
    flip_budget: Optional[int] = None,
    base_attempts: int = 64,
) -> Graph:
    """Rejection-and-perturbation sampler for a finite forbidden-pattern class.

    Starts from a random certified seed graph (edgeless, clique unions, or a
    cograph), then applies random edge flips, keeping each flip only if all
    forbidden patterns stay absent.  Every returned graph is re-certified.
    Raises when no admissible seed graph is found within the budget.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(f"classfree:{n}:{seed}:{sorted(forbidden)!r}")
    base: Optional[Graph] = None
    for _ in range(base_attempts):
        style = rng.randrange(3)
        if style == 0:
            cand = Graph(n, [])
        elif style == 1:
            edges = []
            start = 0
            while start < n:
                size = min(n - start, rng.randint(1, 4))
                block = range(start, start + size)
                edges += [(u, v) for u in block for v in block if u < v]
                start += size
            cand = Graph(n, edges)
        else:
            cand = Graph(n, _random_cograph_edges(n, rng))
        if all(pattern_absent(cand, p) for p in forbidden):
            base = cand
            break
    if base is None:
        raise RuntimeError("generation budget exhausted: no admissible seed graph")
    edges = {tuple(sorted(e)) for e in base.edges()}
    g = base
    budget = flip_budget if flip_budget is not None else 2 * n
    for _ in range(budget):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        trial = set(edges)
        if e in trial:
            trial.remove(e)
        else:
            trial.add(e)
        candidate = Graph(n, sorted(trial))
        if all(pattern_absent(candidate, p) for p in forbidden):
            edges = trial
            g = candidate
    for p in forbidden:
        if not pattern_absent(g, p):
            raise RuntimeError(f"generator produced a graph containing {p}")
    return g


def _outcome(make, *args):
    try:
        return serialize_graph(make(*args))
    except RuntimeError as exc:
        return f"RuntimeError: {exc}"


PATTERN_SETS = [
    ["path:3"],
    ["path:4"],
    ["path:5"],
    ["path:6"],
    ["kll:2"],
    ["kll:3"],
    ["biclique:2:3"],
    ["biclique:1:3"],
    ["substar:2"],
    ["p5", "kll:2"],
    ["p5", "kll:3"],
    ["path:6", "biclique:2:3"],
]


@pytest.mark.parametrize("texts", PATTERN_SETS, ids=",".join)
def test_gen_class_free_matches_the_whole_graph_loop(texts):
    forbidden = [parse_pattern(t) for t in texts]
    for n in range(1, 25):
        for seed in range(3):
            want = _outcome(reference_gen_class_free, n, seed, forbidden)
            assert _outcome(gen_class_free, n, seed, forbidden) == want


def test_gen_class_free_matches_on_long_walks():
    # four times the default flip budget, so walks reach denser graphs
    forbidden = [("path", 5), ("biclique", 2, 2)]
    for n in (12, 20, 26):
        for seed in range(4):
            want = _outcome(reference_gen_class_free, n, seed, forbidden, 8 * n)
            assert _outcome(gen_class_free, n, seed, forbidden, 8 * n) == want


@pytest.mark.parametrize("method", ["union-join", "perturb-filter"])
def test_gen_p5_free_matches_the_whole_graph_loop(method):
    for n in range(1, 27):
        for seed in range(4):
            want = serialize_graph(reference_gen_p5_free(n, seed, method))
            assert serialize_graph(gen_p5_free(n, seed, method)) == want


# -- the through-pair searches against brute force ---------------------------


def _is_induced_path(g: Graph, sub: tuple[int, ...]) -> bool:
    """A set induces a path iff it is connected, with |S| - 1 edges, degree <= 2."""
    inside = set(sub)
    degree = {x: sum(1 for y in g.neighbors(x) if y in inside) for x in sub}
    if sum(degree.values()) != 2 * (len(sub) - 1) or max(degree.values()) > 2:
        return False
    seen, stack = {sub[0]}, [sub[0]]
    while stack:
        x = stack.pop()
        for y in g.neighbors(x):
            if y in inside and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(sub)


def _is_induced_biclique(g: Graph, sub: tuple[int, ...], a: int) -> bool:
    for side_a in combinations(sub, a):
        side_b = [x for x in sub if x not in side_a]
        if all(not g.adjacent(x, y) for x, y in combinations(side_a, 2)) and all(
            not g.adjacent(x, y) for x, y in combinations(side_b, 2)
        ) and all(g.adjacent(x, y) for x in side_a for y in side_b):
            return True
    return False


def _copies_through(g: Graph, size: int, u: int, v: int):
    """Every vertex set of ``size`` that contains both u and v."""
    rest = [x for x in range(g.n) if x not in (u, v)]
    for more in combinations(rest, size - 2):
        yield tuple(sorted((u, v) + more))


def test_path_through_against_brute_force():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(2, 9)
        g = random_graph(n, rng.choice([0.2, 0.35, 0.5, 0.7]), rng)
        bits = g.adjacency_bits()
        for u, v in combinations(range(n), 2):
            for t in range(2, 7):
                want = any(_is_induced_path(g, s) for s in _copies_through(g, t, u, v))
                got = path_through(bits, t, u, v)
                assert (got is not None) == want, (g.edges(), t, u, v)
                if got is not None:
                    assert verify_witness(g, got) and got.size() == t
                    assert {u, v} <= set(got.parts[0])
                assert (path_through(bits, t, v, u) is not None) == want


def test_biclique_through_against_brute_force():
    rng = random.Random(47)
    sizes = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]
    for _ in range(60):
        n = rng.randint(2, 9)
        g = random_graph(n, rng.choice([0.2, 0.35, 0.5, 0.7]), rng)
        bits = g.adjacency_bits()
        for u, v in combinations(range(n), 2):
            for a, b in sizes:
                want = any(
                    _is_induced_biclique(g, s, a) for s in _copies_through(g, a + b, u, v)
                )
                got = biclique_through(bits, a, b, u, v)
                assert (got is not None) == want, (g.edges(), a, b, u, v)
                if got is not None:
                    side_a, side_b = got.parts
                    assert verify_witness(g, got)
                    assert (len(side_a), len(side_b)) == (a, b)
                    assert {u, v} <= set(side_a + side_b)
