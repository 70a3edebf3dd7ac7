"""The node-mask subtree index against the set-based code it replaced.

Co-bagged pairs, uncobagged neighbor pairs, the Helly query and validation
used to rebuild sets from ``TreeDecomposition.subtree`` tuples.  Those
versions stay below verbatim as the reference, renamed ``ref_*`` and reading
the old tuple index (``ref_subtree``) instead of ``td.subtree``, so they
share no code with the node masks.  On every call the engine makes along
the corpus, on seeded random trees and on broken trees, the mask versions
must give the same results, messages and exceptions.  The one intended
difference, a bag that repeats a vertex, is pinned separately.
"""

import random
import re

import pytest

import treealpha.decomposer as dec
from treealpha.decomposer import (
    DecompositionError,
    _level,
    enumerate_uncobagged_pairs,
)
from treealpha.graph import Graph, vertex_set
from treealpha.treedecomp import (
    TreeDecomposition,
    cobagged_pairs,
    find_bag_containing_set,
    node_masks,
    validate,
)


# -- reference: the set-based versions, verbatim ---------------------------------


def ref_subtree(td, v):
    """The old subtree index: the nodes holding ``v``, once per occurrence."""
    return tuple(t for t, bag in enumerate(td.bags) for u in bag if u == v)


def ref_validate(g, td, vertices=None):
    scope = range(g.n) if vertices is None else vertex_set(vertices)
    inside = set(scope)
    out: list[str] = []
    k = td.node_count
    if k == 0:
        out.append("decomposition has no nodes")
        return out
    if len(td.edges) != k - 1:
        out.append(f"node graph has {len(td.edges)} edges, expected {k - 1}")
    parent, _, order = td.rooted
    if len(order) != k:
        out.append("node graph is disconnected")
    if out:
        return out
    for bag in td.bags:
        for v in bag:
            if v not in inside:
                out.append(f"bag vertex {v} outside graph")
                return out
    for v in scope:
        nodes = ref_subtree(td, v)
        if not nodes:
            out.append(f"vertex {v} appears in no bag")
            continue
        nodeset = set(nodes)
        if sum(parent[t] not in nodeset for t in nodes) != 1:
            out.append(f"vertex {v} has a disconnected bag set")
    for u in scope:
        for v in g.neighbors(u):
            if u < v and v in inside and not (
                set(ref_subtree(td, u)) & set(ref_subtree(td, v))
            ):
                out.append(f"edge {u}-{v} not covered by any bag")
    return out


def ref_cobagged_pairs(td, s):
    sl = vertex_set(s)
    out: set[frozenset[int]] = set()
    for i, u in enumerate(sl):
        su = set(ref_subtree(td, u))
        for v in sl[i + 1 :]:
            if su & set(ref_subtree(td, v)):
                out.add(frozenset((u, v)))
    return out


def ref_find_bag_containing_set(td, s):
    want = set(s)
    for t, bag in enumerate(td.bags):
        if want <= set(bag):
            return t
    return None


def ref_enumerate_uncobagged_pairs(g, r, td):
    nr = _level(g, r, td)[1]
    out: list[tuple[int, int]] = []
    for x in nr:
        sx = set(ref_subtree(td, x))
        for y in nr:
            if x == y or sx & set(ref_subtree(td, y)):
                continue
            if g.adjacent(x, y):
                raise DecompositionError(
                    f"adjacent pair {x},{y} shares no bag; decomposition invalid"
                )
            out.append((x, y))
    return out


# -- helpers ----------------------------------------------------------------------


def _outcome(fn, *args):
    """The result of ``fn``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, DecompositionError) as exc:
        return type(exc), str(exc)


def _same_as_reference(g: Graph, td: TreeDecomposition, rng: random.Random):
    """Every mask routine equals its reference on ``td``, ``g`` and random sets."""
    holding = {
        v: tuple(t for t, bag in enumerate(td.bags) if v in bag)
        for bag in td.bags
        for v in bag
    }
    assert node_masks(td.bags) == {
        v: sum(1 << t for t in td.subtree(v)) for v in td.vertices()
    }
    assert node_masks(td.bags) == {
        v: sum(1 << t for t in nodes) for v, nodes in holding.items()
    }
    for v in range(-1, g.n + 2):
        assert td.subtree(v) == holding.get(v, ())
    assert validate(g, td) == ref_validate(g, td)
    pool = list(range(g.n + 2))  # g.n and g.n + 1 are in no bag
    for size in (0, 1, 2, 3, 5, len(pool)):
        s = rng.sample(pool, min(size, len(pool)))
        assert cobagged_pairs(td, s) == ref_cobagged_pairs(td, s)
        assert find_bag_containing_set(td, s) == ref_find_bag_containing_set(td, s)
        scope = [v for v in s if v < g.n]
        assert validate(g, td, scope) == ref_validate(g, td, scope)
    for bag in td.bags:
        part = [v for v in bag if rng.random() < 0.6]
        assert find_bag_containing_set(td, part + part) == (
            ref_find_bag_containing_set(td, part)
        )


def _random_td(rng: random.Random, k: int, n: int) -> TreeDecomposition:
    """A random node tree; most vertices get a connected subtree, some none."""
    edges = tuple((t, rng.randrange(t)) for t in range(1, k))
    adj: list[list[int]] = [[] for _ in range(k)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    bags: list[set[int]] = [set() for _ in range(k)]
    for v in range(n):
        if rng.random() < 0.15:
            continue
        nodes = {rng.randrange(k)}
        for _ in range(rng.randrange(k)):
            t = rng.choice(sorted(nodes))
            nodes.add(rng.choice(adj[t]) if adj[t] else t)
        for t in nodes:
            bags[t].add(v)
    return TreeDecomposition(edges, tuple(tuple(sorted(b)) for b in bags))


def _random_graph(td: TreeDecomposition, n: int, rng: random.Random) -> Graph:
    """Mostly co-bagged edges, and now and then an uncovered one."""
    cobagged = {(u, v) for bag in td.bags for u in bag for v in bag if u < v}
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < (0.5 if (u, v) in cobagged else 0.04)
    ]
    return Graph(n, edges)


def _break(td: TreeDecomposition, n: int, rng: random.Random) -> TreeDecomposition:
    """One defect: a cut or cycle in the node graph, a split or missing
    subtree, or a bag vertex outside the graph.  No bag repeats a vertex."""
    bags = [set(b) for b in td.bags]
    edges = list(td.edges)
    k = td.node_count
    move = rng.randrange(5)
    if move == 0 and edges:
        edges.pop(rng.randrange(len(edges)))
    elif move == 1 and k >= 3:
        a, b = rng.sample(range(k), 2)
        edges[rng.randrange(len(edges))] = (a, b)
    elif move == 2 and k >= 3:
        v = rng.randrange(n)
        for bag in bags:
            bag.discard(v)
        for t in rng.sample(range(k), 2):
            bags[t].add(v)
    elif move == 3:
        v = rng.randrange(n)
        for bag in bags:
            bag.discard(v)
    else:
        bags[rng.randrange(k)].add(n + rng.randrange(3))
    return TreeDecomposition(tuple(edges), tuple(tuple(sorted(b)) for b in bags))


# -- along the engine -------------------------------------------------------------


NAMES = (
    "enumerate_uncobagged_pairs",
    "find_bag_containing_set",
    "validate",
)


@pytest.fixture(scope="module")
def engine_calls(p5_kll_corpus):
    """The arguments of every call the engine makes to the routines above."""
    calls: dict[str, list[tuple]] = {name: [] for name in NAMES}
    originals = {name: getattr(dec, name) for name in NAMES}

    def recorder(name):
        def record(*args):
            calls[name].append(args)
            return originals[name](*args)

        return record

    for name in NAMES:
        setattr(dec, name, recorder(name))
    try:
        for g, ell, _ in p5_kll_corpus:
            dec.decompose(g, ell, check_p5=False)
    finally:
        for name, fn in originals.items():
            setattr(dec, name, fn)
    return calls


def test_engine_calls_match_the_set_based_code(engine_calls):
    assert min(len(args) for args in engine_calls.values()) > 200
    for td, s in engine_calls["find_bag_containing_set"]:
        assert find_bag_containing_set(td, s) == ref_find_bag_containing_set(td, s)
    for args in engine_calls["enumerate_uncobagged_pairs"]:
        assert enumerate_uncobagged_pairs(*args) == (
            ref_enumerate_uncobagged_pairs(*args)
        )
    for args in engine_calls["validate"]:
        assert validate(*args) == ref_validate(*args)


def test_engine_decompositions_match_on_random_sets(engine_calls):
    rng = random.Random(73)
    seen = {}
    for g, td, *_ in engine_calls["validate"]:
        seen[td.edges, td.bags] = (g, td)
    for g, td in seen.values():
        _same_as_reference(g, td, rng)


# -- random and broken trees --------------------------------------------------------


def test_random_trees_match_the_set_based_code():
    rng = random.Random(79)
    for _ in range(400):
        k, n = rng.randint(1, 12), rng.randint(1, 10)
        td = _random_td(rng, k, n)
        g = _random_graph(td, n, rng)
        _same_as_reference(g, td, rng)
        # a root outside td, adjacent to a random part of it
        nr = [v for v in range(n) if rng.random() < 0.5]
        g_r = Graph(n + 1, g.edges() + [(v, n) for v in nr])
        assert _outcome(enumerate_uncobagged_pairs, g_r, n, td) == (
            _outcome(ref_enumerate_uncobagged_pairs, g_r, n, td)
        )


def test_broken_trees_match_the_set_based_code():
    rng = random.Random(83)
    messages = set()
    for _ in range(400):
        k, n = rng.randint(1, 12), rng.randint(1, 10)
        td = _break(_random_td(rng, k, n), n, rng)
        g = _random_graph(td, n, rng)
        _same_as_reference(g, td, rng)
        messages.update(re.sub(r"\d+", "#", m) for m in validate(g, td))
    # every kind of defect was produced and reported
    assert messages == {
        "node graph is disconnected",
        "node graph has # edges, expected #",
        "vertex # has a disconnected bag set",
        "vertex # appears in no bag",
        "bag vertex # outside graph",
        "edge #-# not covered by any bag",
    }


def test_empty_decomposition():
    td = TreeDecomposition((), ())
    assert node_masks(td.bags) == {}
    assert td.node_mask(0) == 0
    assert find_bag_containing_set(td, ()) is None
    assert find_bag_containing_set(td, (0,)) is None
    assert cobagged_pairs(td, (0, 1)) == set()
    assert validate(Graph(1, []), td) == ref_validate(Graph(1, []), td)


def test_validate_names_a_repeated_bag_vertex():
    td = TreeDecomposition((), ((0, 1, 1),))
    assert ref_validate(Graph(2, []), td) == ["vertex 1 has a disconnected bag set"]
    assert validate(Graph(2, []), td) == ["bag 0 repeats vertex 1"]
    td = TreeDecomposition(((0, 1),), ((0,), (1, 0, 1)))
    assert validate(Graph(2, [(0, 1)]), td) == ["bag 1 repeats vertex 1"]
