"""The rooted tree index of ``TreeDecomposition`` against the searches it replaced.

Every tree query used to run its own breadth-first search over the node
tree.  Those searches stay below verbatim (methods as functions of ``td``) as
the reference: on every decomposition the engine builds along the corpus,
and on seeded random trees, the index must give the same paths, node sets,
depths, forced nodes and ``(node, vertex)`` pairs.  A networkx differential
checks ``validate`` itself, including node graphs with a cycle.
"""

import random

import pytest

import treealpha.decomposer as dec
from treealpha.decomposer import DecompositionError, _forced_nodes, _rooted_masks
from treealpha.graph import Graph, induced_subgraph
from treealpha.treedecomp import (
    TreeDecomposition,
    closed_neighborhood_bag,
    restrict,
    validate,
)


# -- reference: the per-routine searches, verbatim --------------------------------


def ref_tree_path(td, a: int, b: int) -> tuple[int, ...]:
    if a == b:
        return (a,)
    prev = {a: -1}
    frontier = [a]
    while frontier:
        nxt: list[int] = []
        for t in frontier:
            for s in td.node_neighbors(t):
                if s not in prev:
                    prev[s] = t
                    nxt.append(s)
        if b in prev:
            break
        frontier = nxt
    if b not in prev:
        raise ValueError("nodes in different tree components")
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


def ref_path_between_subtrees(td, u: int, v: int) -> tuple[int, ...]:
    src, dst = td.subtree(u), set(td.subtree(v))
    if not src or not dst:
        raise ValueError("empty subtree")
    hit = sorted(set(src) & dst)
    if hit:
        return (hit[0],)
    prev = {t: -1 for t in src}
    frontier = sorted(src)
    goal = None
    while frontier and goal is None:
        nxt: list[int] = []
        for t in frontier:
            for s in td.node_neighbors(t):
                if s not in prev:
                    prev[s] = t
                    if s in dst:
                        goal = s
                        break
                    nxt.append(s)
            if goal is not None:
                break
        frontier = nxt
    if goal is None:
        raise ValueError("subtrees in different tree components")
    path = [goal]
    while prev[path[-1]] != -1:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


def ref_grow_to_anchors(
    td: TreeDecomposition, nodes: tuple[int, ...], anchors: tuple[int, ...]
) -> set[int]:
    target = set(nodes)
    for a in anchors:
        if a in target:
            continue
        parent = {a: -1}
        frontier = [a]
        hit = None
        while frontier and hit is None:
            nxt: list[int] = []
            for t in frontier:
                for s in td.node_neighbors(t):
                    if s not in parent:
                        parent[s] = t
                        if s in target:
                            hit = s
                            break
                        nxt.append(s)
                if hit is not None:
                    break
            frontier = nxt
        if hit is None:
            raise DecompositionError("anchor unreachable in node tree")
        while hit != -1:
            target.add(hit)
            hit = parent[hit]
    return target


def ref_path_between_node_sets(
    td: TreeDecomposition, src: set[int], dst: set[int]
) -> list[int]:
    parent = {t: -1 for t in src}
    frontier = sorted(src)
    goal = None
    while frontier and goal is None:
        nxt: list[int] = []
        for t in frontier:
            for s in td.node_neighbors(t):
                if s not in parent:
                    parent[s] = t
                    if s in dst:
                        goal = s
                        break
                    nxt.append(s)
            if goal is not None:
                break
        frontier = nxt
    if goal is None:
        raise DecompositionError("node sets unreachable")
    path = [goal]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path


def ref_bfs_depths(td: TreeDecomposition, start: int) -> list[int]:
    depth = [-1] * td.node_count
    depth[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for t in frontier:
            for s in td.node_neighbors(t):
                if depth[s] < 0:
                    depth[s] = depth[t] + 1
                    nxt.append(s)
        frontier = nxt
    return depth


def ref_rooted_masks(td: TreeDecomposition) -> tuple[list[int], list[int]]:
    parent = [-2] * td.node_count
    parent[0] = -1
    order = [0]
    for t in order:
        for s in td.node_neighbors(t):
            if parent[s] == -2:
                parent[s] = t
                order.append(s)
    below = [1 << t for t in range(td.node_count)]
    for t in reversed(order[1:]):
        below[parent[t]] |= below[t]
    return parent, below


def ref_forced_nodes(
    td: TreeDecomposition, parent: list[int], below: list[int], marks: list[int]
) -> set[int]:
    out: set[int] = set()
    for child in range(td.node_count):
        p = parent[child]
        if p < 0:
            continue
        side = below[child]
        if any(sm & ~side == 0 for sm in marks) and any(
            sm & side == 0 for sm in marks
        ):
            out.add(child)
            out.add(p)
    if not out:
        raise DecompositionError("split neighborhood without a separating edge")
    return out


def ref_closed_neighborhood_bag(g: Graph, td: TreeDecomposition) -> tuple[int, int]:
    if g.n == 0 or td.node_count == 0:
        raise ValueError("graph and decomposition must be non-null")
    root = td.node_count - 1
    depth = {root: 0}
    order = [root]
    frontier = [root]
    while frontier:
        t = frontier.pop()
        for s in td.node_neighbors(t):
            if s not in depth:
                depth[s] = depth[t] + 1
                order.append(s)
                frontier.append(s)
    best_v, best_home, best_depth = -1, -1, -1
    for v in range(g.n):
        nodes = td.subtree(v)
        if not nodes:
            raise ValueError(f"vertex {v} missing from decomposition")
        home = min(nodes, key=lambda t: (depth[t], t))
        if depth[home] > best_depth:
            best_v, best_home, best_depth = v, home, depth[home]
    bag = set(td.bags[best_home])
    if not set(g.neighbors(best_v)) | {best_v} <= bag:
        raise ValueError("no closed neighborhood fits a bag; decomposition invalid")
    return best_home, best_v


# -- inputs ---------------------------------------------------------------------


def _outcome(fn, *args):
    """The result of ``fn``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, DecompositionError) as exc:
        return type(exc), str(exc)


def _random_tree_td(rng: random.Random, k: int, n: int) -> TreeDecomposition:
    """A random node tree with shuffled ids; each vertex gets a connected subtree."""
    ids = list(range(k))
    rng.shuffle(ids)
    edges = tuple((ids[i], ids[rng.randrange(i)]) for i in range(1, k))
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


def _graph_of(td: TreeDecomposition, n: int, rng: random.Random) -> Graph:
    """A random graph on 0..n-1 that ``td`` decomposes: co-bagged pairs only."""
    pairs = {
        (u, v) for bag in td.bags for u in bag for v in bag if u < v
    }
    return Graph(n, [e for e in sorted(pairs) if rng.random() < 0.5])


@pytest.fixture(scope="module")
def engine_decompositions(p5_kll_corpus):
    """(graph, td) for every decomposition saturate_root and compress see.

    That is each level's incoming and saturated decomposition, and each
    surgery output together with its compressed form.
    """
    seen: list[tuple[Graph, TreeDecomposition]] = []
    current: list[Graph] = []
    compress, saturate_root = dec.compress, dec.saturate_root

    def recording_compress(td):
        out = compress(td)
        seen.extend(((current[0], td), (current[0], out)))
        return out

    def recording_saturate_root(g, r, td, ell, log=None):
        out = saturate_root(g, r, td, ell, log)
        seen.extend(((g, td), (g, out)))
        return out

    dec.compress, dec.saturate_root = recording_compress, recording_saturate_root
    try:
        for g, ell, _ in p5_kll_corpus:
            current[:] = [g]
            dec.decompose(g, ell, check_p5=False)
    finally:
        dec.compress, dec.saturate_root = compress, saturate_root
    unique = {(td.edges, td.bags): (g, td) for g, td in seen}
    return list(unique.values())


def _random_trees() -> list[tuple[Graph, TreeDecomposition]]:
    rng = random.Random(61)
    out = []
    for _ in range(300):
        k, n = rng.randint(1, 14), rng.randint(1, 10)
        td = _random_tree_td(rng, k, n)
        out.append((_graph_of(td, n, rng), td))
    return out


def _compare_with_reference(g: Graph, td: TreeDecomposition, rng: random.Random):
    k = td.node_count
    nodes = list(range(k))
    for _ in range(12):
        a, b = rng.choice(nodes), rng.choice(nodes)
        assert td.tree_path(a, b) == ref_tree_path(td, a, b)
    start = rng.choice(nodes)
    depths = ref_bfs_depths(td, start)
    assert [len(td.tree_path(start, t)) - 1 for t in nodes] == depths

    verts = list(td.vertices())
    for _ in range(12):
        u, v = rng.choice(verts), rng.choice(verts)
        assert td.path_between_subtrees(u, v) == ref_path_between_subtrees(td, u, v)
        su, sv = set(td.subtree(u)), set(td.subtree(v))
        if not su & sv:
            assert list(reversed(td.path_between(su, sv))) == (
                ref_path_between_node_sets(td, su, sv)
            )
        anchors = (rng.choice(nodes), rng.choice(nodes))
        span = set(td.subtree(u))
        for a in anchors:
            if a not in span:
                span.update(td.path_between((a,), span))
        assert span == ref_grow_to_anchors(td, td.subtree(u), anchors)

    masks = [sum(1 << t for t in td.subtree(v)) for v in verts]
    new_parent, new_below = _rooted_masks(td)
    old_parent, old_below = ref_rooted_masks(td)
    for _ in range(6):
        marks = rng.sample(masks, min(len(masks), rng.randint(2, 4)))
        assert _outcome(_forced_nodes, td, new_parent, new_below, marks) == (
            _outcome(ref_forced_nodes, td, old_parent, old_below, marks)
        )

    sub, _ = induced_subgraph(g, verts)
    local = restrict(td, verts)
    assert _outcome(closed_neighborhood_bag, sub, local) == (
        _outcome(ref_closed_neighborhood_bag, sub, local)
    )


def test_index_matches_the_searches_on_engine_decompositions(engine_decompositions):
    assert len(engine_decompositions) > 1000
    assert max(td.node_count for _, td in engine_decompositions) >= 20
    rng = random.Random(67)
    for g, td in engine_decompositions:
        _compare_with_reference(g, td, rng)


def test_index_matches_the_searches_on_random_trees():
    rng = random.Random(71)
    for g, td in _random_trees():
        _compare_with_reference(g, td, rng)


def test_index_roots_at_the_last_node():
    td = TreeDecomposition(((0, 1), (1, 2), (1, 3)), ((0,), (0, 1), (1,), (1, 2)))
    parent, depth, order = td.rooted
    assert parent == (1, 3, 1, -1)
    assert depth == (2, 1, 2, 0)
    assert order == (3, 1, 0, 2)
    assert td.rooted is td.rooted
    assert TreeDecomposition((), ((0,),))._rooted is None


# -- disconnected node graphs ------------------------------------------------------


def test_index_rejects_unreachable_nodes():
    # two components; the root 3 reaches only {2, 3}
    td = TreeDecomposition(((0, 1), (2, 3)), ((0,), (0, 1), (2,), (2, 3)))
    assert td.rooted.order == (3, 2)
    assert td.tree_path(2, 3) == (2, 3)
    for a, b in ((0, 1), (0, 3), (3, 1), (0, 0)):
        with pytest.raises(ValueError):
            td.tree_path(a, b)
    for u, v in ((0, 2), (1, 3), (0, 3)):
        with pytest.raises(ValueError):
            td.path_between_subtrees(u, v)
    assert td.path_between_subtrees(0, 1) == (1,)
    node, v = closed_neighborhood_bag(Graph(4, []), td)
    assert v in td.bags[node]
    assert "node graph is disconnected" in validate(Graph(4, []), td)


def test_index_terminates_on_a_cycle_with_tree_edge_count():
    # k - 1 edges, but nodes 1, 2, 3 form a cycle and node 0 is cut off
    td = TreeDecomposition(((1, 2), (2, 3), (3, 1)), ((0,), (1,), (1, 2), (2, 3)))
    assert td.rooted.order == (3, 1, 2)
    assert td.tree_path(1, 2) in ((1, 2), (1, 3, 2))
    with pytest.raises(ValueError):
        td.tree_path(0, 3)
    with pytest.raises(ValueError):
        td.path_between_subtrees(0, 3)
    assert validate(Graph(4, []), td) == ["node graph is disconnected"]


# -- validate against networkx ---------------------------------------------------


def _nx_valid(nx, g: Graph, td: TreeDecomposition) -> bool:
    """The tree-decomposition conditions, checked with networkx alone."""
    k = td.node_count
    tree = nx.MultiGraph()
    tree.add_nodes_from(range(k))
    tree.add_edges_from(td.edges)
    if k == 0 or not nx.is_tree(tree):
        return False
    if any(not 0 <= v < g.n for bag in td.bags for v in bag):
        return False
    for v in range(g.n):
        holding = [t for t, bag in enumerate(td.bags) if v in bag]
        if not holding or not nx.is_connected(tree.subgraph(holding)):
            return False
    return all(
        any(u in bag and v in bag for bag in td.bags) for u, v in g.edges()
    )


def _cycle_rewire(td: TreeDecomposition, rng: random.Random):
    """Same edge count, one edge moved to close a cycle; None if impossible."""
    k = td.node_count
    edges = list(td.edges)
    if k < 4:
        return None
    drop = edges.pop(rng.randrange(len(edges)))
    adj: dict[int, set[int]] = {t: set() for t in range(k)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    side = {drop[0]}
    stack = [drop[0]]
    while stack:
        for s in adj[stack.pop()]:
            if s not in side:
                side.add(s)
                stack.append(s)
    big = side if len(side) >= 3 else set(range(k)) - side
    choices = [
        (a, b)
        for a in sorted(big)
        for b in sorted(big)
        if a < b and b not in adj[a]
    ]
    if not choices:
        return None
    edges.append(rng.choice(choices))
    return TreeDecomposition(tuple(edges), td.bags)


def _broken(td: TreeDecomposition, n: int, rng: random.Random) -> TreeDecomposition:
    bags = [list(b) for b in td.bags]
    edges = list(td.edges)
    k = td.node_count
    move = rng.randrange(5)
    if move == 0:
        full = [b for b in bags if b]
        if full:
            bag = rng.choice(full)
            bag.remove(rng.choice(bag))
    elif move == 1:
        rng.choice(bags).append(rng.randrange(n + 1))
    elif move == 2 and edges:
        edges.pop(rng.randrange(len(edges)))
    elif move == 3 and k >= 2:
        edges[rng.randrange(len(edges))] = tuple(rng.sample(range(k), 2))
    elif k >= 2:
        edges.append(tuple(rng.sample(range(k), 2)))
    return TreeDecomposition(
        tuple(edges), tuple(tuple(sorted(set(b))) for b in bags)
    )


def test_validate_matches_networkx(engine_decompositions):
    nx = pytest.importorskip("networkx")
    rng = random.Random(73)
    cases = engine_decompositions[::10] + _random_trees()
    verdicts = {True: 0, False: 0}
    cyclic = 0
    for g, td in cases:
        keep = td.vertices()
        sub, _ = induced_subgraph(g, keep)
        local = restrict(td, keep)
        assert validate(sub, local) == [] and _nx_valid(nx, sub, local)
        variants = [_broken(local, sub.n, rng) for _ in range(3)]
        rewired = _cycle_rewire(local, rng)
        if rewired is not None:
            cyclic += 1
            assert len(rewired.rooted.order) < rewired.node_count
            variants.append(rewired)
        for bad in variants:
            verdict = _nx_valid(nx, sub, bad)
            assert (validate(sub, bad) == []) == verdict
            verdicts[verdict] += 1
    assert cyclic > 100 and verdicts[True] > 50 and verdicts[False] > 500
