"""Tree decompositions: data model, validation, bag independence number.

A decomposition is a tree of nodes (dense 0-based ids) with one bag of graph
vertices per node.  Instances are immutable; the restructuring operations in
:mod:`treealpha.decomposer` always build new decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .graph import Graph, VertexSet, vertex_set
from .oracles import alpha_of_subset


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree plus one bag per node.

    ``edges`` are tree edges between node ids ``0 .. len(bags)-1``.  The
    subtree index (vertex -> nodes whose bag holds it) is derived once.
    """

    edges: tuple[tuple[int, int], ...]
    bags: tuple[VertexSet, ...]
    _node_adj: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _subtrees: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.bags)
        adj: list[list[int]] = [[] for _ in range(k)]
        for a, b in self.edges:
            if not (0 <= a < k and 0 <= b < k) or a == b:
                raise ValueError(f"bad tree edge ({a},{b})")
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(
            self, "_node_adj", tuple(tuple(sorted(x)) for x in adj)
        )
        sub: dict[int, list[int]] = {}
        for t, bag in enumerate(self.bags):
            for v in bag:
                sub.setdefault(v, []).append(t)
        object.__setattr__(
            self, "_subtrees", {v: tuple(ts) for v, ts in sub.items()}
        )

    @property
    def node_count(self) -> int:
        return len(self.bags)

    def node_neighbors(self, t: int) -> tuple[int, ...]:
        return self._node_adj[t]

    def subtree(self, v: int) -> tuple[int, ...]:
        """Nodes whose bag contains ``v`` (empty tuple if none)."""
        return self._subtrees.get(v, ())

    def vertices(self) -> VertexSet:
        return tuple(sorted(self._subtrees))

    def tree_path(self, a: int, b: int) -> tuple[int, ...]:
        """The unique path of nodes from ``a`` to ``b``."""
        if a == b:
            return (a,)
        prev = {a: -1}
        frontier = [a]
        while frontier:
            nxt: list[int] = []
            for t in frontier:
                for s in self.node_neighbors(t):
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

    def path_between_subtrees(self, u: int, v: int) -> tuple[int, ...]:
        """Shortest node path from T(u) to T(v); a single node if they meet."""
        src, dst = self.subtree(u), set(self.subtree(v))
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
                for s in self.node_neighbors(t):
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

    def relabel_vertices(self, mapping: Sequence[int]) -> "TreeDecomposition":
        """Rename bag contents: vertex ``i`` becomes ``mapping[i]``."""
        return TreeDecomposition(
            self.edges,
            tuple(tuple(sorted(mapping[v] for v in bag)) for bag in self.bags),
        )


def single_bag_decomposition(vertices: Iterable[int]) -> TreeDecomposition:
    return TreeDecomposition((), (vertex_set(vertices),))


# -- validation --------------------------------------------------------------


def validate(
    g: Graph, td: TreeDecomposition, vertices: Optional[Iterable[int]] = None
) -> list[str]:
    """All violations of the tree-decomposition conditions (empty = valid).

    Checks that the node graph is a tree, that every vertex appears in a
    nonempty connected set of bags, and that every edge is inside some bag.
    With ``vertices`` given, ``td`` is checked against the subgraph they
    induce: a bag vertex outside them is outside the graph, and only edges
    with both ends among them must be covered.
    """
    scope = range(g.n) if vertices is None else vertex_set(vertices)
    inside = set(scope)
    out: list[str] = []
    k = td.node_count
    if k == 0:
        out.append("decomposition has no nodes")
        return out
    if len(td.edges) != k - 1:
        out.append(f"node graph has {len(td.edges)} edges, expected {k - 1}")
    seen = {0}
    frontier = [0]
    while frontier:
        t = frontier.pop()
        for s in td.node_neighbors(t):
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    if len(seen) != k:
        out.append("node graph is disconnected")
    if out:
        return out
    for bag in td.bags:
        for v in bag:
            if v not in inside:
                out.append(f"bag vertex {v} outside graph")
                return out
    for v in scope:
        nodes = td.subtree(v)
        if not nodes:
            out.append(f"vertex {v} appears in no bag")
            continue
        reach = {nodes[0]}
        frontier = [nodes[0]]
        nodeset = set(nodes)
        while frontier:
            t = frontier.pop()
            for s in td.node_neighbors(t):
                if s in nodeset and s not in reach:
                    reach.add(s)
                    frontier.append(s)
        if len(reach) != len(nodes):
            out.append(f"vertex {v} has a disconnected bag set")
    for u in scope:
        for v in g.neighbors(u):
            if u < v and v in inside and not (
                set(td.subtree(u)) & set(td.subtree(v))
            ):
                out.append(f"edge {u}-{v} not covered by any bag")
    return out


def td_alpha(g: Graph, td: TreeDecomposition) -> int:
    """Independence number of the decomposition: max alpha over bags."""
    return max((alpha_of_subset(g, bag) for bag in td.bags), default=0)


def cobagged_pairs(td: TreeDecomposition, s: Iterable[int]) -> set[frozenset[int]]:
    """All unordered pairs from ``s`` that share at least one bag."""
    sl = vertex_set(s)
    out: set[frozenset[int]] = set()
    for i, u in enumerate(sl):
        su = set(td.subtree(u))
        for v in sl[i + 1 :]:
            if su & set(td.subtree(v)):
                out.add(frozenset((u, v)))
    return out


def find_bag_containing_set(td: TreeDecomposition, s: Iterable[int]) -> Optional[int]:
    """Least node whose bag contains ``s``; None if there is none.

    For a valid decomposition this exists exactly when every pair of ``s``
    is co-bagged (Helly property of subtrees).
    """
    want = set(s)
    for t, bag in enumerate(td.bags):
        if want <= set(bag):
            return t
    return None


def closed_neighborhood_bag(g: Graph, td: TreeDecomposition) -> tuple[int, int]:
    """A node ``t`` and vertex ``v`` with N[v] contained in the bag of ``t``.

    Roots the tree at its last node; for each vertex the root-most node of
    its subtree is its home, and a vertex with the deepest home works.
    Raises if the decomposition is invalid (no such pair survives the check).
    """
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


def restrict(td: TreeDecomposition, s: Iterable[int]) -> TreeDecomposition:
    """Decomposition of the induced subgraph on ``s``.

    Bags are intersected with ``s`` and renamed to the induced subgraph's
    ids (position in sorted ``s``).  Bag independence never increases.
    """
    keep = vertex_set(s)
    index = {v: i for i, v in enumerate(keep)}
    bags = tuple(
        tuple(index[v] for v in bag if v in index) for bag in td.bags
    )
    return TreeDecomposition(td.edges, bags)


def subtree_distance(td: TreeDecomposition, u: int, v: int) -> int:
    """Tree edges on the shortest path between T(u) and T(v); 0 if they meet."""
    return len(td.path_between_subtrees(u, v)) - 1


def compress(td: TreeDecomposition) -> TreeDecomposition:
    """Contract tree edges whose one bag is contained in the other.

    Keeps validity, bag independence, and every co-bagged vertex pair, while
    shrinking the node count (no adjacent containment remains).
    """
    bags = [set(b) for b in td.bags]
    adj = [set(td.node_neighbors(t)) for t in range(td.node_count)]
    alive = [True] * td.node_count
    changed = True
    while changed:
        changed = False
        for t in range(td.node_count):
            if not alive[t]:
                continue
            for s in sorted(adj[t]):
                if bags[s] <= bags[t]:
                    # contract s into t
                    for q in adj[s]:
                        if q != t:
                            adj[q].discard(s)
                            adj[q].add(t)
                            adj[t].add(q)
                    adj[t].discard(s)
                    alive[s] = False
                    adj[s] = set()
                    changed = True
                    break
            if changed:
                break
    keep = [t for t in range(td.node_count) if alive[t]]
    index = {t: i for i, t in enumerate(keep)}
    edges = sorted(
        (min(index[a], index[b]), max(index[a], index[b]))
        for a in keep
        for b in adj[a]
        if a < b
    )
    return TreeDecomposition(
        tuple(edges), tuple(tuple(sorted(bags[t])) for t in keep)
    )


# -- serialization ------------------------------------------------------------


def serialize_td(td: TreeDecomposition) -> str:
    """Structured text: ``td <#nodes>``, then ``e i j`` lines, then bags."""
    lines = [f"td {td.node_count}"]
    for a, b in sorted(tuple(sorted(e)) for e in td.edges):
        lines.append(f"e {a} {b}")
    for t, bag in enumerate(td.bags):
        lines.append("b " + " ".join(str(v) for v in (t,) + tuple(bag)))
    return "\n".join(lines) + "\n"


def parse_td(text: str) -> TreeDecomposition:
    count: int | None = None
    edges: list[tuple[int, int]] = []
    bags: dict[int, VertexSet] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "td":
            if count is not None or len(parts) != 2:
                raise ValueError(f"line {line_no}: malformed td header")
            count = int(parts[1])
        elif parts[0] == "e":
            if len(parts) != 3:
                raise ValueError(f"line {line_no}: malformed edge line")
            edges.append((int(parts[1]), int(parts[2])))
        elif parts[0] == "b":
            if len(parts) < 2:
                raise ValueError(f"line {line_no}: malformed bag line")
            node = int(parts[1])
            if node in bags:
                raise ValueError(f"line {line_no}: duplicate bag {node}")
            bags[node] = vertex_set(int(v) for v in parts[2:])
        else:
            raise ValueError(f"line {line_no}: unknown record {parts[0]!r}")
    if count is None:
        raise ValueError("missing td header")
    if set(bags) != set(range(count)):
        raise ValueError("bag lines do not cover nodes 0..count-1")
    return TreeDecomposition(tuple(edges), tuple(bags[t] for t in range(count)))


def to_record(td: TreeDecomposition) -> dict:
    return {
        "nodes": td.node_count,
        "edges": [list(e) for e in td.edges],
        "bags": [list(b) for b in td.bags],
    }
