"""Tree decompositions: data model, validation, bag independence number.

A decomposition is a tree of nodes (dense 0-based ids) with one bag of graph
vertices per node.  Instances are immutable; the restructuring operations in
:mod:`treealpha.decomposer` always build new decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from .graph import Graph, VertexSet, mask_of, members, vertex_set
from .oracles import alpha_exceeds, alpha_mask


class RootedIndex(NamedTuple):
    """The node tree rooted at its last node, in breadth-first order.

    ``parent`` is -1 at the root and ``depth`` counts the edges to the root.
    On a disconnected node graph the nodes the search never reaches keep
    parent -1 and depth -1 and are missing from ``order``.
    """

    parent: tuple[int, ...]
    depth: tuple[int, ...]
    order: tuple[int, ...]


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree plus one bag per node.

    ``edges`` are tree edges between node ids ``0 .. len(bags)-1``.  The
    subtree index is derived once by :func:`node_masks`: :meth:`node_mask`
    is T(v), the nodes whose bag holds ``v``, as a bitmask of node ids.  The
    rooted index (:class:`RootedIndex`, rooted at the last node) is built on
    first use and cached; every tree query reads it.  The path methods assume
    that the node graph is a tree and that each T(v) is connected, which
    :func:`validate` checks; a node the root does not reach raises ValueError.
    """

    edges: tuple[tuple[int, int], ...]
    bags: tuple[VertexSet, ...]
    _node_adj: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _masks: dict[int, int] = field(init=False, repr=False, compare=False)
    # A declared field, not functools.cached_property: on CPython 3.11 a
    # write through the instance __dict__ slows every later attribute read.
    _rooted: Optional[RootedIndex] = field(
        default=None, init=False, repr=False, compare=False
    )

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
        object.__setattr__(self, "_masks", node_masks(self.bags))

    @property
    def node_count(self) -> int:
        return len(self.bags)

    def node_neighbors(self, t: int) -> tuple[int, ...]:
        return self._node_adj[t]

    @property
    def rooted(self) -> RootedIndex:
        """The rooted index, built on the first call."""
        if self._rooted is not None:
            return self._rooted
        k = len(self.bags)
        parent, depth = [-1] * k, [-1] * k
        order = [k - 1] if k else []
        if k:
            depth[k - 1] = 0
        for t in order:
            for s in self._node_adj[t]:
                if depth[s] < 0:
                    parent[s], depth[s] = t, depth[t] + 1
                    order.append(s)
        index = RootedIndex(tuple(parent), tuple(depth), tuple(order))
        object.__setattr__(self, "_rooted", index)
        return index

    def node_mask(self, v: int) -> int:
        """T(v) as a bitmask over node ids (0 if no bag holds ``v``)."""
        return self._masks.get(v, 0)

    def subtree(self, v: int) -> tuple[int, ...]:
        """Nodes whose bag contains ``v``, ascending (empty tuple if none)."""
        return members(self._masks.get(v, 0))

    def vertices(self) -> VertexSet:
        return tuple(sorted(self._masks))

    def tree_path(self, a: int, b: int) -> tuple[int, ...]:
        """The unique path of nodes from ``a`` to ``b``."""
        parent, depth, _ = self.rooted
        if depth[a] < 0 or depth[b] < 0:
            raise ValueError("node graph is disconnected")
        up, down = [a], [b]
        while up[-1] != down[-1]:
            if depth[up[-1]] >= depth[down[-1]]:
                up.append(parent[up[-1]])
            else:
                down.append(parent[down[-1]])
        return tuple(up + down[-2::-1])

    def path_between(
        self, src: Collection[int], dst: Collection[int]
    ) -> tuple[int, ...]:
        """The shortest node path from ``src`` to ``dst``.

        Both must be nonempty, disjoint and connected.  In a tree every path
        from a node of ``src`` to a node of ``dst`` runs through the shortest
        one, so it is any such path cut after its last node in ``src`` and
        before its first node in ``dst``.
        """
        path = self.tree_path(next(iter(src)), next(iter(dst)))
        i, j = 0, len(path) - 1
        while path[i + 1] in src:
            i += 1
        while path[j - 1] in dst:
            j -= 1
        return path[i : j + 1]

    def path_between_subtrees(self, u: int, v: int) -> tuple[int, ...]:
        """Shortest node path from T(u) to T(v); a single node if they meet."""
        src, dst = self.node_mask(u), self.node_mask(v)
        if not src or not dst:
            raise ValueError("empty subtree")
        hit = src & dst
        if hit:
            return ((hit & -hit).bit_length() - 1,)
        return self.path_between(set(members(src)), set(members(dst)))

    def relabel_vertices(self, mapping: Sequence[int]) -> "TreeDecomposition":
        """Rename bag contents: vertex ``i`` becomes ``mapping[i]``."""
        return TreeDecomposition(
            self.edges,
            tuple(tuple(sorted(mapping[v] for v in bag)) for bag in self.bags),
        )


def node_masks(bags: Iterable[Iterable[int]]) -> dict[int, int]:
    """Each vertex's bitmask of the bag positions that hold it."""
    masks: dict[int, int] = {}
    for t, bag in enumerate(bags):
        bit = 1 << t
        for v in bag:
            masks[v] = masks.get(v, 0) | bit
    return masks


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
    parent, _, order = td.rooted
    if len(order) != k:
        out.append("node graph is disconnected")
    if out:
        return out
    for t, bag in enumerate(td.bags):
        for v in bag:
            if v not in inside:
                out.append(f"bag vertex {v} outside graph")
                return out
        if len(set(bag)) < len(bag):
            v = next(v for i, v in enumerate(bag) if v in bag[:i])
            out.append(f"bag {t} repeats vertex {v}")
    up = [1 << p if p >= 0 else 0 for p in parent]  # no bit at the root
    for v in scope:
        nodes = td.node_mask(v)
        if not nodes:
            out.append(f"vertex {v} appears in no bag")
            continue
        if sum(not nodes & up[t] for t in members(nodes)) != 1:
            out.append(f"vertex {v} has a disconnected bag set")
    for u in scope:
        mu = td.node_mask(u)
        for v in g.neighbors(u):
            if u < v and v in inside and not mu & td.node_mask(v):
                out.append(f"edge {u}-{v} not covered by any bag")
    return out


def td_alpha(g: Graph, td: TreeDecomposition) -> int:
    """Independence number of the decomposition: max alpha over bags."""
    masks = {mask_of(g, bag) for bag in td.bags}
    return max((alpha_mask(g, m) for m in masks), default=0)


def td_alpha_exceeds(g: Graph, td: TreeDecomposition, k: int) -> bool:
    """Whether some bag has an independent set of more than ``k`` vertices.

    The decision form of ``td_alpha(g, td) > k``; each distinct bag is
    searched once, and only until the bound is settled.
    """
    return any(alpha_exceeds(g, m, k) for m in {mask_of(g, bag) for bag in td.bags})


def cobagged_pairs(td: TreeDecomposition, s: Iterable[int]) -> set[frozenset[int]]:
    """All unordered pairs from ``s`` that share at least one bag."""
    held = [(v, td.node_mask(v)) for v in vertex_set(s)]
    return {
        frozenset((u, v))
        for i, (u, mu) in enumerate(held)
        for v, mv in held[i + 1 :]
        if mu & mv
    }


def find_bag_containing_set(td: TreeDecomposition, s: Iterable[int]) -> Optional[int]:
    """Least node whose bag contains ``s``; None if there is none.

    For a valid decomposition this exists exactly when every pair of ``s``
    is co-bagged (Helly property of subtrees).
    """
    common = (1 << td.node_count) - 1
    for v in s:
        common &= td.node_mask(v)
    return (common & -common).bit_length() - 1 if common else None


def closed_neighborhood_bag(g: Graph, td: TreeDecomposition) -> tuple[int, int]:
    """A node ``t`` and vertex ``v`` with N[v] contained in the bag of ``t``.

    Roots the tree at its last node; for each vertex the root-most node of
    its subtree is its home, and a vertex with the deepest home works.
    Raises if the decomposition is invalid (no such pair survives the check).
    """
    if g.n == 0 or td.node_count == 0:
        raise ValueError("graph and decomposition must be non-null")
    depth = td.rooted.depth
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
