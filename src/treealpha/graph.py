"""Immutable simple undirected graphs with dense 0-based vertex ids.

Every structure in this library is built on top of this module: graphs are
frozen after construction, all operations are pure functions, and iteration
order is deterministic (ascending vertex ids) so downstream tie-breaking is
reproducible.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence


class GraphParseError(ValueError):
    """Raised for malformed graph input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """A finite simple undirected graph on vertices ``0 .. n-1``.

    Adjacency is stored once, as one integer bitmask row per vertex: bit u
    of row v is set when u and v are adjacent.  Every other view (neighbor
    tuples, degrees, the edge list) is read off the rows in ascending order.
    Instances are immutable and safe for concurrent reads.
    """

    __slots__ = ("n", "_bits")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        bits = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if bits[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.n = n
        self._bits: tuple[int, ...] = tuple(bits)

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "Graph":
        """The graph whose adjacency bitmask rows are ``rows``, one per vertex.

        Every row must be nonnegative, below ``1 << n`` and clear of its own
        vertex's bit, which takes O(n) to check.  Symmetry (bit v of row u exactly when
        bit u of row v) is not checked; the rows must come from a producer
        that keeps it.
        """
        bits = tuple(rows)
        n = len(bits)
        for v, row in enumerate(bits):
            if row < 0 or row >> n:
                raise ValueError(f"row {v} is not a vertex mask for n={n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        g = cls.__new__(cls)
        g.n = n
        g._bits = bits
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.n)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._bits) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        return [
            (u, v) for u, row in enumerate(self._bits) for v in members(row & -(2 << u))
        ]

    def degree(self, v: int) -> int:
        return self.neighbor_bits(v).bit_count()

    def adjacent(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._bits[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return members(self.neighbor_bits(v))

    def neighbor_bits(self, v: int) -> int:
        self._check_vertex(v)
        return self._bits[v]

    def adjacency_bits(self) -> tuple[int, ...]:
        return self._bits

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"invalid vertex {v} for graph with n={self.n}")

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._bits == other._bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self._bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


VertexSet = tuple[int, ...]


def vertex_set(members: Iterable[int]) -> VertexSet:
    """Canonical sorted duplicate-free tuple of vertex ids."""
    return tuple(sorted(set(members)))


def members(mask: int) -> VertexSet:
    """The vertices of the bitmask ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


def mask_of(g: Graph, s: Iterable[int]) -> int:
    """The bitmask of the vertex set ``s``; a ValueError names its first non-vertex."""
    n = g.n
    mask = 0
    for v in s:
        if not 0 <= v < n:
            raise ValueError(f"invalid vertex {v} for graph with n={n}")
        mask |= 1 << v
    return mask


def component(bits: Sequence[int], mask: int) -> int:
    """The connected component of the lowest masked vertex, as a bitmask."""
    comp = frontier = mask & -mask
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= bits[low.bit_length() - 1]
        frontier = reach & mask & ~comp
        comp |= frontier
    return comp


def neighborhood(bits: Sequence[int], mask: int) -> int:
    """The union of the neighborhoods of the masked vertices, as a bitmask."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= bits[low.bit_length() - 1]
    return out


def cocomponent(bits: Sequence[int], mask: int) -> int:
    """The component of the lowest masked vertex in the complement, as a bitmask."""
    frontier = mask & -mask
    unseen = mask ^ frontier
    while frontier and unseen:
        low = frontier & -frontier
        far = unseen & ~bits[low.bit_length() - 1]
        unseen ^= far
        frontier ^= low | far
    return mask ^ unseen


def pieces(
    cut: Callable[[Sequence[int], int], int], bits: Sequence[int], mask: int
) -> list[int]:
    """``mask`` cut into its components, or co-components, by ``cut``.

    The pieces are bitmasks, ordered by their lowest vertex.
    """
    out = []
    while mask:
        out.append(cut(bits, mask))
        mask ^= out[-1]
    return out


def open_neighborhood(g: Graph, v: int) -> VertexSet:
    """The neighbors of ``v``, excluding ``v`` itself."""
    return g.neighbors(v)

def closed_neighborhood(g: Graph, v: int) -> VertexSet:
    """The neighbors of ``v`` together with ``v``."""
    return members(g.neighbor_bits(v) | 1 << v)


def closed_neighborhood_of_set(g: Graph, s: Iterable[int]) -> VertexSet:
    mask = mask_of(g, s)
    return members(mask | neighborhood(g.adjacency_bits(), mask))


def components(g: Graph, s: Iterable[int]) -> list[VertexSet]:
    """Connected components of the subgraph induced by ``s``.

    Returned as sorted vertex tuples, ordered by their minimum vertex id.
    """
    comps = pieces(component, g.adjacency_bits(), mask_of(g, s))
    return [members(c) for c in comps]


def is_connected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return component(g.adjacency_bits(), full) == full


def is_complete_between(g: Graph, a: Iterable[int], b: Iterable[int]) -> bool:
    """True iff every vertex of ``a`` is adjacent to every vertex of ``b``.

    Vacuously true when either side is empty; the sides must be disjoint.
    """
    amask, bmask = mask_of(g, a), mask_of(g, b)
    if amask & bmask:
        raise ValueError(f"sides overlap: {list(members(amask & bmask))}")
    return complete_between(g.adjacency_bits(), amask, bmask)


def complete_between(bits: Sequence[int], a: int, b: int) -> bool:
    """Whether every vertex of mask ``a`` is adjacent to every vertex of mask ``b``.

    The mask form of :func:`is_complete_between`, without its overlap check.
    """
    while a:
        low = a & -a
        a ^= low
        if b & ~bits[low.bit_length() - 1]:
            return False
    return True


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    mask = mask_of(g, s)
    return not neighborhood(g.adjacency_bits(), mask) & mask


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, VertexSet]:
    """Subgraph induced by ``s`` plus the map from new ids back to old ones.

    New vertex ``i`` corresponds to ``mapping[i]``, the i-th smallest member
    of ``s``.
    """
    mapping = vertex_set(s)
    keep, bits = mask_of(g, mapping), g.adjacency_bits()
    index = {v: i for i, v in enumerate(mapping)}
    edges = [
        (index[u], index[v]) for u in mapping for v in members(bits[u] & keep & -(2 << u))
    ]
    return Graph(len(mapping), edges), mapping


# -- parsing and serialization --------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the plain edge-list format or DIMACS ``p edge`` payloads.

    Edge-list: first non-comment line is the vertex count ``n``; every later
    line is one ``u v`` pair, 0-based.  DIMACS: ``p edge n m`` header, then
    ``e u v`` lines with 1-based ids (converted to 0-based).  Comment lines
    start with ``c`` or ``#``.  A payload has one header and one format: a
    second header, or an edge line of the other format, is an error.  Each
    edge is checked once; the n rows are built only after the payload parses.
    """
    n: int | None = None
    dimacs = False
    declared_m = 0
    rows: dict[int, int] = {}

    def add_edge(u: int, v: int, line_no: int) -> None:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(line_no, f"endpoint out of range: {u} {v}")
        if u == v:
            raise GraphParseError(line_no, f"self-loop at vertex {u}")
        if rows.get(u, 0) >> v & 1:
            raise GraphParseError(line_no, f"duplicate edge {min(u, v)} {max(u, v)}")
        rows[u] = rows.get(u, 0) | 1 << v
        rows[v] = rows.get(v, 0) | 1 << u

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("c", "#")):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphParseError(line_no, f"second header: {line!r}")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphParseError(line_no, f"malformed DIMACS header: {line!r}")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphParseError(line_no, f"non-integer header field: {line!r}")
            if n < 0 or declared_m < 0:
                raise GraphParseError(line_no, "negative header value")
            dimacs = True
        elif parts[0] == "e":
            if not dimacs:
                raise GraphParseError(line_no, "'e' line outside DIMACS payload")
            if len(parts) != 3:
                raise GraphParseError(line_no, f"malformed edge line: {line!r}")
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise GraphParseError(line_no, f"non-integer endpoint: {line!r}")
            add_edge(u, v, line_no)
        elif n is None:
            if len(parts) != 1:
                raise GraphParseError(line_no, f"malformed header line: {line!r}")
            try:
                n = int(parts[0])
            except ValueError:
                raise GraphParseError(line_no, f"non-integer vertex count: {line!r}")
            if n < 0:
                raise GraphParseError(line_no, "negative vertex count")
        else:
            if dimacs:
                raise GraphParseError(line_no, f"plain edge in DIMACS payload: {line!r}")
            if len(parts) != 2:
                raise GraphParseError(line_no, f"malformed edge line: {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(line_no, f"non-integer endpoint: {line!r}")
            add_edge(u, v, line_no)

    if n is None:
        raise GraphParseError(1, "missing header")
    found = sum(row.bit_count() for row in rows.values()) // 2
    if dimacs and declared_m != found:
        raise GraphParseError(1, f"declared {declared_m} edges, found {found}")
    return Graph.from_rows(rows.get(v, 0) for v in range(n))


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list text: vertex count, then edges sorted lexically."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
