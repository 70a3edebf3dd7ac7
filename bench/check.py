"""Independent checks of the library's outputs.

Nothing in this file imports ``treealpha``.  Graphs arrive as ``(n, edges)``
data, decompositions as plain tree edges and bags, witnesses as
``(kind, parts)``.  Each check returns a list of problems; an empty list
means the output holds.  The algorithms differ from the library's on
purpose (plain branching instead of clique-cover bounds, a memoised subset
DP instead of the library's unmemoised one), so a shared bug is unlikely.
"""

from __future__ import annotations

from itertools import combinations


def adjacency(n: int, edges) -> list[int]:
    """Neighbour bitmask per vertex."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _component(adj: list[int], start: int, within: int) -> int:
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= adj[v]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def alpha(adj: list[int], mask: int, memo: dict | None = None) -> int:
    """Independence number of the subgraph induced by ``mask``.

    Splits into components, takes any vertex of degree <= 1, and otherwise
    branches on a vertex of maximum degree.
    """
    if memo is None:
        memo = {}
    if not mask:
        return 0
    got = memo.get(mask)
    if got is not None:
        return got
    low = mask & -mask
    comp = _component(adj, low.bit_length() - 1, mask)
    if comp != mask:
        out = alpha(adj, comp, memo) + alpha(adj, mask & ~comp, memo)
    else:
        pivot, pdeg = -1, -1
        for v in _bits(mask):
            d = (adj[v] & mask).bit_count()
            if d <= 1:
                pivot = v
                break
            if d > pdeg:
                pivot, pdeg = v, d
        take = 1 + alpha(adj, mask & ~(adj[pivot] | 1 << pivot), memo)
        if (adj[pivot] & mask).bit_count() <= 1:
            out = take
        else:
            out = max(take, alpha(adj, mask & ~(1 << pivot), memo))
    memo[mask] = out
    return out


# -- tree decompositions ------------------------------------------------------


def td_problems(n: int, edges, td_edges, bags) -> list[str]:
    """Violations of the tree-decomposition conditions for graph ``(n, edges)``."""
    k = len(bags)
    if k == 0:
        return ["decomposition has no nodes"]
    out: list[str] = []
    tree = [[] for _ in range(k)]
    for a, b in td_edges:
        if not (0 <= a < k and 0 <= b < k) or a == b:
            return [f"bad tree edge ({a},{b})"]
        tree[a].append(b)
        tree[b].append(a)
    if len(td_edges) != k - 1:
        out.append(f"{len(td_edges)} tree edges for {k} nodes")
    reach, stack = {0}, [0]
    while stack:
        for s in tree[stack.pop()]:
            if s not in reach:
                reach.add(s)
                stack.append(s)
    if len(reach) != k:
        out.append("tree is disconnected")
    home: list[set[int]] = [set() for _ in range(n)]
    for t, bag in enumerate(bags):
        for v in bag:
            if not 0 <= v < n:
                return [f"bag {t} holds unknown vertex {v}"]
            home[v].add(t)
    for v in range(n):
        nodes = home[v]
        if not nodes:
            out.append(f"vertex {v} is in no bag")
            continue
        start = min(nodes)
        seen, stack = {start}, [start]
        while stack:
            for s in tree[stack.pop()]:
                if s in nodes and s not in seen:
                    seen.add(s)
                    stack.append(s)
        if seen != nodes:
            out.append(f"bags holding vertex {v} are not connected")
    for u, v in edges:
        if not home[u] & home[v]:
            out.append(f"edge {u}-{v} is in no bag")
    return out


def check_decomposition(n, edges, td_edges, bags, ell, k_star=None):
    """A valid decomposition with bag alpha <= 4*ell (and == k_star if given).

    Returns (problems, recomputed bag alpha or None if the tree is invalid).
    """
    out = td_problems(n, edges, td_edges, bags)
    if out:
        return out, None
    adj, memo = adjacency(n, edges), {}
    worst = max(alpha(adj, sum(1 << v for v in bag), memo) for bag in bags)
    if worst > 4 * ell:
        out.append(f"bag alpha {worst} exceeds 4*ell = {4 * ell}")
    if k_star is not None and k_star != worst:
        out.append(f"reported bag alpha {k_star}, recomputed {worst}")
    return out, worst


# -- witnesses and forbidden patterns ----------------------------------------


def witness_problems(n: int, edges, kind: str, parts, ell: int | None = None) -> list[str]:
    """Whether a path or biclique witness is induced in the graph."""
    adj = adjacency(n, edges)
    verts = [v for part in parts for v in part]
    if any(not 0 <= v < n for v in verts) or len(set(verts)) != len(verts):
        return [f"{kind} witness has repeated or unknown vertices"]
    if kind == "path":
        (seq,) = parts
        for i, j in combinations(range(len(seq)), 2):
            if bool(adj[seq[i]] >> seq[j] & 1) != (j == i + 1):
                return [f"path witness {list(seq)} is not induced"]
        return []
    if kind == "biclique":
        a, b = parts
        if ell is not None and not len(a) == len(b) == ell:
            return [f"biclique witness has sides {len(a)},{len(b)}, want {ell}"]
        if not a or not b:
            return ["biclique witness has an empty side"]
        for side in (a, b):
            if any(adj[u] >> v & 1 for u, v in combinations(side, 2)):
                return ["biclique witness side is not independent"]
        if any(not adj[u] >> v & 1 for u in a for v in b):
            return ["biclique witness sides are not complete to each other"]
        return []
    return [f"unknown witness kind {kind!r}"]


def has_induced_path(n: int, edges, t: int) -> bool:
    """Whether some t vertices induce a path."""
    adj = adjacency(n, edges)

    def grow(last: int, length: int, blocked: int) -> bool:
        if length == t:
            return True
        for v in _bits(adj[last] & ~blocked):
            if grow(v, length + 1, blocked | adj[last] | 1 << v):
                return True
        return False

    return any(grow(s, 1, 1 << s) for s in range(n))


def has_induced_biclique(n: int, edges, a: int) -> bool:
    """Whether some induced K_{a,a} exists (a >= 1)."""
    adj = adjacency(n, edges)
    memo: dict = {}

    def pick(side: int, size: int, common: int, start: int) -> bool:
        if size == a:
            return True
        for v in range(start, n):
            if side & (1 << v | adj[v]):
                continue
            nxt = common & adj[v]
            if alpha(adj, nxt, memo) >= a and pick(side | 1 << v, size + 1, nxt, v + 1):
                return True
        return False

    return pick(0, 0, (1 << n) - 1, 0)


# -- exact tree-independence number -------------------------------------------


def tree_alpha(n: int, edges) -> int:
    """Exact tree-independence number by a subset DP over elimination orders."""
    adj = adjacency(n, edges)
    memo: dict = {}
    best = [0] * (1 << n)
    for s in range(1, 1 << n):
        val = n + 1
        for v in _bits(s):
            prev = s & ~(1 << v)
            if best[prev] >= val:
                continue
            comp = _component(adj, v, prev | 1 << v)
            rim = 0
            for u in _bits(comp):
                rim |= adj[u]
            bag = (rim & ~prev) | 1 << v
            val = min(val, max(best[prev], alpha(adj, bag, memo)))
        best[s] = val
    return best[-1] if n else 0
