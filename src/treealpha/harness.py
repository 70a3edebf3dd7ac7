"""Corpus generation, the exact tree-independence oracle, and bound audits.

The oracle walks the chordal-completion search space implicitly: every
elimination ordering induces a triangulation whose maximal cliques are the
elimination bags, and a decision search, "is there an ordering whose bags
all have independence number <= k?", run for k = 1, 2, ... over the
eliminated sets that can still meet k, finds the least worst bag
independence number over all orderings.  Generators certify membership in
the requested hereditary class by exact pattern search instead of trusting
their own construction.

A generator walks by random edge flips from a pattern-free graph.  Flipping
the pair uv changes exactly the induced subgraphs that contain both u and v,
so every induced copy of a pattern in the flipped graph that was not in the
graph before contains both u and v.  The walk starts pattern-free and keeps
a flip only if no copy passes through its pair, so it stays pattern-free,
and that local search accepts exactly the flips that a whole-graph search
would.  Every returned graph is still re-certified by the whole-graph search.

Generators build their graphs as adjacency bitmask rows from start to
finish (random cographs, clique unions, the flip walk's rows) and hand
them to ``Graph.from_rows``; no edge list is built and parsed back.
"""

from __future__ import annotations

import csv
import os
import random
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .decomposer import approximate_tia
from .degeneracy import alpha_degeneracy
from .graph import Graph, component, members, neighborhood, pieces
from .oracles import (
    SUBSTAR,
    ForbiddenStructureFound,
    Witness,
    _alpha,
    _memo,
    biclique_through,
    find_induced_complete_bipartite,
    find_induced_path,
    find_induced_subdivided_star,
    path_through,
)
from .treedecomp import td_alpha, validate

ORACLE_CAP_ENV = "TREEALPHA_ORACLE_CAP"
DEFAULT_ORACLE_CAP = 8


def oracle_cap() -> int:
    """The oracle's vertex cap: ``TREEALPHA_ORACLE_CAP`` if set, else the default."""
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ORACLE_CAP_ENV} must be an integer, not {raw!r}") from None


# -- exact tree-independence number -------------------------------------------


def exact_tia(g: Graph, cap: Optional[int] = None) -> int:
    """Exact tree-independence number for small graphs.

    The least, over all elimination orderings, of the largest independence
    number of an elimination bag; bags absorb fill-in through eliminated
    vertices, which sweeps exactly the chordal completions of the graph.
    The value is found as a decision, "is there an order whose bags all
    have alpha <= k?", for k = 1, 2, ... in turn; the first yes is returned.

    Call an eliminated set S feasible when S has an order in which every
    bag has alpha <= k.  Eliminating v after S joins v to every vertex
    outside S + v that v reaches through S, so v's bag is v plus the
    neighborhoods of v and of the components of G[S] that v touches, minus
    S + v.  That bag depends on (S, v) alone, not on the order of S, so
    S + v is feasible exactly when S is feasible and the bag's alpha is at
    most k.  Every nonempty feasible set is therefore a feasible set plus
    its last vertex, and by induction on |S| a depth-first search from the
    empty set that pushes S + v only when that bag qualifies reaches every
    feasible set and no other.  The answer is yes exactly when it reaches
    the full vertex set.  With one ``seen`` set per k it expands each set
    at most once, so at most 2^n sets per k, and k stops at alpha(G) at
    the latest, where every bag qualifies.  The search takes no bound from
    outside, so the audit's k* and alpha-degeneracy stay independent checks
    of it.
    """
    limit = cap if cap is not None else oracle_cap()
    if g.n > limit:
        raise ValueError(f"n={g.n} exceeds the oracle cap {limit}")
    if g.n == 0:
        return 0
    bits = g.adjacency_bits()
    memo = _memo(bits)
    full = (1 << g.n) - 1
    k = 1
    while not _eliminates_within(bits, memo, full, k):
        k += 1
    return k


def _eliminates_within(bits: Sequence[int], memo: dict[int, int], full: int, k: int) -> bool:
    """Whether the vertices of ``full`` have an order whose bags all have alpha <= k."""
    seen = {0}
    stack = [0]
    while stack:
        s = stack.pop()
        if s == full:
            return True
        comps = pieces(component, bits, s)
        rims = [neighborhood(bits, comp) for comp in comps]
        for v in members(full ^ s):
            t = s | 1 << v
            if t in seen:
                continue
            reach = bits[v]
            for comp, rim in zip(comps, rims):
                if reach & comp:
                    reach |= rim
            bag = reach & ~t | 1 << v
            a = memo[bag] if bag in memo else _alpha(bits, bag, memo)
            if a <= k:
                seen.add(t)
                stack.append(t)
    return False


def is_chordal(g: Graph) -> bool:
    """Whether removing simplicial vertices, one at a time, empties ``g``.

    A vertex is simplicial when its remaining neighbors are pairwise adjacent.
    Every chordal graph has one, and removing it leaves a chordal graph
    (Dirac 1961); the removals, in order, are a perfect elimination order.
    """
    bits, left = g.adjacency_bits(), (1 << g.n) - 1
    while left:
        before = left
        for v in members(left):
            nb = bits[v] & left
            if all(nb & ~bits[u] == 1 << u for u in members(nb)):
                left ^= 1 << v
        if left == before:
            return False
    return True


def induced_biclique_number(g: Graph) -> int:
    """Largest ell with an induced balanced biclique K_{ell,ell}."""
    ell = 0
    while find_induced_complete_bipartite(g, ell + 1, ell + 1) is not None:
        ell += 1
    return ell


# -- forbidden-pattern specifications ------------------------------------------


# each pattern name: its number of size fields, and the pattern they build
_PATTERNS = {
    "path": (1, lambda t: ("path", t)),
    "p": (1, lambda t: ("path", t)),
    "p5": (0, lambda: ("path", 5)),
    "biclique": (2, lambda a, b: ("biclique", a, b)),
    "kll": (1, lambda k: ("biclique", k, k)),
    "k2l": (1, lambda k: ("biclique", 2, k)),
    "substar": (1, lambda d: ("substar", d)),
}


def parse_pattern(text: str) -> tuple:
    """Parse ``path:T``, ``biclique:A:B``, ``kll:L``, ``k2l:L``, ``substar:D``."""
    kind, *args = text.strip().lower().split(":")
    if kind not in _PATTERNS:
        raise ValueError(f"unknown pattern {text!r}")
    fields, build = _PATTERNS[kind]
    if len(args) < fields:
        raise ValueError(f"pattern {text!r} is missing a size")
    if len(args) > fields:
        raise ValueError(f"pattern {text!r} has too many fields")
    try:
        return build(*map(int, args))
    except ValueError:
        raise ValueError(f"pattern {text!r} has a non-integer size") from None


def find_pattern(g: Graph, pattern: tuple) -> Optional[Witness]:
    """The first induced copy of a parsed pattern in ``g``, or None."""
    kind = pattern[0]
    if kind == "path":
        return find_induced_path(g, pattern[1])
    if kind == "biclique":
        return find_induced_complete_bipartite(g, pattern[1], pattern[2])
    if kind == "substar":
        got = find_induced_subdivided_star(g, pattern[1])
        return None if got is None else Witness(SUBSTAR, ((got[0],),) + got[1])
    raise ValueError(f"unknown pattern {pattern!r}")


def pattern_absent(g: Graph, pattern: tuple) -> bool:
    return find_pattern(g, pattern) is None


# -- generators ----------------------------------------------------------------


def _random_cograph_rows(n: int, rng: random.Random) -> list[int]:
    """Adjacency rows of a random union/join composition tree over n vertices.

    The first ``a`` vertices form one side and the rest the other; a join
    ORs each side's mask into every row of the other.
    """
    if n == 1:
        return [0]
    a = rng.randint(1, n - 1)
    left = _random_cograph_rows(a, rng)
    right = [row << a for row in _random_cograph_rows(n - a, rng)]
    if rng.random() < 0.5:
        low = (1 << a) - 1
        high = (1 << n) - 1 ^ low
        left = [row | high for row in left]
        right = [row | low for row in right]
    return left + right


def _random_cograph_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """The edges of ``_random_cograph_rows(n, rng)``, each (u, v) with u < v."""
    return _graph_of(_random_cograph_rows(n, rng)).edges()


def _clique_union_rows(n: int, rng: random.Random) -> list[int]:
    """Adjacency rows of disjoint cliques of 1 to 4 vertices, in vertex order."""
    rows: list[int] = []
    start = 0
    while start < n:
        size = min(n - start, rng.randint(1, 4))
        block = (1 << size) - 1 << start
        rows += [block ^ 1 << v for v in range(start, start + size)]
        start += size
    return rows


def _graph_of(bits: Sequence[int]) -> Graph:
    return Graph.from_rows(bits)


def _found_through(bits: Sequence[int], pattern: tuple, u: int, v: int) -> bool:
    """Whether the graph of ``bits`` has a copy of ``pattern`` through u and v.

    Substars have no such search; for them the whole graph is searched.
    """
    kind = pattern[0]
    if kind == "path":
        return path_through(bits, pattern[1], u, v) is not None
    if kind == "biclique":
        return biclique_through(bits, pattern[1], pattern[2], u, v) is not None
    return find_pattern(_graph_of(bits), pattern) is not None


def _flip_walk(g: Graph, rng: random.Random, flips: int, patterns: Sequence[tuple]) -> Graph:
    """Random edge flips on a pattern-free ``g``, keeping those that stay so.

    Each step draws u and v (u == v is skipped) and keeps the flip of uv
    unless a pattern has a copy through u and v; by the invariant in the
    module docstring, that is the same as keeping pattern-free results.
    """
    n = g.n
    bits = list(g.adjacency_bits())
    for _ in range(flips):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        bits[u] ^= 1 << v
        bits[v] ^= 1 << u
        for p in patterns:
            if _found_through(bits, p, u, v):
                bits[u] ^= 1 << v
                bits[v] ^= 1 << u
                break
    return _graph_of(bits)


def gen_p5_free(n: int, seed: int, method: str = "union-join") -> Graph:
    """A certified P5-free graph, deterministic per (n, seed, method).

    "union-join" returns a random cograph, which has no induced P4.
    "perturb-filter" then flips random edges of that cograph, keeping a flip
    only if no induced P5 passes through both flipped vertices: since the
    walk starts P5-free, that keeps exactly the flips whose result is
    P5-free.  Either way the result is re-certified by a whole-graph search
    before it is returned.
    """
    if method not in ("union-join", "perturb-filter"):
        raise ValueError(f"unknown method {method!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(f"p5free:{method}:{n}:{seed}")
    g = _graph_of(_random_cograph_rows(n, rng))
    if method == "perturb-filter":
        g = _flip_walk(g, rng, 3 * n, [("path", 5)])
    w = find_induced_path(g, 5)
    if w is not None:
        raise RuntimeError("generator produced a graph with an induced P5")
    return g


def gen_class_free(
    n: int,
    seed: int,
    forbidden: Sequence[tuple],
    flip_budget: Optional[int] = None,
    base_attempts: int = 64,
) -> Graph:
    """Rejection-and-perturbation sampler for a finite forbidden-pattern class.

    Starts from a random seed graph (edgeless, clique unions, or a cograph)
    that a whole-graph search certifies free of every forbidden pattern,
    then applies random edge flips.  A flip of uv is kept only if no
    forbidden pattern has an induced copy through both u and v: every copy
    a flip can create contains both, so the graph stays pattern-free flip
    by flip (substars, which have no such search, are searched in the
    whole graph).  Every returned graph is re-certified by the whole-graph
    search.  Raises when no admissible seed graph is found within the
    budget.
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
            cand = _graph_of(_clique_union_rows(n, rng))
        else:
            cand = _graph_of(_random_cograph_rows(n, rng))
        if all(pattern_absent(cand, p) for p in forbidden):
            base = cand
            break
    if base is None:
        raise RuntimeError("generation budget exhausted: no admissible seed graph")
    budget = flip_budget if flip_budget is not None else 2 * n
    g = _flip_walk(base, rng, budget, forbidden)
    for p in forbidden:
        if not pattern_absent(g, p):
            raise RuntimeError(f"generator produced a graph containing {p}")
    return g


# -- trial records and the sandwich audit --------------------------------------

CSV_HEADER = (
    "seed",
    "generator",
    "n",
    "ell",
    "outcome",
    "value",
    "exact_tia",
    "iterations",
    "wall_time",
)


@dataclass(frozen=True)
class TrialRecord:
    """One audited run: outcome plus every bound that was checked."""

    seed: int
    generator: str
    n: int
    ell: int
    outcome: str  # decomposition | biclique | rejected-p5
    value: int  # bag independence number, or witness size
    exact: Optional[int]
    iterations: int
    wall_time: float

    def to_csv_row(self) -> list:
        return [
            self.seed,
            self.generator,
            self.n,
            self.ell,
            self.outcome,
            self.value,
            "" if self.exact is None else self.exact,
            self.iterations,
            f"{self.wall_time:.4f}",
        ]


def write_report(records: Iterable[TrialRecord], path: str) -> None:
    ordered = sorted(records, key=lambda r: (r.seed, r.generator, r.n))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in ordered:
            writer.writerow(rec.to_csv_row())


def summarize(records: Sequence[TrialRecord]) -> list[tuple[int, int, int]]:
    """Per-ell summary rows: (ell, worst observed bag alpha, 4*ell)."""
    worst: dict[int, int] = {}
    for rec in records:
        if rec.outcome == "decomposition":
            worst[rec.ell] = max(worst.get(rec.ell, 0), rec.value)
    return [(ell, worst[ell], 4 * ell) for ell in sorted(worst)]


class AuditFailure(AssertionError):
    """A proven inequality failed on a concrete instance."""


def audit_sandwich(
    g: Graph,
    seed: int = -1,
    generator: str = "corpus",
    cap: Optional[int] = None,
) -> TrialRecord:
    """Run every bound on one graph and fail hard on any violated inequality.

    Checks the approximation sandwich ell*-1 <= tia <= k* <= 4*ell*, plus
    alpha-degeneracy <= tia and induced-biclique-number <= tia whenever the
    exact oracle is feasible.
    """
    t0 = time.perf_counter()
    log: list = []
    try:
        k_star, td, ell_star = approximate_tia(g, log=log)
    except ForbiddenStructureFound:
        return TrialRecord(
            seed, generator, g.n, 0, "rejected-p5", 5, None, 0,
            time.perf_counter() - t0,
        )
    iterations = sum(entry["iterations"] for entry in log)
    if validate(g, td):
        raise AuditFailure("approximate decomposition is invalid")
    if k_star != td_alpha(g, td) or k_star > 4 * ell_star:
        raise AuditFailure("approximate decomposition mislabeled its bag bound")
    limit = cap if cap is not None else oracle_cap()
    exact: Optional[int] = None
    if g.n <= limit:
        exact = exact_tia(g, cap=limit)
        if not (ell_star - 1 <= exact <= k_star <= 4 * ell_star):
            raise AuditFailure(
                f"sandwich failed: ell*={ell_star}, tia={exact}, k*={k_star}"
            )
        if g.n >= 1:
            adeg = alpha_degeneracy(g)
            if adeg > exact:
                raise AuditFailure(
                    f"alpha-degeneracy {adeg} exceeds tree-independence {exact}"
                )
        bic = induced_biclique_number(g)
        if bic > exact:
            raise AuditFailure(
                f"biclique number {bic} exceeds tree-independence {exact}"
            )
    return TrialRecord(
        seed,
        generator,
        g.n,
        ell_star,
        "decomposition",
        k_star,
        exact,
        iterations,
        time.perf_counter() - t0,
    )
