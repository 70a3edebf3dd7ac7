"""Dominated balanced separators and the separator-driven neighborhood bound.

A d-dominated balanced separator is a set X of at most d vertices whose
closed neighborhood, once removed, leaves components of at most half the
graph.  For graphs with no long induced path such a set is grown greedily
along an induced path; the growth either balances within t-1 steps or hands
back an induced t-vertex path as a certificate of failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import Callable, Optional

from .graph import (
    Graph,
    VertexSet,
    closed_neighborhood,
    closed_neighborhood_of_set,
    component,
    components,
    induced_subgraph,
    is_connected,
    mask_of,
    members,
    neighborhood,
    pieces,
    vertex_set,
)
from .oracles import (
    ForbiddenStructureFound,
    alpha_of_subset,
    find_induced_complete_bipartite,
    path_witness,
    verify_witness,
)


class DisconnectedGraphError(ValueError):
    """The separator construction needs a connected graph; recurse per component."""


@dataclass(frozen=True)
class SeparatorCertificate:
    """A dominating set plus the components its removal leaves behind."""

    x: VertexSet
    dominated: VertexSet
    component_list: tuple[VertexSet, ...]
    bound: int

    def violations(self, g: Graph) -> list[str]:
        out: list[str] = []
        if closed_neighborhood_of_set(g, self.x) != self.dominated:
            out.append("dominated set is not the closed neighborhood of X")
        rest = sorted(set(range(g.n)) - set(self.dominated))
        if list(components(g, rest)) != list(self.component_list):
            out.append("component list does not match graph minus N[X]")
        for comp in self.component_list:
            if 2 * len(comp) > g.n:
                out.append(f"component of size {len(comp)} exceeds half of {g.n}")
        if self.bound != g.n // 2:
            out.append("stored bound is not floor(n/2)")
        return out

    def to_record(self) -> dict:
        return {
            "x": list(self.x),
            "dominated": list(self.dominated),
            "components": [list(c) for c in self.component_list],
            "bound": self.bound,
        }


def gyarfas_dominated_separator(g: Graph, t: int) -> SeparatorCertificate:
    """Balanced separator dominated by at most t-1 vertices of an induced path.

    Grows an induced path toward the oversized component of the graph minus
    the path's closed neighborhood.  For a graph with no induced t-vertex
    path the growth balances after at most t-1 vertices; otherwise the grown
    path reaches t vertices and is raised as a witness.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    if g.n == 0:
        raise ValueError("graph must be non-null")
    if not is_connected(g):
        raise DisconnectedGraphError("separator construction needs a connected graph")
    bits = g.adjacency_bits()
    full = prev_region = (1 << g.n) - 1
    path, dominated = [0], bits[0] | 1
    while True:
        comps = pieces(component, bits, full & ~dominated)
        region = next((c for c in comps if 2 * c.bit_count() > g.n), 0)
        if not region:
            return SeparatorCertificate(
                x=vertex_set(path),
                dominated=members(dominated),
                component_list=tuple(members(c) for c in comps),
                bound=g.n // 2,
            )
        cands = neighborhood(bits, region) & ~region & bits[path[-1]] & prev_region
        if not cands:
            raise RuntimeError("path growth stalled; connectivity invariant broken")
        v = (cands & -cands).bit_length() - 1
        path.append(v)
        dominated |= bits[v] | 1 << v
        prev_region = region
        if len(path) >= t:
            w = path_witness(path)
            if not verify_witness(g, w):
                raise RuntimeError("grown path failed verification")
            raise ForbiddenStructureFound(w, f"graph contains an induced {t}-vertex path")


SeparatorProvider = Callable[[Graph], SeparatorCertificate]


def get_separator_provider(name: str) -> SeparatorProvider:
    """Resolve a provider by registry name, e.g. ``pt-free:5`` (t >= 2)."""
    if name.startswith("pt-free:"):
        t = name.split(":", 1)[1]
        if not t.isdecimal() or int(t) < 2:
            raise ValueError(f"separator provider {name!r} needs an integer t >= 2")
        return lambda g: gyarfas_dominated_separator(g, int(t))
    raise KeyError(f"unknown separator provider {name!r}")


def _separator_within(g: Graph, region: int, provider: SeparatorProvider) -> int:
    """A dominating set balancing ``g`` restricted to the mask ``region``, as a mask.

    If no component exceeds half the region a single vertex works; otherwise
    the provider runs inside the unique oversized component (the whole
    region when it is connected) and its separator balances the whole region.
    """
    comps = pieces(component, g.adjacency_bits(), region)
    big = next((c for c in comps if 2 * c.bit_count() > region.bit_count()), 0)
    if not big:
        return region & -region
    sub, mapping = induced_subgraph(g, members(big))
    return mask_of(g, (mapping[v] for v in provider(sub).x))


def dbs_low_alpha_vertex(
    g: Graph,
    ell: int,
    d: int,
    provider: SeparatorProvider,
    stats: Optional[dict] = None,
) -> tuple[int, int]:
    """A vertex whose closed neighborhood independence is at most d*ell*log2(n).

    Descent loop over a region, first the whole graph: peel the region's
    universal vertices into a clique; if at most one vertex is left, the
    region was complete and its least vertex is the answer.  Otherwise a
    high-degree vertex, or else the separator provider, supplies a set whose
    closed neighborhood is removed, and the largest component left becomes
    the region.  The final bound is re-verified; a violation signals a
    class-membership breach and carries an unbalanced-biclique diagnostic
    when one exists.
    """
    if ell < 2 or d < 2:
        raise ValueError("ell and d must be >= 2")
    if g.n < 2:
        raise ValueError("graph must have at least 2 vertices")

    bits = g.adjacency_bits()
    depth = peels = 0
    region = (1 << g.n) - 1
    while True:
        # removing a universal vertex leaves every other vertex's status as
        # it was, so one pass peels them all
        universal = 0
        for v in members(region):
            if not region & ~bits[v] & ~(1 << v):
                universal |= 1 << v
        live = region & ~universal
        peels += universal != 0
        if not live & (live - 1):
            v = (region & -region).bit_length() - 1
            break
        best = max(members(live), key=lambda v: ((bits[v] & live).bit_count(), -v))
        depth += 1
        if d * ((bits[best] & live).bit_count() + 1) >= live.bit_count():
            x_mask = 1 << best
        else:
            x_mask = _separator_within(g, live, provider)
        rest = live & ~x_mask & ~neighborhood(bits, x_mask)
        if not rest:
            raise RuntimeError("separator removed everything; degree case expected")
        region = max(pieces(component, bits, rest), key=int.bit_count)

    alpha = alpha_of_subset(g, closed_neighborhood(g, v))
    limit = d * ell * log2(g.n)
    if alpha > limit:
        diag = find_induced_complete_bipartite(g, 2, ell)
        if diag is not None:
            if not verify_witness(g, diag):
                raise RuntimeError("biclique diagnostic failed verification")
            raise ForbiddenStructureFound(
                diag,
                f"neighborhood bound {limit:.2f} violated (alpha={alpha}); "
                "the graph is not K_{2,ell}-free",
            )
        raise RuntimeError(
            f"neighborhood bound {limit:.2f} violated (alpha={alpha}) "
            "without a biclique; provider class promise broken"
        )
    if stats is not None:
        stats["depth"] = depth
        stats["peel_phases"] = peels
    return v, alpha
