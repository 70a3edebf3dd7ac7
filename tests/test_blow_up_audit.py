"""The bound-sandwich audit on false-twin blow-ups, where the bounds come apart.

On the corpus generators the sandwich ell* - 1 <= tia <= k* <= 4 ell* is
nearly always tight.  Replacing each vertex of a P5-free graph by an
independent set of false twins keeps it P5-free (two vertices of an
induced P5 never have equal neighborhoods, so a P5 in the blow-up maps to
one in the base graph) and pulls the bounds apart.
"""

import random

from treealpha.graph import Graph
from treealpha.harness import audit_sandwich, gen_p5_free, induced_biclique_number
from treealpha.oracles import find_induced_path

from conftest import cycle


def blow_up(base: Graph, sizes: list[int]) -> Graph:
    """Vertex i becomes sizes[i] independent twins, complete to each neighbor's twins."""
    start = [0]
    for s in sizes:
        start.append(start[-1] + s)
    twins = [range(start[i], start[i + 1]) for i in base.vertices]
    edges = [(a, b) for u, v in base.edges() for a in twins[u] for b in twins[v]]
    return Graph(start[-1], edges)


def _bounds(g: Graph) -> tuple[int, int, int, int]:
    """(biclique number, tia, k*, ell*) of an audited P5-free graph."""
    assert find_induced_path(g, 5) is None
    record = audit_sandwich(g, cap=g.n)
    assert record.outcome == "decomposition"
    return induced_biclique_number(g), record.exact, record.value, record.ell


def test_c5_blow_ups_open_the_lower_side_of_the_sandwich():
    for s in range(1, 5):
        assert _bounds(blow_up(cycle(5), [s] * 5)) == (s, 2 * s, 2 * s, s + 1)


def test_seeded_perturb_filter_blow_ups_audit_with_slack():
    rng = random.Random(0)
    below_k_star = below_tia = 0
    for _ in range(60):
        n0 = rng.randint(5, 8)
        base = gen_p5_free(n0, rng.randrange(1 << 30), "perturb-filter")
        sizes = [rng.randint(1, 3) for _ in range(n0)]
        while sum(sizes) > 20:
            sizes[sizes.index(max(sizes))] -= 1
        bic, tia, k_star, _ = _bounds(blow_up(base, sizes))
        below_k_star += tia < k_star
        below_tia += bic < tia
    assert below_k_star >= 1
    assert below_tia >= 1
