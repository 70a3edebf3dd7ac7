"""Property checks over false-twin blow-ups of small certified P5-free graphs.

A blow-up replaces each base vertex u by s_u independent twins, complete to
the twins of u's neighbors.  It stays P5-free, the audit's bound sandwich
holds on it with the exact oracle, and every base edge uv leaves an induced
K_{m,m} with m = min(s_u, s_v) among the twins of u and v.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from treealpha.harness import audit_sandwich, gen_p5_free, induced_biclique_number
from treealpha.oracles import find_induced_path

from test_blow_up_audit import blow_up

MAX_N = 16


@st.composite
def blow_ups(draw):
    n0 = draw(st.integers(1, 8))
    method = draw(st.sampled_from(["union-join", "perturb-filter"]))
    base = gen_p5_free(n0, draw(st.integers(0, 2**30)), method)
    sizes = draw(st.lists(st.integers(1, 4), min_size=n0, max_size=n0))
    while sum(sizes) > MAX_N:
        sizes[sizes.index(max(sizes))] -= 1
    return base, sizes


@settings(max_examples=40, deadline=None, derandomize=True)
@given(blow_ups())
def test_blow_ups_stay_p5_free_and_pass_the_audit(case):
    base, sizes = case
    g = blow_up(base, sizes)
    assert g.n == sum(sizes) <= MAX_N
    assert find_induced_path(g, 5) is None
    record = audit_sandwich(g, cap=g.n)
    assert record.outcome == "decomposition"
    assert record.exact is not None
    floor = max((min(sizes[u], sizes[v]) for u, v in base.edges()), default=0)
    assert induced_biclique_number(g) >= floor
