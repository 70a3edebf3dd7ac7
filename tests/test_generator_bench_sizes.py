"""The generators at the benchmark's sizes against the whole-graph loops.

``test_generators.py`` compares the flip walks with the whole-graph
reference loops up to n = 26.  The ``generate`` workload runs larger
shapes (n <= 40 at ell = 2, n <= 20 at ell = 3), and the engine's
benchmarks take perturb-filter graphs up to n = 120, so these sizes are
pinned here, byte for byte.
"""

from __future__ import annotations

import pytest

from treealpha.graph import serialize_graph
from treealpha.harness import gen_class_free, gen_p5_free

from test_generators import reference_gen_class_free, reference_gen_p5_free

# the generate workload's group shapes, (n, ell), from n = 22 up
SHAPES = ((22, 2), (31, 2), (40, 2), (16, 3), (18, 3), (20, 3))


@pytest.mark.parametrize("n,ell", SHAPES)
def test_gen_class_free_matches_the_whole_graph_loop_at_bench_shapes(n, ell):
    forbidden = [("path", 5), ("biclique", ell, ell)]
    for seed in range(5):
        want = serialize_graph(reference_gen_class_free(n, seed, forbidden))
        assert serialize_graph(gen_class_free(n, seed, forbidden)) == want


# the reference re-certifies every candidate with the whole-graph DFS, which
# is some 20 times slower on (120, 0) than on (120, 1); seeds 0..2 all match
@pytest.mark.parametrize("n,seed", [(40, 0), (40, 1), (40, 2), (80, 1), (120, 1)])
def test_gen_p5_free_perturb_filter_matches_the_whole_graph_loop(n, seed):
    want = serialize_graph(reference_gen_p5_free(n, seed, "perturb-filter"))
    assert serialize_graph(gen_p5_free(n, seed, "perturb-filter")) == want
