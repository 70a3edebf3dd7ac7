"""The witness searches leave no reference cycles behind.

``_extend_biclique`` and ``find_induced_subdivided_star`` used to run their
depth-first searches as recursive closures.  A recursive closure holds itself
in its own cell, so every call left a cycle that only the cyclic collector
frees.  With the collector off, the generator, the engine and the star search
must leave nothing for it to collect.
"""

import gc

from treealpha.decomposer import approximate_tia
from treealpha.graph import Graph
from treealpha.harness import gen_class_free, gen_p5_free
from treealpha.oracles import find_induced_subdivided_star

CLASS = [("path", 5), ("biclique", 2, 2)]
STAR = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def _garbage_after(run) -> int:
    """The objects only the cyclic collector frees, left by ``run()``."""
    run()  # warm up: first-use caches and lazy imports are not garbage
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def test_generator_and_engine_leave_no_cycles():
    def run():
        for seed in range(5):
            approximate_tia(gen_class_free(16, seed, CLASS))
        for seed in range(3):
            approximate_tia(gen_p5_free(20, seed, "perturb-filter"))

    assert _garbage_after(run) == 0


def test_subdivided_star_search_leaves_no_cycles():
    def run():
        assert find_induced_subdivided_star(STAR, 3) == (
            0, ((1, 2), (3, 4), (5, 6))
        )

    assert _garbage_after(run) == 0
