"""Self-test of the benchmark: every workload at a tiny size, and the checker.

    python3 bench/selftest.py

Takes about half a minute.  Exits non-zero on any failure.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

def tiny_run(name: str, trace: bool, seconds: float = 0.0) -> dict:
    """One input per batch, so the core is a handful of operations."""
    return run.run_workload(
        name, seed=0, seconds=seconds, trace=trace, batch_size=1, whole_cycles=False
    )


class WorkloadsEmitEveryMetric(unittest.TestCase):
    def test_untraced(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                record = tiny_run(name, trace=False, seconds=1.0)
                self.assertEqual(record["failed"], 0, record["failures"])
                self.assertGreaterEqual(record["attempted"], record["core_ops"])
                want = set(run.UNITS) - {"latency_p90_ms"}
                if name == "generate":
                    want.discard("bag_alpha_mean")
                if record["attempted"] >= run.P90_MIN_OPS:
                    want.add("latency_p90_ms")
                self.assertEqual(set(record["metrics"]), want)
                line = run.result_line(record)
                self.assertEqual(list(line["metrics"]), list(run.END_TO_END))
                self.assertTrue(line["correct"])
                for metric in line["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_runs_repeat(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first = tiny_run(name, trace=True)
                second = tiny_run(name, trace=True)
                plain = tiny_run(name, trace=False)
                self.assertEqual(first["attempted"], first["core_ops"])
                self.assertEqual(list(first["layers"]), tracer.metric_names())
                calls = [
                    {k: v for k, v in r["layers"].items() if k.endswith(".calls")}
                    for r in (first, second)
                ]
                self.assertEqual(calls[0], calls[1])
                self.assertEqual(first["digest"], second["digest"])
                self.assertEqual(first["digest"], plain["digest"])
                line = run.result_line(first)
                self.assertEqual(list(line["metrics"]), tracer.metric_names())

    def test_tracer_restores_library(self):
        lib = run.load_library()
        before = lib.decomposer.alpha_of_subset
        spans = tracer.Tracer()
        spans.install()
        self.assertIsNot(lib.decomposer.alpha_of_subset, before)
        self.assertIs(lib.decomposer.alpha_of_subset, lib.oracles.alpha_of_subset)
        spans.uninstall()
        self.assertIs(lib.decomposer.alpha_of_subset, before)


class CheckerRejectsBadOutputs(unittest.TestCase):
    # path 0-1-2-3 and a valid path decomposition of it
    N, EDGES = 4, ((0, 1), (1, 2), (2, 3))
    TD_EDGES, BAGS = ((0, 1), (1, 2)), ((0, 1), (1, 2), (2, 3))

    def test_accepts_valid(self):
        problems, alpha = check.check_decomposition(
            self.N, self.EDGES, self.TD_EDGES, self.BAGS, ell=2, k_star=1
        )
        self.assertEqual(problems, [])
        self.assertEqual(alpha, 1)

    def test_uncovered_edge(self):
        bags = ((0, 1), (1,), (2, 3))
        self.assertIn("edge 1-2 is in no bag", check.td_problems(self.N, self.EDGES, self.TD_EDGES, bags))

    def test_disconnected_subtree_and_bad_tree(self):
        bags = ((0, 1), (2,), (1, 2, 3))
        self.assertTrue(check.td_problems(self.N, self.EDGES, self.TD_EDGES, bags))
        self.assertTrue(check.td_problems(self.N, self.EDGES, ((0, 1),), self.BAGS))

    def test_wrong_bag_alpha(self):
        problems, _ = check.check_decomposition(
            self.N, self.EDGES, (), ((0, 1, 2, 3),), ell=2, k_star=1
        )
        self.assertIn("reported bag alpha 1, recomputed 2", problems)

    def test_corrupted_library_output(self):
        lib = run.load_library()
        g = lib.gen_p5_free(20, 3, "perturb-filter")
        n, edges = g.n, tuple(g.edges())
        k_star, td, ell = lib.approximate_tia(g)
        good, _ = check.check_decomposition(n, edges, td.edges, td.bags, ell, k_star)
        self.assertEqual(good, [])
        u, v = edges[0]
        bags = tuple(tuple(x for x in bag if x != v) if u in bag else bag for bag in td.bags)
        bad, _ = check.check_decomposition(n, edges, td.edges, bags, ell, k_star)
        self.assertTrue(bad)

    def test_forged_witnesses(self):
        c4 = ((0, 1), (1, 2), (2, 3), (0, 3))
        self.assertEqual(check.witness_problems(4, c4, "biclique", ((0, 2), (1, 3)), ell=2), [])
        self.assertTrue(check.witness_problems(4, c4, "biclique", ((0, 1), (2, 3)), ell=2))
        self.assertTrue(check.witness_problems(4, c4, "biclique", ((0,), (1,)), ell=2))
        self.assertEqual(check.witness_problems(4, self.EDGES, "path", ((0, 1, 2, 3),)), [])
        self.assertTrue(check.witness_problems(4, c4, "path", ((0, 1, 2, 3),)))

    def test_pattern_search_and_oracle(self):
        c5 = tuple((i, (i + 1) % 5) for i in range(5))
        p5 = tuple((i, i + 1) for i in range(4))
        self.assertTrue(check.has_induced_path(5, p5, 5))
        self.assertFalse(check.has_induced_path(5, c5, 5))
        self.assertTrue(check.has_induced_biclique(4, ((0, 1), (1, 2), (2, 3), (0, 3)), 2))
        self.assertFalse(check.has_induced_biclique(5, c5, 2))
        self.assertEqual(check.tree_alpha(5, c5), 2)
        k33 = tuple((a, b) for a in range(3) for b in range(3, 6))
        self.assertEqual(check.tree_alpha(6, k33), 3)
        self.assertEqual(check.tree_alpha(4, self.EDGES), 1)


if __name__ == "__main__":
    unittest.main()
