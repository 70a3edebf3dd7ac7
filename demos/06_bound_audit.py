"""Auditing every bound on a generated corpus.

For small graphs the exact tree-independence number is computable by
searching elimination orderings, which pins the approximation sandwich
ell* - 1 <= tree-alpha <= k* <= 4 * ell* and the two lower bounds
(alpha-degeneracy and the induced biclique number).  The audit covers
P5-free graphs with n = 4..8 at the default oracle cap and n = 9..12 with
the cap raised to 12, writes one CSV row per graph, and prints each row's
size and exact value and a per-ell summary of the worst observed bag value.
"""

import tempfile
from pathlib import Path

from treealpha import Graph, approximate_tia, exact_tia
from treealpha.harness import (
    audit_sandwich,
    gen_p5_free,
    summarize,
    write_report,
)

c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
k33 = Graph(6, [(a, 3 + b) for a in range(3) for b in range(3)])
print("exact tree-independence:  C5:", exact_tia(c5), " K33:", exact_tia(k33))

k_star, _td, ell_star = approximate_tia(c5)
print(f"C5 approximation: ell* = {ell_star}, k* = {k_star}, "
      f"sandwich {ell_star - 1} <= 2 <= {k_star} <= {4 * ell_star}")

records = [audit_sandwich(c5, seed=0, generator="named")]
for seed in range(12):
    g = gen_p5_free(4 + seed % 5, seed, "perturb-filter")
    records.append(audit_sandwich(g, seed=seed, generator="p5-free"))
# past the default oracle cap of 8 vertices: the cap is raised per call
for seed in range(12, 20):
    g = gen_p5_free(9 + seed % 4, seed, "perturb-filter")
    records.append(audit_sandwich(g, seed=seed, generator="p5-free", cap=12))

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "report.csv"
    write_report(records, str(out))
    print("report written to", out)
    print(out.read_text().splitlines()[0])
print("exact tree-independence by n:",
      sorted((rec.n, rec.exact) for rec in records if rec.exact is not None))
for ell, worst, bound in summarize(records):
    print(f"  ell = {ell}: worst bag value {worst}, guarantee {bound}")
