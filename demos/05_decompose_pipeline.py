"""The full engine: biclique or a decomposition with bag independence <= 4*ell.

A forward pass deletes root vertices with small closed neighborhoods one at
a time; a backward pass adds them back in reverse order, restructuring until
all of each root's remaining neighbors share a bag and hanging N[r] off that
bag as a leaf.  Watching the
5-cycle go through one restructuring round shows each move explicitly.
"""

from treealpha import Graph, TreeDecomposition, decompose, td_alpha, validate, verify_witness
from treealpha.decomposer import build_pair_context, saturate_root, transform_plain_pair
from treealpha.harness import gen_class_free, gen_p5_free

c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])

# by hand: root 0, a path decomposition of the remaining P4, pair (1, 4)
td = TreeDecomposition(((0, 1), (1, 2)), ((1, 2), (2, 3), (3, 4)))
ctx = build_pair_context(c5, 0, td, 1, 4, ell=2)
print("pair (1,4): M =", sorted(ctx.m), " private sides:",
      sorted(ctx.w_x), sorted(ctx.w_y), " bad:", ctx.bad)
merged = transform_plain_pair(ctx)
print("after the surgery:", merged.bags, "-> 1 and 4 now share a bag")

# the loop wrapper does the same and stops when nothing is left to merge
saturated = saturate_root(c5, 0, td, ell=2)
print("saturated:", saturated.bags)

# end to end, with the per-level log
log = []
result = decompose(c5, ell=2, log=log)
print("decompose(C5):", result.bags, " value:", td_alpha(c5, result))
print("levels:", [(e["root"], e["iterations"]) for e in log])

# a certified biclique-free graph stays under the 4*ell guarantee
g = gen_class_free(30, seed=7, forbidden=[("path", 5), ("biclique", 2, 2)])
result = decompose(g, ell=2)
print(f"n=30 biclique-free: {result.node_count} bags, "
      f"value {td_alpha(g, result)} <= 8, valid: {validate(g, result) == []}")

# with bicliques allowed, the other branch of the dichotomy can fire
g = gen_p5_free(24, seed=11, method="union-join")
result = decompose(g, ell=2)
if isinstance(result, TreeDecomposition):
    print("P5-free cograph: decomposition with value", td_alpha(g, result))
else:
    print("P5-free cograph: found K_{2,2} =", result.parts,
          "verifies:", verify_witness(g, result))
