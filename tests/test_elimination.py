"""The two-pass elimination of ``decompose`` against the recursion it replaced.

``_decompose`` and ``_lift_witness`` below are the per-level recursion the
engine used before it worked over the host graph's ids: each level rebuilds
the graph minus its root with ``induced_subgraph``, relabels the returned
decomposition, lifts witnesses and remaps the log.  They stay here verbatim
as the reference the iterative passes must match exactly.
"""

import inspect
import random
import sys
from typing import Optional, Union

from treealpha.decomposer import DecompositionError, decompose, saturate_root
from treealpha.degeneracy import low_alpha_vertex
from treealpha.graph import Graph, VertexSet, closed_neighborhood, induced_subgraph
from treealpha.harness import gen_p5_free
from treealpha.oracles import (
    BICLIQUE,
    ForbiddenStructureFound,
    Witness,
    verify_witness,
)
from treealpha.treedecomp import (
    TreeDecomposition,
    find_bag_containing_set,
    single_bag_decomposition,
    validate,
)

from conftest import random_graph


# -- reference: the recursion, verbatim -------------------------------------------


def _lift_witness(g: Graph, w: Witness, mapping: VertexSet) -> Witness:
    lifted = Witness(
        w.kind, tuple(tuple(mapping[v] for v in part) for part in w.parts)
    )
    if not verify_witness(g, lifted):
        raise DecompositionError("witness did not survive id lifting")
    return lifted


def _decompose(
    g: Graph, ell: int, log: Optional[list]
) -> Union[Witness, TreeDecomposition]:
    if g.n == 0:
        return single_bag_decomposition(())
    if g.n == 1:
        return single_bag_decomposition((0,))
    report = low_alpha_vertex(g, ell, 2)
    if report.witness is not None:
        if report.witness.kind == BICLIQUE:
            return report.witness
        raise ForbiddenStructureFound(
            report.witness, "input contains an induced P5"
        )
    r = report.vertex
    sub, mapping = induced_subgraph(g, [v for v in range(g.n) if v != r])
    mark = len(log) if log is not None else 0
    try:
        inner = _decompose(sub, ell, log)
    except ForbiddenStructureFound as exc:
        lifted = _lift_witness(g, exc.witness, mapping)
        if lifted.kind == BICLIQUE:
            return lifted
        raise ForbiddenStructureFound(lifted, str(exc)) from None
    finally:
        if log is not None:
            for entry in log[mark:]:
                entry["root"] = mapping[entry["root"]]
                entry["pairs"] = [
                    (mapping[x], mapping[y], bad, mode)
                    for x, y, bad, mode in entry["pairs"]
                ]
    if isinstance(inner, Witness):
        return _lift_witness(g, inner, mapping)
    td = inner.relabel_vertices(mapping)
    try:
        td = saturate_root(g, r, td, ell, log)
    except ForbiddenStructureFound as exc:
        if exc.witness.kind == BICLIQUE:
            return exc.witness
        raise
    nr = g.neighbors(r)
    t = find_bag_containing_set(td, nr)
    if t is None:
        raise DecompositionError(
            "no bag holds all neighbors of the root after saturation"
        )
    bags = td.bags + (closed_neighborhood(g, r),)
    edges = td.edges + ((t, len(td.bags)),)
    return TreeDecomposition(edges, bags)


# -- differential test --------------------------------------------------------------


def _outcome(run):
    """(result or raised exception, log) of one engine run, comparable by ==."""
    log: list = []
    try:
        got = run(log)
    except ForbiddenStructureFound as exc:
        return ("raised", type(exc), str(exc), exc.witness), log
    if isinstance(got, TreeDecomposition):
        return ("td", got.edges, got.bags), log
    return ("witness", got), log


def _cases():
    for n in (5, 9, 14, 20, 27, 34):
        for seed in range(3):
            for method in ("union-join", "perturb-filter"):
                yield gen_p5_free(n, seed, method)
    rng = random.Random(2024)
    for _ in range(70):
        yield random_graph(rng.randint(5, 13), rng.choice([0.25, 0.4, 0.6]), rng)


def test_two_passes_match_the_recursion():
    kinds = set()
    for g in _cases():
        for ell in (2, 3):
            want = _outcome(lambda log: _decompose(g, ell, log))
            got = _outcome(lambda log: decompose(g, ell, check_p5=False, log=log))
            assert got == want, (g.edges(), ell)
            kinds.add(want[0][0])
    # every kind of outcome was compared, P5 rejections included
    assert kinds == {"td", "witness", "raised"}


# -- depth -------------------------------------------------------------------------


def test_decompose_stack_depth_does_not_grow_with_n():
    triangles = Graph(
        300, [(3 * i + a, 3 * i + b) for i in range(100) for a, b in ((0, 1), (0, 2), (1, 2))]
    )
    graphs = [triangles, gen_p5_free(60, 1), gen_p5_free(60, 2, "perturb-filter")]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        results = [decompose(g, 2) for g in graphs]
    finally:
        sys.setrecursionlimit(limit)
    assert isinstance(results[0], TreeDecomposition)
    for g, got in zip(graphs, results):
        if isinstance(got, TreeDecomposition):
            assert validate(g, got) == []
        else:
            assert verify_witness(g, got)
