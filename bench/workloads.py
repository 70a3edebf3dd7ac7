"""The four workloads: how each builds its inputs, runs one operation, and
checks and serializes one output.

Inputs are plain ``(n, edges)`` data built in seeded batches, so the
library only ever receives generated graphs and the checks in
:mod:`check` never touch library objects.  Batch ``b`` of a run with seed
``s`` depends only on ``(workload, s, b)``; a run never processes the same
input twice.  Sizes follow a fixed schedule over the operation index, so
runs with different seeds carry the same mix of work; the seed picks the
graphs.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
from dataclasses import dataclass
from typing import Callable

import check

P5 = ("path", 5)


def _rng(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"bench:{workload}:{seed}:{batch}")


def _plain(g) -> tuple[int, tuple]:
    return g.n, tuple(g.edges())


def _td_output(td) -> dict:
    return {"edges": tuple(td.edges), "bags": tuple(td.bags)}


@dataclass(frozen=True)
class Workload:
    name: str
    batch_size: int
    core_batches: int
    cycle: int  # the input schedule repeats every ``cycle`` operations
    build: Callable  # (lib, seed, batch index, batch size) -> list of items
    run: Callable  # (lib, item) -> library result   [timed]
    output: Callable  # (lib, item, result) -> (plain output, digest text)
    check: Callable  # (item, plain output) -> (problems, bag alpha or None)
    # A grouped operation runs ``run`` once per part and hands ``output``
    # the list of results; the speed probe runs between parts.
    parts: Callable | None = None  # item -> list of parts


# -- corpus: approximate_tia on small P5-free graphs ---------------------------


def _corpus_build(lib, seed, index, size):
    rng = _rng("corpus", seed, index)
    items = []
    for i in range(index * size, (index + 1) * size):
        method = ("perturb-filter", "union-join")[i % 2]
        n = 10 + (13 * i) % 31
        g = lib.gen_p5_free(n, rng.randrange(1 << 30), method)
        items.append({"kind": method, "graph": _plain(g)})
    return items


def _tia_run(lib, item):
    n, edges = item["graph"]
    return lib.approximate_tia(lib.Graph(n, edges))


def _tia_output(lib, item, result):
    k_star, td, ell_star = result
    out = {"k": k_star, "ell": ell_star, **_td_output(td)}
    return out, f"k={k_star} ell={ell_star}\n{lib.serialize_td(td)}"


def _tia_check(item, out):
    n, edges = item["graph"]
    problems, _ = check.check_decomposition(
        n, edges, out["edges"], out["bags"], out["ell"], k_star=out["k"]
    )
    # ell* > 2 means the engine met an induced K_{ell*-1,ell*-1} on the way.
    if out["ell"] > 2 and not check.has_induced_biclique(n, edges, out["ell"] - 1):
        problems.append(f"no induced K_{out['ell'] - 1},{out['ell'] - 1} behind ell*")
    return problems, out["k"]


CORPUS = Workload(
    name="corpus",
    # A batch is one perturb-filter and one union-join graph.  The first
    # takes 10 to 800 ms to generate and the second about 1 ms, so set-up
    # time per batch follows the schedule's size, with one draw of noise.
    batch_size=2,
    core_batches=50,
    cycle=62,  # 31 sizes x 2 methods
    build=_corpus_build,
    run=_tia_run,
    output=_tia_output,
    check=_tia_check,
)


# -- scale: a few mid-size graphs ---------------------------------------------


def _triangles(n: int, rng: random.Random) -> tuple[int, tuple]:
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [
        (perm[3 * i + a], perm[3 * i + b])
        for i in range(n // 3)
        for a, b in ((0, 1), (1, 2), (0, 2))
    ]
    return n, tuple(sorted((min(e), max(e)) for e in edges))


def _pieces(lib, n: int, rng: random.Random) -> tuple[int, tuple]:
    """Disjoint union of certified {P5, K22}-free graphs on 4..8 vertices."""
    edges: list[tuple[int, int]] = []
    sizes = itertools.cycle(range(4, 9))
    start = 0
    while start < n:
        size = min(n - start, next(sizes))
        piece = lib.gen_class_free(size, rng.randrange(1 << 30), [P5, ("biclique", 2, 2)])
        edges += [(u + start, v + start) for u, v in piece.edges()]
        start += size
    return n, tuple(edges)


# (family, n, entry point); decompose runs at ell = 2
SCALE_SCHEDULE = (
    ("triangles", 90, "decompose"),
    ("pieces", 50, "decompose"),
    ("triangles", 105, "decompose"),
    ("union-join", 45, "approximate_tia"),
    ("triangles", 90, "decompose"),
    ("union-join", 45, "approximate_tia"),
    ("triangles", 120, "decompose"),
)


def _scale_build(lib, seed, index, size):
    rng = _rng("scale", seed, index)
    items = []
    for i in range(index * size, (index + 1) * size):
        family, n, call = SCALE_SCHEDULE[i % len(SCALE_SCHEDULE)]
        if family == "triangles":
            graph = _triangles(n, rng)
        elif family == "pieces":
            graph = _pieces(lib, n, rng)
        else:
            graph = _plain(lib.gen_p5_free(n, rng.randrange(1 << 30), family))
        items.append({"kind": family, "graph": graph, "call": call, "ell": 2})
    return items


def _scale_run(lib, item):
    if item["call"] == "approximate_tia":
        return _tia_run(lib, item)
    n, edges = item["graph"]
    return lib.decompose(lib.Graph(n, edges), item["ell"])


def _scale_output(lib, item, result):
    if item["call"] == "approximate_tia":
        return _tia_output(lib, item, result)
    if isinstance(result, lib.Witness):
        out = {"witness": (result.kind, result.parts)}
        return out, json.dumps(result.to_record(), sort_keys=True)
    return _td_output(result), lib.serialize_td(result)


def _scale_check(item, out):
    if item["call"] == "approximate_tia":
        return _tia_check(item, out)
    n, edges = item["graph"]
    if "witness" in out:
        kind, parts = out["witness"]
        if kind != "biclique":
            return [f"decompose returned a {kind} witness"], None
        return check.witness_problems(n, edges, kind, parts, ell=item["ell"]), None
    return check.check_decomposition(n, edges, out["edges"], out["bags"], item["ell"])


SCALE = Workload(
    name="scale",
    batch_size=len(SCALE_SCHEDULE),
    core_batches=4,
    cycle=len(SCALE_SCHEDULE),
    build=_scale_build,
    run=_scale_run,
    output=_scale_output,
    check=_scale_check,
)


# -- oracle: the sandwich audit with the exact oracle -------------------------


# One operation audits a group of perturb-filter graphs.  At a fixed size
# the audit time of single graphs is spread flat over a 3-4x range, so
# their median would move with the seed; the sum over a group is narrow.
# An audit at n = 11 takes 3-4x as long as at n = 10 and would set the
# group's time, so the group stops at n = 10.
ORACLE_GROUP = (8, 9, 10, 10)


def _oracle_build(lib, seed, index, size):
    rng = _rng("oracle", seed, index)
    return [
        {
            "kind": "group",
            "graphs": tuple(
                _plain(lib.gen_p5_free(n, rng.randrange(1 << 30), "perturb-filter"))
                for n in ORACLE_GROUP
            ),
        }
        for _ in range(size)
    ]


def _oracle_run(lib, graph):
    n, edges = graph
    return lib.audit_sandwich(lib.Graph(n, edges), cap=n)


def _oracle_output(lib, item, recs):
    out = [
        {
            "outcome": rec.outcome,
            "ell": rec.ell,
            "k": rec.value,
            "exact": rec.exact,
            "iterations": rec.iterations,
        }
        for rec in recs
    ]
    return out, json.dumps(out, sort_keys=True)


def _oracle_check(item, out):
    problems = []
    for (n, edges), rec in zip(item["graphs"], out, strict=True):
        if rec["outcome"] != "decomposition":
            problems.append(f"audit outcome {rec['outcome']} on a P5-free graph")
            continue
        tia = check.tree_alpha(n, edges)
        if rec["exact"] != tia:
            problems.append(f"exact_tia gave {rec['exact']}, recomputed {tia}")
        if not rec["ell"] - 1 <= tia <= rec["k"] <= 4 * rec["ell"]:
            problems.append(f"sandwich fails: ell*={rec['ell']} tia={tia} k*={rec['k']}")
    return problems, statistics.fmean(rec["k"] for rec in out)


ORACLE = Workload(
    name="oracle",
    batch_size=2,
    core_batches=4,
    cycle=1,
    build=_oracle_build,
    run=_oracle_run,
    output=_oracle_output,
    check=_oracle_check,
    parts=lambda item: item["graphs"],
)


# -- generate: certified {P5, K_ll}-free graphs --------------------------------


# One operation generates one graph for each (n, ell) below.  Single
# graphs of one (n, ell) take from 1x to 3x as long as each other, which
# makes the median over single graphs move with the seed; the sum over a
# group is narrow.  ell = 3 stops at n = 20: at n = 22 one graph takes
# 50 to 220 ms and at n = 30 140 to 380 ms, so one such graph would set
# a group's time and its spread; several mid-size graphs average out.
GENERATE_GROUP = (
    (4, 2), (13, 2), (22, 2), (31, 2), (40, 2),
    (6, 3), (12, 3), (16, 3), (18, 3), (20, 3),
)


def _generate_build(lib, seed, index, size):
    rng = _rng("generate", seed, index)
    return [
        {"kind": "group", "graphs": tuple((n, ell, rng.randrange(1 << 30)) for n, ell in GENERATE_GROUP)}
        for _ in range(size)
    ]


def _generate_run(lib, spec):
    n, ell, seed = spec
    return lib.gen_class_free(n, seed, [P5, ("biclique", ell, ell)])


def _generate_output(lib, item, graphs):
    return [_plain(g) for g in graphs], "\n".join(lib.serialize_graph(g) for g in graphs)


def _generate_check(item, out):
    problems = []
    for (want, ell, _), (n, edges) in zip(item["graphs"], out, strict=True):
        if n != want:
            problems.append(f"asked for n={want}, got {n}")
        if check.has_induced_path(n, edges, 5):
            problems.append("generated graph has an induced P5")
        if check.has_induced_biclique(n, edges, ell):
            problems.append(f"generated graph has an induced K_{ell},{ell}")
    return problems, None


GENERATE = Workload(
    name="generate",
    batch_size=2,
    core_batches=4,
    cycle=1,
    build=_generate_build,
    run=_generate_run,
    output=_generate_output,
    check=_generate_check,
    parts=lambda item: item["graphs"],
)


WORKLOADS = {w.name: w for w in (CORPUS, SCALE, ORACLE, GENERATE)}
