"""Command-line surface.

Each command returns a JSON record (None for `gen` and `audit`, which
write their own output) and an exit code; `main` loads the graph, prints
the record and maps every outcome: 0 on success, 2 when a witness or
rejection is the answer, 1 on errors (bad input, violated preconditions).
A refuted input promise is an exit-2 record labelled `rejected-p5`
(`decompose`), `path-found` (`separator`) or `class-breach` (`dbs-vertex`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .decomposer import decompose
from .degeneracy import alpha_degeneracy, low_alpha_vertex
from .graph import GraphParseError, parse_graph, serialize_graph
from .harness import (
    audit_sandwich,
    exact_tia,
    find_pattern,
    gen_class_free,
    gen_p5_free,
    parse_pattern,
    summarize,
    write_report,
)
from .oracles import ForbiddenStructureFound
from .separators import dbs_low_alpha_vertex, get_separator_provider, gyarfas_dominated_separator
from .treedecomp import TreeDecomposition, parse_td, serialize_td, td_alpha, to_record, validate

OK, WITNESS, ERROR = 0, 2, 1


def _cmd_decompose(args, g):
    log: list = []
    result = decompose(g, args.ell, log=log if args.log else None)
    if isinstance(result, TreeDecomposition):
        payload = {
            "outcome": "decomposition",
            "td_alpha": td_alpha(g, result),
            "bound": 4 * args.ell,
        }
        if args.emit_td:
            Path(args.emit_td).write_text(serialize_td(result))
            payload["td_path"] = args.emit_td
        else:
            payload["td"] = to_record(result)
    else:
        payload = {"outcome": "biclique", "witness": result.to_record()}
    if args.log:
        payload["log"] = log
    return payload, WITNESS if payload["outcome"] == "biclique" else OK


def _cmd_check_td(args, g):
    td = parse_td(Path(args.td).read_text())
    problems = validate(g, td)
    if problems:
        return {"valid": False, "violations": problems}, WITNESS
    return {"valid": True, "td_alpha": td_alpha(g, td)}, OK


def _cmd_alpha_degeneracy(args, g):
    return alpha_degeneracy(g), OK


def _cmd_find(args, g):
    w = find_pattern(g, parse_pattern(args.pattern))
    if w is None:
        return {"found": False}, OK
    return {"found": True, "witness": w.to_record()}, WITNESS


def _cmd_low_alpha(args, g):
    report = low_alpha_vertex(g, args.ell, args.d)
    return report.to_record(), WITNESS if report.witness is not None else OK


def _cmd_separator(args, g):
    return gyarfas_dominated_separator(g, args.t).to_record(), OK


def _cmd_dbs_vertex(args, g):
    provider = get_separator_provider(f"pt-free:{args.t}")
    v, alpha = dbs_low_alpha_vertex(g, args.ell, args.t - 1, provider)
    return {"vertex": v, "alpha_closed": alpha}, OK


def _cmd_exact_tia(args, g):
    return exact_tia(g, cap=args.cap), OK


def _cmd_gen(args, g):
    if args.kind in ("p5-union-join", "p5-perturb-filter"):
        method = "union-join" if args.kind == "p5-union-join" else "perturb-filter"
        g = gen_p5_free(args.n, args.seed, method)
    elif args.kind == "class-free":
        if not args.forbid:
            print("class-free generation needs --forbid", file=sys.stderr)
            return None, ERROR
        patterns = [parse_pattern(p) for p in args.forbid.split(",")]
        try:
            g = gen_class_free(args.n, args.seed, patterns)
        except RuntimeError as exc:
            if not str(exc).startswith("generation budget exhausted"):
                raise  # a failed certification is a bug, not a bad request
            print(str(exc), file=sys.stderr)
            return None, ERROR
    else:
        print(f"unknown kind {args.kind!r}", file=sys.stderr)
        return None, ERROR
    sys.stdout.write(serialize_graph(g))
    return None, OK


def _cmd_audit(args, g):
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise NotADirectoryError(f"corpus is not a directory: {args.corpus}")
    records = []
    failures = 0
    for i, path in enumerate(p for p in sorted(corpus.glob("*")) if p.is_file()):
        try:
            g = parse_graph(path.read_text())
            records.append(audit_sandwich(g, seed=i, generator=path.name))
        except (GraphParseError, UnicodeDecodeError, AssertionError) as exc:
            failures += 1
            print(f"FAIL {path.name}: {exc}", file=sys.stderr)
    write_report(records, args.report)
    for ell, worst, bound in summarize(records):
        print(f"ell={ell}: worst bag alpha {worst} (bound {bound})")
    return None, ERROR if failures else OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="treealpha",
        description="Bounded-bag-independence tree decompositions of P5-free graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="biclique or a 4*ell decomposition")
    p.add_argument("graph")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--emit-td")
    p.add_argument("--log", action="store_true")
    p.set_defaults(func=_cmd_decompose, refuted="rejected-p5")

    p = sub.add_parser("check-td", help="validate a decomposition file")
    p.add_argument("graph")
    p.add_argument("td")
    p.set_defaults(func=_cmd_check_td)

    p = sub.add_parser("alpha-degeneracy", help="exact alpha-degeneracy")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_alpha_degeneracy)

    p = sub.add_parser("find", help="brute-force induced pattern search")
    p.add_argument("graph")
    p.add_argument("--pattern", required=True,
                   help="p5 | path:T | kll:L | k2l:L | biclique:A:B | substar:D")
    p.set_defaults(func=_cmd_find)

    p = sub.add_parser("low-alpha", help="vertex with small closed-neighborhood alpha")
    p.add_argument("graph")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.set_defaults(func=_cmd_low_alpha)

    p = sub.add_parser("separator", help="dominated balanced separator")
    p.add_argument("graph")
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_separator, refuted="path-found")

    p = sub.add_parser("dbs-vertex", help="separator-driven low-alpha vertex")
    p.add_argument("graph")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_dbs_vertex, refuted="class-breach")

    p = sub.add_parser("exact-tia", help="exact tree-independence number (small n)")
    p.add_argument("graph")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_exact_tia)

    p = sub.add_parser("gen", help="certified class-member graph generator")
    p.add_argument("--kind", required=True,
                   help="p5-union-join | p5-perturb-filter | class-free")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--forbid", help="comma-separated patterns for class-free")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("audit", help="bound-sandwich audit over a corpus directory")
    p.add_argument("--corpus", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_audit)

    args = parser.parse_args(argv)
    try:
        g = parse_graph(Path(args.graph).read_text()) if "graph" in args else None
        record, code = args.func(args, g)
    except ForbiddenStructureFound as exc:
        if "refuted" not in args:
            raise
        record, code = {"outcome": args.refuted, "witness": exc.witness.to_record()}, WITNESS
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return ERROR
    if record is not None:
        print(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
