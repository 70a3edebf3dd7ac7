"""Malformed graph and decomposition files name their line; decompose prints one payload.

A graph payload has one header and one format: a second header, or an edge
line of the other format, raises ``GraphParseError`` for that line.  A
``.td`` edge between missing nodes, or from a node to itself, is reported
as ``line N: bad tree edge (a,b)`` like every other malformed record.  The
CLI turns both into exit code 1.
"""

import json
import re

import pytest

from treealpha.cli import main
from treealpha.decomposer import decompose
from treealpha.graph import Graph, GraphParseError, parse_graph, serialize_graph
from treealpha.harness import gen_p5_free
from treealpha.oracles import BICLIQUE, verify_witness
from treealpha.treedecomp import parse_td


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("p edge 3 1\ne 1 2\np edge 2 1\n", 3, "second header"),
        ("p edge 3 2\ne 1 2\n0 2\n", 3, "plain edge in DIMACS payload"),
        ("3\n0 1\np edge 3 1\n", 3, "second header"),
        ("3\np edge 3 0\n", 2, "second header"),
        ("c dimacs\np edge 2 0\n2\n", 3, "plain edge in DIMACS payload"),
    ],
)
def test_a_graph_payload_has_one_header_and_one_format(text, line, message):
    with pytest.raises(GraphParseError, match=rf"^line {line}: {message}") as info:
        parse_graph(text)
    assert info.value.line_no == line


def test_well_formed_payloads_still_parse():
    assert parse_graph("p edge 3 1\ne 1 2\n") == Graph(3, [(0, 1)])
    assert parse_graph("c x\np edge 3 2\ne 1 2\nc y\ne 2 3\n") == Graph(3, [(0, 1), (1, 2)])
    assert parse_graph("# plain\n3\n0 1\n1 2\n") == Graph(3, [(0, 1), (1, 2)])


def test_cli_exits_1_on_a_second_header(tmp_path, capsys):
    bad = tmp_path / "two-headers.gr"
    bad.write_text("p edge 3 1\ne 1 2\np edge 2 1\n")
    assert main(["exact-tia", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("line 3: second header")


@pytest.mark.parametrize(
    "text, line, edge",
    [
        ("td 2\ne 0 7\nb 0 0\nb 1 1\n", 2, "(0,7)"),
        ("td 2\ne 0 0\nb 0 0\nb 1 1\n", 2, "(0,0)"),
        ("td 2\nb 0 0\nb 1 1\nc edge\ne -1 1\n", 5, "(-1,1)"),
    ],
)
def test_parse_td_names_the_line_of_a_bad_tree_edge(text, line, edge):
    message = re.escape(f"line {line}: bad tree edge {edge}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_td(text)
    assert parse_td("td 2\ne 0 1\nb 0 0\nb 1 1\n").edges == ((0, 1),)


def test_check_td_exits_1_on_a_bad_tree_edge(tmp_path, capsys):
    gr = tmp_path / "k2.gr"
    gr.write_text(serialize_graph(Graph(2, [(0, 1)])))
    bad = tmp_path / "bad-edge.td"
    bad.write_text("td 2\ne 0 7\nb 0 0\nb 1 1\n")
    assert main(["check-td", str(gr), str(bad)]) == 1
    assert capsys.readouterr().err == "line 2: bad tree edge (0,7)\n"


def test_decompose_prints_a_biclique_with_its_log(tmp_path, capsys):
    g = gen_p5_free(28, 1, "perturb-filter")
    log: list = []
    w = decompose(g, 2, log=log)
    assert w.kind == BICLIQUE and verify_witness(g, w) and log
    gr = tmp_path / "g.gr"
    gr.write_text(serialize_graph(g))
    assert main(["decompose", str(gr), "--ell", "2", "--log"]) == 2
    out = capsys.readouterr().out
    assert out == json.dumps({"outcome": "biclique", "witness": w.to_record(), "log": log}) + "\n"
    assert main(["decompose", str(gr), "--ell", "2"]) == 2
    assert "log" not in json.loads(capsys.readouterr().out)
