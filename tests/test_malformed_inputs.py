"""Malformed witnesses verify as False, and a malformed .td file names its line.

``verify_witness`` range-checks a path's vertices with ``mask_of`` and a
matching's ends through ``Graph.adjacent``; both raise ValueError for a
non-vertex, which the function maps to False.  ``parse_td`` reports a
non-integer field as ``line N: ...``, as ``parse_graph`` does, and the CLI
turns that into exit code 1.
"""

import pytest

from treealpha.cli import main
from treealpha.graph import Graph, serialize_graph
from treealpha.oracles import Witness, matching_witness, path_witness, verify_witness
from treealpha.treedecomp import parse_td, serialize_td, single_bag_decomposition


@pytest.mark.parametrize("seq", [(5,), (-1,), (0, 1, 2), (-1, 0)])
def test_path_with_a_non_vertex_is_false(seq):
    g = Graph(2, [(0, 1)])
    assert not verify_witness(g, path_witness(seq))
    assert verify_witness(g, path_witness((1,)))
    assert verify_witness(g, path_witness((0, 1)))


@pytest.mark.parametrize("edges", [[(0, 1), (2, 7)], [(0, 1), (-1, 2)], [(4, 5)]])
def test_matching_with_an_out_of_range_end_is_false(edges):
    g = Graph(4, [(0, 1), (2, 3)])
    assert not verify_witness(g, matching_witness(edges))
    assert verify_witness(g, matching_witness([(0, 1), (2, 3)]))


def test_matching_with_a_non_integer_end_is_false():
    g = Graph(4, [(0, 1), (2, 3)])
    assert not verify_witness(g, Witness("matching", ((0, 1), (2, "x"))))


GOOD_TD = "td 1\nb 0 0 1\n"


@pytest.mark.parametrize(
    "text, line",
    [
        ("td x\nb 0 0 1\n", 1),
        ("td 1\nb 0 x\n", 2),
        ("td 1\nb x 0 1\n", 2),
        ("td 2\nb 0 0\nb 1 1\ne 0 y\n", 4),
        ("c comment\ntd 2\nb 0 0\nb 1 1\ne z 1\n", 5),
    ],
)
def test_parse_td_names_the_line_of_a_non_integer_field(text, line):
    assert parse_td(GOOD_TD).bags == ((0, 1),)
    with pytest.raises(ValueError, match=rf"^line {line}: non-integer field"):
        parse_td(text)


def test_check_td_exits_1_on_a_non_integer_field(tmp_path, capsys):
    gr = tmp_path / "k2.gr"
    gr.write_text(serialize_graph(Graph(2, [(0, 1)])))
    good = tmp_path / "good.td"
    good.write_text(serialize_td(single_bag_decomposition((0, 1))))
    assert main(["check-td", str(gr), str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.td"
    bad.write_text("td 1\nb 0 0 x\n")
    assert main(["check-td", str(gr), str(bad)]) == 1
    assert capsys.readouterr().err.startswith("line 2: non-integer field")


def test_a_negative_node_count_is_a_malformed_header(tmp_path, capsys):
    with pytest.raises(ValueError, match=r"^line 1: malformed td header$"):
        parse_td("td -1\n")
    assert parse_td("td 0\n").node_count == 0
    gr = tmp_path / "k2.gr"
    gr.write_text(serialize_graph(Graph(2, [(0, 1)])))
    bad = tmp_path / "negative.td"
    bad.write_text("td -1\n")
    assert main(["check-td", str(gr), str(bad)]) == 1
    assert capsys.readouterr().err.startswith("line 1: malformed td header")
