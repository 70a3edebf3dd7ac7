"""``parse_td`` compares the bag lines with the ``td N`` header before it builds anything.

A short file that declares an enormous node count is malformed input, not a
request for an N-element set: it fails at once with the usual message, and
``check-td`` exits 1 on it.
"""

import time

import pytest

from treealpha.cli import main
from treealpha.graph import Graph, serialize_graph
from treealpha.treedecomp import parse_td

COVER = r"^bag lines do not cover nodes 0\.\.count-1$"


@pytest.mark.parametrize(
    "text", ["td 1000000000000\n", "td 1000000000000\nb 0 0\n", "td 3\nb 0 0\nb 1 1\n"]
)
def test_a_node_count_beyond_the_bag_lines_fails_at_once(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=COVER):
        parse_td(text)
    assert time.perf_counter() - start < 1.0


def test_bag_lines_still_have_to_be_the_nodes():
    assert parse_td("td 2\nb 1 1\nb 0 0\ne 0 1\n").bags == ((0,), (1,))
    with pytest.raises(ValueError, match=COVER):
        parse_td("td 2\nb 0 0\nb 2 1\n")


def test_check_td_exits_1_on_a_huge_node_count(tmp_path, capsys):
    gr = tmp_path / "k2.gr"
    gr.write_text(serialize_graph(Graph(2, [(0, 1)])))
    bad = tmp_path / "huge.td"
    bad.write_text("td 10000000000\n")
    assert main(["check-td", str(gr), str(bad)]) == 1
    assert "bag lines do not cover nodes 0..count-1" in capsys.readouterr().err
