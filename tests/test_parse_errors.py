"""Every input error of ``parse_graph`` names its line, and ``gen`` rejects a bad request.

Each malformed payload below reaches one branch of the parser, which
raises ``GraphParseError`` with the line it stopped at (line 1 for an
error about the payload as a whole).  ``treealpha gen`` answers a
class-free request without patterns, or an unknown kind, with exit code 1
and a message on stderr.
"""

import pytest

from treealpha.cli import main
from treealpha.graph import Graph, GraphParseError, parse_graph


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("p edge 3\n", 1, "malformed DIMACS header"),
        ("c x\np col 3 1\n", 2, "malformed DIMACS header"),
        ("p edge three 1\n", 1, "non-integer header field"),
        ("p edge 3 -1\n", 1, "negative header value"),
        ("3\ne 1 2\n", 2, "'e' line outside DIMACS payload"),
        ("p edge 3 1\ne 1 2 3\n", 2, "malformed edge line"),
        ("p edge 3 1\ne 1 b\n", 2, "non-integer endpoint"),
        ("3\n0 b\n", 2, "non-integer endpoint"),
        ("# plain\n3 4\n", 2, "malformed header line"),
        ("three\n", 1, "non-integer vertex count"),
        ("-3\n", 1, "negative vertex count"),
        ("c only a comment\n", 1, "missing header"),
        ("", 1, "missing header"),
        ("p edge 3 2\ne 1 2\n", 1, "declared 2 edges, found 1"),
        ("p edge 3 0\ne 1 2\n", 1, "declared 0 edges, found 1"),
        ("p edge 3 2\ne 1 2\ne 2 1\n", 3, "duplicate edge 0 1"),
        ("p edge 3 1\ne 1 4\n", 2, "endpoint out of range: 0 3"),
        ("p edge 3 1\ne 2 2\n", 2, "self-loop at vertex 1"),
    ],
)
def test_each_parse_error_names_its_line(text, line, message):
    with pytest.raises(GraphParseError) as info:
        parse_graph(text)
    assert str(info.value).startswith(f"line {line}: {message}")
    assert info.value.line_no == line


def test_a_huge_header_fails_on_its_payload_first():
    # no row is built before the payload has parsed
    with pytest.raises(GraphParseError, match="^line 3: duplicate edge 0 1$"):
        parse_graph("10000000000\n0 1\n1 0\n")
    with pytest.raises(GraphParseError, match="^line 1: declared 0 edges, found 1$"):
        parse_graph("p edge 10000000000 0\ne 1 2\n")


def test_parsed_rows_equal_the_edge_list_graph():
    text = "p edge 5 4\ne 1 2\ne 3 2\nc mid\ne 5 1\ne 4 5\n"
    want = Graph(5, [(0, 1), (2, 1), (4, 0), (3, 4)])
    assert parse_graph(text) == want
    assert parse_graph("5\n0 1\n2 1\n4 0\n3 4\n") == want
    assert parse_graph("2\n") == Graph(2, [])


@pytest.mark.parametrize(
    "argv, err",
    [
        (["gen", "--kind", "class-free", "--n", "5", "--seed", "1"],
         "class-free generation needs --forbid"),
        (["gen", "--kind", "mystery", "--n", "5", "--seed", "1"],
         "unknown kind 'mystery'"),
    ],
)
def test_gen_rejects_a_bad_request_with_exit_1(argv, err, capsys):
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip() == err
