"""A pattern takes exactly its size fields; an extra one is an error.

Before, ``kll:2:3`` parsed as K_{2,2} and ``path:5:9`` as P5, so
``gen --forbid kll:2:3`` quietly built a K_{2,2}-free graph.
"""

import pytest

from treealpha.cli import main
from treealpha.graph import Graph, serialize_graph
from treealpha.harness import parse_pattern


@pytest.mark.parametrize(
    "text", ["kll:2:3", "path:5:9", "biclique:1:2:3", "p5:5", "k2l:3:3", "substar:2:1"]
)
def test_an_extra_field_is_rejected(text):
    with pytest.raises(ValueError, match=rf"^pattern '{text}' has too many fields$"):
        parse_pattern(text)


def test_the_message_quotes_the_text_as_given():
    with pytest.raises(ValueError, match=r"^pattern 'KLL:2:3' has too many fields$"):
        parse_pattern("KLL:2:3")


def test_exact_fields_still_parse():
    assert parse_pattern("p:4") == ("path", 4)
    assert parse_pattern(" P5 ") == ("path", 5)
    assert parse_pattern("biclique:1:2") == ("biclique", 1, 2)
    assert parse_pattern("kll:2") == ("biclique", 2, 2)
    with pytest.raises(ValueError, match="missing a size"):
        parse_pattern("substar")
    with pytest.raises(ValueError, match="non-integer size"):
        parse_pattern("kll:")
    with pytest.raises(ValueError, match="^unknown pattern 'wall:2:3'$"):
        parse_pattern("wall:2:3")


def test_cli_find_with_an_extra_field_exits_1(tmp_path, capsys):
    gr = tmp_path / "p5.gr"
    gr.write_text(serialize_graph(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])))
    assert main(["find", str(gr), "--pattern", "path:5"]) == 2
    capsys.readouterr()
    assert main(["find", str(gr), "--pattern", "path:5:9"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "has too many fields" in out.err


def test_cli_gen_with_an_extra_field_exits_1(capsys):
    args = ["gen", "--kind", "class-free", "--n", "6", "--seed", "1"]
    assert main(args + ["--forbid", "p5,kll:2:3"]) == 1
    assert "pattern 'kll:2:3' has too many fields" in capsys.readouterr().err
