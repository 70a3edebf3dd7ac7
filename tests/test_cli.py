import json

import pytest

from treealpha.cli import main
from treealpha.graph import serialize_graph, parse_graph
from treealpha.treedecomp import parse_td, serialize_td, validate

from conftest import complete_bipartite, cycle, path_graph


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.gr"
    p.write_text(serialize_graph(cycle(5)))
    return str(p)


def test_decompose_success(c5_file, capsys, tmp_path):
    out = tmp_path / "c5.td"
    code = main(["decompose", c5_file, "--ell", "2", "--emit-td", str(out), "--log"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "decomposition"
    assert payload["td_alpha"] == 2
    td = parse_td(out.read_text())
    assert validate(cycle(5), td) == []


def test_decompose_biclique_exit(tmp_path, capsys):
    p = tmp_path / "k44.gr"
    p.write_text(serialize_graph(complete_bipartite(4, 4)))
    code = main(["decompose", str(p), "--ell", "2"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "biclique"


def test_decompose_rejects_p5(tmp_path, capsys):
    p = tmp_path / "p5.gr"
    p.write_text(serialize_graph(path_graph(5)))
    code = main(["decompose", str(p), "--ell", "2"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "rejected-p5"


def test_check_td(c5_file, tmp_path, capsys):
    from treealpha.decomposer import decompose

    td = decompose(cycle(5), 2)
    td_file = tmp_path / "c5.td"
    td_file.write_text(serialize_td(td))
    assert main(["check-td", c5_file, str(td_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] and payload["td_alpha"] == 2
    # break it
    bad = tmp_path / "bad.td"
    bad.write_text("td 1\nb 0 0 1\n")
    assert main(["check-td", c5_file, str(bad)]) == 2


def test_alpha_degeneracy_cmd(c5_file, capsys):
    assert main(["alpha-degeneracy", c5_file]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_find_cmd(c5_file, capsys, tmp_path):
    assert main(["find", c5_file, "--pattern", "p5"]) == 0
    assert json.loads(capsys.readouterr().out) == {"found": False}
    p6 = tmp_path / "p6.gr"
    p6.write_text(serialize_graph(path_graph(6)))
    assert main(["find", str(p6), "--pattern", "path:5"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"]
    c4 = tmp_path / "c4.gr"
    c4.write_text(serialize_graph(cycle(4)))
    assert main(["find", str(c4), "--pattern", "kll:2"]) == 2
    capsys.readouterr()


def test_low_alpha_cmd(c5_file, capsys):
    assert main(["low-alpha", c5_file, "--ell", "2", "--d", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertex"] == 0 and payload["alpha_closed"] == 2


def test_separator_cmd(c5_file, capsys):
    assert main(["separator", c5_file, "--t", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["x"] and payload["bound"] == 2


def test_separator_path_witness(tmp_path, capsys):
    p = tmp_path / "p9.gr"
    p.write_text(serialize_graph(path_graph(9)))
    assert main(["separator", str(p), "--t", "3"]) == 2


def test_dbs_cmd(c5_file, capsys):
    assert main(["dbs-vertex", c5_file, "--ell", "2", "--t", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha_closed"] == 2


def test_exact_tia_cmd(c5_file, capsys):
    assert main(["exact-tia", c5_file]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_exact_tia_cap_error(tmp_path, capsys):
    from treealpha.graph import Graph

    p = tmp_path / "big.gr"
    p.write_text(serialize_graph(Graph(12, [])))
    assert main(["exact-tia", str(p)]) == 1


def test_gen_cmd(capsys):
    assert main(["gen", "--kind", "p5-union-join", "--n", "8", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--kind", "p5-union-join", "--n", "8", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first
    g = parse_graph(first)
    assert g.n == 8
    assert main(
        ["gen", "--kind", "class-free", "--n", "8", "--seed", "3",
         "--forbid", "path:5,kll:2"]
    ) == 0
    capsys.readouterr()


def test_audit_cmd(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "c5.gr").write_text(serialize_graph(cycle(5)))
    (corpus / "k22.gr").write_text(serialize_graph(complete_bipartite(2, 2)))
    report = tmp_path / "out.csv"
    assert main(["audit", "--corpus", str(corpus), "--report", str(report)]) == 0
    assert report.read_text().startswith("seed,")
    capsys.readouterr()


def test_find_cmd_takes_every_parsed_pattern(tmp_path, capsys):
    c4 = tmp_path / "c4.gr"
    c4.write_text(serialize_graph(cycle(4)))
    assert main(["find", str(c4), "--pattern", "k2l:2"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"] == {"kind": "biclique", "parts": [[0, 2], [1, 3]]}
    assert main(["find", str(c4), "--pattern", "wall:2"]) == 1
    assert "unknown pattern 'wall:2'" in capsys.readouterr().err
    assert main(["find", str(c4), "--pattern", "path"]) == 1
    assert "missing a size" in capsys.readouterr().err


def test_find_cmd_rejects_a_non_integer_size(tmp_path, capsys):
    c4 = tmp_path / "c4.gr"
    c4.write_text(serialize_graph(cycle(4)))
    assert main(["find", str(c4), "--pattern", "path:x"]) == 1
    assert "pattern 'path:x' has a non-integer size" in capsys.readouterr().err


def test_gen_reports_an_exhausted_budget_in_one_line(capsys):
    # every graph has a vertex, so no seed graph is free of path:1
    argv = ["gen", "--kind", "class-free", "--n", "5", "--seed", "1", "--forbid", "path:1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "generation budget exhausted: no admissible seed graph\n"
