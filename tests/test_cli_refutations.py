"""The CLI's refutation records and exit codes, pinned byte for byte.

A command whose input breaks its promise (an induced path, a biclique the
class forbids) answers exit 2 with a labelled witness record; a violated
precondition is exit 1 with the message on stderr and nothing on stdout.
"""

import pytest

from treealpha import cli
from treealpha.cli import main
from treealpha.graph import Graph, serialize_graph
from treealpha.oracles import ForbiddenStructureFound, Witness

from conftest import complete_bipartite, path_graph


def _write(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(serialize_graph(g))
    return str(p)


def test_dbs_vertex_class_breach_record(tmp_path, capsys):
    k = _write(tmp_path, "k2_20.gr", complete_bipartite(2, 20))
    assert main(["dbs-vertex", k, "--ell", "2", "--t", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == (
        '{"outcome": "class-breach", "witness": {"kind": "biclique", "parts": [[0, 1], [2, 3]]}}\n'
    )
    assert captured.err == ""


def test_separator_on_a_disconnected_graph_is_an_error(tmp_path, capsys):
    two_edges = _write(tmp_path, "2k2.gr", Graph(4, [(0, 1), (2, 3)]))
    assert main(["separator", two_edges, "--t", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "separator construction needs a connected graph\n"


def test_separator_path_found_record(tmp_path, capsys):
    p9 = _write(tmp_path, "p9.gr", path_graph(9))
    assert main(["separator", p9, "--t", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == (
        '{"outcome": "path-found", "witness": {"kind": "path", "parts": [[0, 1, 2]]}}\n'
    )
    assert captured.err == ""


def test_an_unlabelled_command_lets_a_refutation_propagate(tmp_path, monkeypatch, capsys):
    # only decompose, separator and dbs-vertex turn a refutation into a record
    def refute(*args, **kwargs):
        raise ForbiddenStructureFound(Witness("path", ((0, 1, 2),)), "stub")

    monkeypatch.setattr(cli, "low_alpha_vertex", refute)
    p9 = _write(tmp_path, "p9.gr", path_graph(9))
    with pytest.raises(ForbiddenStructureFound):
        main(["low-alpha", p9, "--ell", "2"])
    assert capsys.readouterr().out == ""
