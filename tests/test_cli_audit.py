"""``treealpha audit`` on a missing corpus and on a corpus with a bad file.

A corpus path that is missing or is not a directory exits 1 with a message
naming it, and writes no report.  A corpus file that fails to parse is a
failure of that file only: it prints ``FAIL <name>: <error>``, the audit goes
on, the report holds the other files' rows, and the exit code is 1.
"""

import csv

from treealpha.cli import main
from treealpha.graph import serialize_graph

from conftest import cycle, path_graph


def test_missing_corpus_exits_1_naming_it(tmp_path, capsys):
    report = tmp_path / "r.csv"
    missing = tmp_path / "no" / "such" / "dir"
    assert main(["audit", "--corpus", str(missing), "--report", str(report)]) == 1
    assert str(missing) in capsys.readouterr().err
    assert not report.exists()


def test_corpus_that_is_a_file_exits_1(tmp_path, capsys):
    corpus = tmp_path / "c5.gr"
    corpus.write_text(serialize_graph(cycle(5)))
    report = tmp_path / "r.csv"
    assert main(["audit", "--corpus", str(corpus), "--report", str(report)]) == 1
    assert str(corpus) in capsys.readouterr().err
    assert not report.exists()


def test_unparsable_file_is_one_failure(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a_c5.gr").write_text(serialize_graph(cycle(5)))
    (corpus / "b_bad.gr").write_text("garbage\n")
    (corpus / "c_binary.gr").write_bytes(b"\xff\xfe\x00")
    (corpus / "d_p4.gr").write_text(serialize_graph(path_graph(4)))
    report = tmp_path / "r.csv"
    assert main(["audit", "--corpus", str(corpus), "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert "FAIL b_bad.gr: line 1: non-integer vertex count: 'garbage'" in err
    assert "FAIL c_binary.gr: " in err
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["generator"] for row in rows] == ["a_c5.gr", "d_p4.gr"]
