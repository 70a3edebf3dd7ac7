"""Bag formats at the boundary: range errors, the check-td record, bag masks.

Inside a ``TreeDecomposition`` each bag is also a vertex bitmask
(``bag_masks``), which the engine reads; ``bags`` stays the public sorted
tuple form.  The public entry points keep their range checks and messages;
a negative bag vertex in a .td file, which has no mask bit, is a malformed
bag line (exit 1).
"""

import json
import random
import tracemalloc
from functools import reduce
from operator import or_

import pytest

import treealpha.decomposer as dec
from treealpha.cli import main
from treealpha.graph import Graph, members, serialize_graph
from treealpha.harness import gen_p5_free
from treealpha.treedecomp import TreeDecomposition, parse_td, td_alpha, validate


def test_td_alpha_names_a_bag_vertex_outside_the_graph():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError) as info:
        td_alpha(g, TreeDecomposition((), ((0, 7),)))
    assert str(info.value) == "invalid vertex 7 for graph with n=3"


def _check_td(tmp_path, capsys, td_text):
    gr, td = tmp_path / "g.gr", tmp_path / "g.td"
    gr.write_text(serialize_graph(Graph(3, [(0, 1), (1, 2)])))
    td.write_text(td_text)
    code = main(["check-td", str(gr), str(td)])
    out, err = capsys.readouterr()
    return code, out, err


def test_check_td_reports_a_bag_vertex_past_n(tmp_path, capsys):
    code, out, err = _check_td(tmp_path, capsys, "td 2\ne 0 1\nb 0 0 1\nb 1 1 2 7\n")
    assert code == 2 and err == ""
    assert json.loads(out) == {
        "valid": False, "violations": ["bag vertex 7 outside graph"],
    }


def test_check_td_rejects_a_negative_bag_vertex_as_malformed(tmp_path, capsys):
    code, out, err = _check_td(tmp_path, capsys, "td 2\ne 0 1\nb 0 0 1\nb 1 1 2 -1\n")
    assert (code, out, err) == (1, "", "line 4: malformed bag line\n")


# -- bag masks ---------------------------------------------------------------------


def _or_of_bags(td: TreeDecomposition) -> tuple[int, ...]:
    return tuple(reduce(or_, (1 << v for v in bag), 0) for bag in td.bags)


def test_tuple_built_and_leaf_extended_masks_are_the_bags():
    td = TreeDecomposition(((0, 1), (1, 2)), ((0, 1), (1, 2, 2), (5,)))
    assert td.bag_masks == (0b11, 0b110, 0b100000) == _or_of_bags(td)
    leaf = td.with_leaf(1, (2, 3))
    assert leaf.bag_masks == td.bag_masks + (0b1100,) == _or_of_bags(leaf)
    assert TreeDecomposition((), ()).bag_masks == ()
    # a leaf on a decomposition whose masks were never read
    assert TreeDecomposition((), ((0,),)).with_leaf(0, (0, 1)).bag_masks == (1, 3)


def test_from_masks_equals_the_tuple_built_decomposition():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(1, 9)
        edges = tuple((rng.randrange(t), t) for t in range(1, k))
        masks = tuple(rng.getrandbits(rng.randint(0, 70)) for _ in range(k))
        td = TreeDecomposition.from_masks(edges, masks)
        ref = TreeDecomposition(edges, tuple(map(members, masks)))
        assert td == ref and td.bag_masks == ref.bag_masks == masks
        assert [td.node_mask(v) for v in range(71)] == [
            ref.node_mask(v) for v in range(71)
        ]


def test_engine_outputs_keep_masks_equal_to_their_bags(monkeypatch):
    seen = {"surgery": 0, "compress": 0}
    check, squash = dec._check_surgery_output, dec.compress

    def checked(ctx, out, label):
        seen["surgery"] += 1
        assert out.bag_masks == _or_of_bags(out)
        return check(ctx, out, label)

    def compressed(td):
        out = squash(td)
        seen["compress"] += 1
        assert out.bag_masks == _or_of_bags(out)
        return out

    monkeypatch.setattr(dec, "_check_surgery_output", checked)
    monkeypatch.setattr(dec, "compress", compressed)
    for i in range(12):
        g = gen_p5_free(20 + 3 * i, i, ("union-join", "perturb-filter")[i % 2])
        _, td, _ = dec.approximate_tia(g)  # its leaves come from with_leaf
        assert td.bag_masks == _or_of_bags(td)
    assert seen["surgery"] == seen["compress"] > 50


def test_a_large_bag_vertex_is_named_before_any_mask_is_built():
    # bag masks are derived on first use, after validate's range check, so
    # a vertex id read from a file costs no memory proportional to its value
    tracemalloc.start()
    td = parse_td("td 2\ne 0 1\nb 0 0 1\nb 1 1 100000000\n")
    problems = validate(Graph(2, [(0, 1)]), td)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert problems == ["bag vertex 100000000 outside graph"]
    assert peak < 1 << 20  # the mask of that vertex alone takes 12.5 MB
