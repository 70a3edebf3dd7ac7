"""The P5-through kernel keyed on path positions, against the centre kernel.

``path_through(bits, 5, u, v)`` places u and v at each of six position
cases of a-b-c-d-e.  The reference below is the centre-kernel answer it
replaced, kept verbatim: the centre kernel at u or v and at each of their
neighbors, then the two-ends loop.  Decisions must agree on every ordered
pair; witnesses may differ, so each is checked on its own.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

import pytest

from treealpha import harness
from treealpha.graph import Graph, members
from treealpha.harness import gen_p5_free
from treealpha.oracles import path_through, path_witness, verify_witness

from conftest import random_graph


# -- the centre-kernel answer, verbatim, as the reference ----------------------


def _centred_p5(bits: Sequence[int], m: int, c: int, bs: int, need: int) -> Optional[tuple]:
    near = bits[c] & m
    far = m & ~near & ~(1 << c)
    seen = 0
    for b in members(near & bs):
        seen |= 1 << b
        ds = near & ~bits[b] & ~seen
        while ds:
            low = ds & -ds
            ds ^= low
            d = low.bit_length() - 1
            ends_a = bits[b] & far & ~bits[d]
            ends_e = bits[d] & far & ~bits[b]
            rest = need & ~(1 << b | 1 << d)
            if rest & ends_a:
                ends_a = rest
            elif rest & ends_e:
                ends_e = rest
            elif rest:
                continue
            while ends_a and ends_e:
                a = ends_a & -ends_a
                ends_a ^= a
                e = ends_e & ~bits[a.bit_length() - 1]
                if e:
                    return a.bit_length() - 1, b, c, d, (e & -e).bit_length() - 1
    return None


def reference_p5_through(bits, u, v):
    full = (1 << len(bits)) - 1
    for x, y in ((u, v), (v, u)):
        bs = 1 << y if bits[x] >> y & 1 else bits[y]  # y is b, or an end next to b
        found = _centred_p5(bits, full, x, bs, 1 << y)
        for c in members(bits[x] & ~(1 << y)):
            found = found or _centred_p5(bits, full, c, 1 << x, 1 << y)
        if found:
            return path_witness(found)
    if not bits[u] >> v & 1:
        for b in members(bits[u] & ~bits[v]):
            for d in members(bits[v] & ~bits[u] & ~bits[b]):
                c = bits[b] & bits[d] & ~bits[u] & ~bits[v] & ~(1 << u | 1 << v)
                if c:
                    return path_witness((u, b, (c & -c).bit_length() - 1, d, v))
    return None


# -- the graphs ---------------------------------------------------------------


def _walk_graphs(n: int, seed: int, count: int) -> list[tuple[int, ...]]:
    """``count`` evenly spaced graphs, the last one included, that the
    perturb-filter walk tests a flip on."""
    met: list[tuple[int, ...]] = []

    def record(bits, t, u, v):
        met.append(tuple(bits))
        return path_through(bits, t, u, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "path_through", record)
        gen_p5_free(n, seed, "perturb-filter")
    return met[len(met) - 1::-(len(met) // count)][:count]


def _random_graphs() -> list[tuple[int, ...]]:
    rng = random.Random(2201)
    out = []
    for _ in range(150):
        n = rng.randint(5, 18)
        p = rng.choice([0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9])
        out.append(random_graph(n, p, rng).adjacency_bits())
    return out


def _position_class(path: tuple[int, ...], u: int, v: int) -> tuple[int, int]:
    """u's and v's positions on the path, as the lesser pair under reversal."""
    i, j = sorted((path.index(u), path.index(v)))
    return min((i, j), (4 - j, 4 - i))


SIX_CLASSES = {(1, 2), (0, 1), (0, 2), (0, 3), (1, 3), (0, 4)}


def _check_every_pair(graphs) -> set:
    """Check every ordered pair of each graph; the position classes that
    answered, with None for a "no"."""
    found: set = set()
    for bits in graphs:
        n = len(bits)
        g = Graph(n, [(u, w) for u in range(n) for w in members(bits[u]) if u < w])
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                got = path_through(bits, 5, u, v)
                want = reference_p5_through(bits, u, v)
                assert (got is None) == (want is None), (bits, u, v)
                if got is None:
                    found.add(None)
                    continue
                path = got.parts[0]
                assert verify_witness(g, got) and got.size() == 5, (bits, u, v, path)
                assert {u, v} <= set(path), (bits, u, v, path)
                found.add(_position_class(path, u, v))
    return found


def test_decisions_match_on_flip_walk_graphs():
    graphs = []
    # the reference takes about 2 s on one dense n = 60 graph
    walks = ((20, 0, 4), (20, 1, 4), (32, 2, 4), (40, 8, 2), (45, 3, 4), (50, 7, 1), (60, 4, 1))
    for n, seed, count in walks:
        graphs += _walk_graphs(n, seed, count)
    assert len(graphs) == 20
    found = _check_every_pair(graphs)
    assert None in found and len(found) >= 3


def test_decisions_match_on_random_graphs_and_every_case_answers():
    assert _check_every_pair(_random_graphs()) == SIX_CLASSES | {None}


def test_the_six_classes_are_every_position_pair_up_to_reversal():
    pairs = {(i, j) for i in range(5) for j in range(i + 1, 5)}
    assert {min(p, (4 - p[1], 4 - p[0])) for p in pairs} == SIX_CLASSES
