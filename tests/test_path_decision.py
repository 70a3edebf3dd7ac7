"""The induced-path decision and the P5 centre kernel against the plain DFS.

``find_induced_path`` decides first (split into components and
co-components, then the centre kernel for P5) and runs the DFS only on a
yes; ``path_through`` answers t = 5 by the centre kernel.  The references
below are the depth-first searches both used before, kept verbatim.
"""

from __future__ import annotations

import hashlib
import random
import sys
from itertools import combinations

import pytest

from treealpha import oracles
from treealpha.graph import Graph, members, serialize_graph
from treealpha.harness import gen_class_free, gen_p5_free
from treealpha.oracles import (
    _has_induced_path,
    find_induced_path,
    path_through,
    path_witness,
    verify_witness,
)

from conftest import random_graph


# -- the reference searches -------------------------------------------------------


def _grow_path(bits, path, banned, left, done):
    if not left:
        return done(path)
    last = path[-1]
    options = bits[last] & ~banned
    while options:
        low = options & -options
        options ^= low
        path.append(low.bit_length() - 1)
        if _grow_path(bits, path, banned | low | bits[last], left - 1, done):
            return True
        path.pop()
    return False


def _reference_within(bits, t, mask):
    for start in members(mask):
        path = [start]
        if _grow_path(bits, path, ~mask | 1 << start, t - 1, lambda p: p[0] <= p[-1]):
            return path_witness(path)
    return None


def _reference_path(g: Graph, t: int):
    return _reference_within(g.adjacency_bits(), t, (1 << g.n) - 1)


def _reference_through(bits, t, u, v):
    path = []

    def second_arm(arm):
        path[:] = arm[::-1]
        banned = 1 << u
        for x in arm[1:]:
            banned |= 1 << x | bits[x]
        return _grow_path(bits, path, banned, t - len(arm), lambda p: u in p and v in p)

    for k in range((t - 1) // 2 + 1):
        if _grow_path(bits, [u], 1 << u, k, second_arm):
            return path_witness(path)
    return None


# -- the decision -----------------------------------------------------------------


def test_decision_matches_the_dfs_on_random_graphs():
    rng = random.Random(1601)
    for _ in range(2000):
        n = rng.randint(1, 14)
        g = random_graph(n, rng.choice([0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9]), rng)
        bits = g.adjacency_bits()
        for t in range(1, 8):
            assert find_induced_path(g, t) == _reference_path(g, t), (g.edges(), t)
            for mask in ((1 << n) - 1, rng.getrandbits(n)):
                want = _reference_within(bits, t, mask) is not None
                assert _has_induced_path(bits, t, mask) == want, (g.edges(), t, mask)


def _compose(core, size: int, levels: int, rng: random.Random) -> Graph:
    """``core`` on 0..size-1 under ``levels`` random unions and joins with
    small random graphs, relabelled at random."""
    n, edges = size, list(core)
    for _ in range(levels):
        k = rng.randint(1, 4)
        other = [(u, v) for u, v in combinations(range(n, n + k), 2) if rng.random() < 0.5]
        edges += other
        if rng.random() < 0.5:  # a join; else a union
            edges += [(u, v) for u in range(n) for v in range(n, n + k)]
        n += k
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


# P5 itself; P6, which holds two P5s; and the P5-free primes C5 and the bull
CORES = {
    "p5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "p6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
    "c5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    "bull": (5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)]),
}


@pytest.mark.parametrize("name", sorted(CORES))
def test_decision_recurses_to_a_deep_prime_piece(name):
    size, core = CORES[name]
    rng = random.Random(f"deep:{name}")
    for _ in range(40):
        g = _compose(core, size, rng.randint(3, 8), rng)
        bits = g.adjacency_bits()
        full = (1 << g.n) - 1
        want = _reference_path(g, 5)
        assert (want is not None) == (name in ("p5", "p6"))
        assert _has_induced_path(bits, 5, full) == (want is not None)
        assert find_induced_path(g, 5) == want
        for t in (4, 6):
            assert _has_induced_path(bits, t, full) == (_reference_path(g, t) is not None)


def test_the_p5_free_corpora_have_no_p5():
    graphs = []
    for seed in range(6):
        for n in (10, 30, 55, 80):
            graphs += [gen_p5_free(n, seed, "union-join"), gen_p5_free(n, seed, "perturb-filter")]
    for seed in range(8):
        for n, ell in ((12, 2), (30, 2), (20, 3)):
            graphs.append(gen_class_free(n, seed, [("path", 5), ("biclique", ell, ell)]))
    for g in graphs:
        assert find_induced_path(g, 5) is None
        assert not _has_induced_path(g.adjacency_bits(), 5, (1 << g.n) - 1)
        assert _reference_path(g, 5) is None


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def test_union_join_1500_is_certified_by_the_split_alone(default_recursion_limit, monkeypatch):
    # a cograph splits down to pieces of fewer than five vertices, so
    # neither the DFS nor the centre kernel ever runs
    def searched(*args):
        raise AssertionError("a cograph piece reached a path search")

    monkeypatch.setattr(oracles, "_induced_path_within", searched)
    monkeypatch.setattr(oracles, "_centred_p5", searched)
    g = gen_p5_free(1500, 0, "union-join")
    assert g.n == 1500


# -- the through kernel -----------------------------------------------------------


def test_path_through_matches_the_dfs_on_every_ordered_pair():
    rng = random.Random(1602)
    for _ in range(1000):
        n = rng.randint(2, 13)
        g = random_graph(n, rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]), rng)
        bits = list(g.adjacency_bits())
        for u in range(n):
            for v in range(n):
                got = path_through(bits, 5, u, v)
                want = _reference_through(bits, 5, u, v)
                assert (got is None) == (want is None), (g.edges(), u, v)
                if got is not None:
                    assert verify_witness(g, got) and got.size() == 5
                    assert {u, v} <= set(got.parts[0])


GENERATE_GROUP = (
    (4, 2), (13, 2), (22, 2), (31, 2), (40, 2),
    (6, 3), (12, 3), (16, 3), (18, 3), (20, 3),
)

# taken with the depth-first searches, before the kernels
GENERATED_DIGESTS = {
    0: "f06432a932027080564e674ad0a2e079e15193aed7255894c33b42c3599f2d3f",
    1: "1519f68c19749c11687bfabd68a03713c9da9bd318b5eda85057fe32bd5df375",
    2: "0f31261de96328ec3fbdb8cfa40348e6179aa3fdfe0caa3eb10a5d522d2b59da",
}


@pytest.mark.parametrize("seed", sorted(GENERATED_DIGESTS))
def test_generated_graphs_are_unchanged(seed):
    h = hashlib.sha256()
    for n, ell in GENERATE_GROUP:
        g = gen_class_free(n, seed, [("path", 5), ("biclique", ell, ell)])
        h.update(serialize_graph(g).encode())
    for n in (10, 25, 40, 60):
        for method in ("union-join", "perturb-filter"):
            h.update(serialize_graph(gen_p5_free(n, seed, method)).encode())
    assert h.hexdigest() == GENERATED_DIGESTS[seed]
