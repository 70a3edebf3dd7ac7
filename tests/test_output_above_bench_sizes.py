"""One engine output above the bench's sizes, pinned byte for byte.

``tests/test_engine_digest.py`` covers n = 10..60; the bench stops at
n = 120.  This pins ``approximate_tia`` on the union-join graph with n = 200,
seed 0 (k* = 20, ell* = 11, a connected graph whose time is almost all in
the saturation round): the sha256 of the serialized decomposition and of the
per-root log.
"""

import hashlib
import json

from treealpha.decomposer import approximate_tia
from treealpha.harness import gen_p5_free
from treealpha.treedecomp import serialize_td

TREE = "c4299ce15df1d6f757026105345d61133bdb31d7922c9a1482bfdc05a390d085"
LOG = "132c78425e19c407c9101ce8fe4e8b90675e56167a9cf8e68c43303cd76ea8ce"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_union_join_200_output_and_log_are_pinned():
    log: list = []
    k_star, td, ell_star = approximate_tia(gen_p5_free(200, 0, "union-join"), log=log)
    assert (k_star, ell_star) == (20, 11)
    assert _sha256(serialize_td(td)) == TREE
    assert _sha256(json.dumps(log)) == LOG
