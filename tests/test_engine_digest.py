"""The engine's output bytes, pinned by one hash.

Over a seeded mix of P5-free graphs from both generators (n = 10..60) this
hashes what ``approximate_tia`` returns and logs (k*, ell*, the serialized
decomposition, the per-root log entries) and what ``decompose`` returns at
ell = 2 and 3 (a serialized decomposition or a witness record).  A refactor
that keeps outputs, logs and tie-breaking keeps the hash.
"""

import hashlib
import json

from treealpha.decomposer import approximate_tia, decompose
from treealpha.harness import gen_p5_free
from treealpha.treedecomp import TreeDecomposition, serialize_td

DIGEST = "7f905126ff0b6f682b3511407e3140c28bc4e028f203959d4ff632479a12021c"


def _outcome(got) -> str:
    if isinstance(got, TreeDecomposition):
        return serialize_td(got)
    return json.dumps(got.to_record())


def test_engine_outputs_and_logs_match_the_pinned_digest():
    h = hashlib.sha256()
    for i in range(40):
        method = ("union-join", "perturb-filter")[i % 2]
        g = gen_p5_free(10 + (i * 17) % 51, i, method)
        log: list = []
        k_star, td, ell_star = approximate_tia(g, log=log)
        h.update(f"{k_star} {ell_star}\n{serialize_td(td)}{json.dumps(log)}\n".encode())
        for ell in (2, 3):
            h.update(_outcome(decompose(g, ell)).encode() + b"\n")
    assert h.hexdigest() == DIGEST
