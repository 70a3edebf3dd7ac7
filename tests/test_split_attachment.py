"""The bad-pair surgery's split-attachment path, reached through the engine.

``transform_bad_pair`` pulls an outside vertex into the master tree
(``_forced_nodes``) when its attachments fit no single master bag, and
anchors a component whose attachments fit no bag (``_split_anchor``).  Small
inputs never get there; this perturb-filter graph with n = 80 does, twice
each, so the path stays covered by an engine run and not only by hand-built
trees.
"""

import treealpha.decomposer as dec
from treealpha.decomposer import approximate_tia
from treealpha.harness import audit_sandwich, gen_p5_free


def test_perturb_filter_80_reaches_both_split_helpers(monkeypatch):
    g = gen_p5_free(80, 3, "perturb-filter")
    calls = {"transform_bad_pair": 0, "_forced_nodes": 0, "_split_anchor": 0}

    def counted(name):
        fn = getattr(dec, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(dec, name, counted(name))
    log: list = []
    k_star, td, ell_star = approximate_tia(g, log=log)
    assert (k_star, ell_star) == (7, 4)
    assert calls == {"transform_bad_pair": 10, "_forced_nodes": 2, "_split_anchor": 2}
    assert sum(pair[2] for entry in log for pair in entry["pairs"]) == 10


def test_perturb_filter_80_passes_the_audit():
    record = audit_sandwich(gen_p5_free(80, 3, "perturb-filter"))
    assert (record.outcome, record.value, record.ell) == ("decomposition", 7, 4)
