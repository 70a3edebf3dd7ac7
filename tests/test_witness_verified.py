"""Every raise site that hands out a witness verifies it first.

The engine's up-front P5 check (in ``decompose`` and in ``approximate_tia``)
and ``dbs_low_alpha_vertex``'s K_{2,ell} diagnostic raise
``ForbiddenStructureFound`` only with a witness that ``verify_witness``
accepts.  With ``verify_witness`` patched to reject everything, the engine
sites raise ``DecompositionError`` and the diagnostic raises ``RuntimeError``
instead of handing out an unverified witness.
"""

import pytest

from treealpha import decomposer, separators
from treealpha.decomposer import DecompositionError, approximate_tia, decompose
from treealpha.oracles import ForbiddenStructureFound, verify_witness
from treealpha.separators import dbs_low_alpha_vertex, get_separator_provider

from conftest import complete_bipartite, path_graph


def _reject_all(g, w):
    return False


def test_up_front_p5_check_raises_a_verified_path():
    g = path_graph(6)
    for run in (lambda: decompose(g, 2), lambda: approximate_tia(g)):
        with pytest.raises(ForbiddenStructureFound, match="input contains an induced P5") as err:
            run()
        assert err.value.witness.kind == "path" and verify_witness(g, err.value.witness)


def test_up_front_p5_check_refuses_an_unverified_path(monkeypatch):
    monkeypatch.setattr(decomposer, "verify_witness", _reject_all)
    g = path_graph(5)
    with pytest.raises(DecompositionError, match="failed verification"):
        decompose(g, 2)
    with pytest.raises(DecompositionError, match="failed verification"):
        approximate_tia(g)
    # the check is skipped on request, so nothing is verified or raised
    assert decompose(g, 2, check_p5=False) is not None


def test_separator_diagnostic_refuses_an_unverified_biclique(monkeypatch):
    prov = get_separator_provider("pt-free:5")
    g = complete_bipartite(2, 64)
    with pytest.raises(ForbiddenStructureFound):
        dbs_low_alpha_vertex(g, 2, 4, prov)
    monkeypatch.setattr(separators, "verify_witness", _reject_all)
    with pytest.raises(RuntimeError, match="biclique diagnostic failed verification") as err:
        dbs_low_alpha_vertex(g, 2, 4, prov)
    assert not isinstance(err.value, ForbiddenStructureFound)
