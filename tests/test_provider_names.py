"""Separator provider names are checked when they are resolved.

``pt-free:T`` needs a decimal integer T >= 2; anything else is a
``ValueError`` naming the string, raised by ``get_separator_provider`` before
any graph is seen.  Unknown registry names stay a ``KeyError``.
"""

import pytest

from treealpha.separators import SeparatorCertificate, get_separator_provider

from conftest import cycle


@pytest.mark.parametrize(
    "name", ["pt-free:x", "pt-free:", "pt-free:1", "pt-free:0", "pt-free:-3", "pt-free:2.5",
             "pt-free:²"]
)
def test_bad_pt_free_names_fail_at_resolution(name):
    with pytest.raises(ValueError) as err:
        get_separator_provider(name)
    assert repr(name) in str(err.value) and "t >= 2" in str(err.value)


@pytest.mark.parametrize("t", [2, 3, 5, 12])
def test_good_pt_free_names_resolve(t):
    cert = get_separator_provider(f"pt-free:{t}")(cycle(3))
    assert isinstance(cert, SeparatorCertificate)


def test_unknown_names_stay_key_errors():
    for name in ("walls:3", "pt-free", "PT-FREE:5"):
        with pytest.raises(KeyError):
            get_separator_provider(name)
