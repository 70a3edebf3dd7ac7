"""Every name a library module imports from a sibling module is read there.

A refactor that stops calling ``closed_neighborhood`` in ``degeneracy``, say,
must drop the import too.  ``__init__`` re-exports by design and is skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treealpha"

# (module, name) imported without a read in the module, each with its reason
ALLOWED = {
    # bench/selftest.py reads alpha_of_subset through the decomposer module
    ("decomposer", "alpha_of_subset"),
}


def unread_sibling_imports(module: str) -> set[str]:
    """Names bound by ``from .x import y`` in ``module`` that it never reads."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_no_module_imports_a_sibling_name_it_never_reads():
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert "degeneracy" in modules and "graph" in modules
    unread = {
        (module, name) for module in modules for name in unread_sibling_imports(module)
    }
    assert unread - ALLOWED == set()


def test_the_allow_list_is_still_needed():
    for module, name in ALLOWED:
        assert name in unread_sibling_imports(module)
