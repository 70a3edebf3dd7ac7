"""Per-function spans around the library's public functions.

The library binds names across modules with ``from .x import y``, so a
wrapper replaces the function in every ``treealpha`` namespace that holds
it, not only in its home module.  Constructors and methods are wrapped on
their class.  Spans are aggregated in memory (calls, self time, and for a
few functions a count of useful outcomes) and read out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path, outcome) -- an outcome marks a call as useful.
TARGETS = (
    ("graph", "Graph.__init__", None),
    ("graph", "components", None),
    ("graph", "induced_subgraph", None),
    ("oracles", "max_independent_set", None),
    ("oracles", "max_independent_subset", None),
    ("oracles", "alpha_of_subset", None),
    ("oracles", "find_induced_complete_bipartite", None),
    ("oracles", "find_induced_path", None),
    ("oracles", "verify_witness", None),
    ("degeneracy", "low_alpha_vertex", None),
    ("degeneracy", "alpha_degeneracy", None),
    ("treedecomp", "TreeDecomposition.__init__", None),
    ("treedecomp", "TreeDecomposition.relabel_vertices", None),
    ("treedecomp", "TreeDecomposition.path_between_subtrees", None),
    ("treedecomp", "compress", None),
    ("treedecomp", "validate", None),
    ("treedecomp", "td_alpha", None),
    ("treedecomp", "cobagged_pairs", None),
    ("treedecomp", "find_bag_containing_set", None),
    ("decomposer", "approximate_tia", None),
    ("decomposer", "decompose", "is_decomposition"),
    ("decomposer", "saturate_root", None),
    ("decomposer", "select_pair", None),
    ("decomposer", "build_pair_context", None),
    ("decomposer", "transform_plain_pair", None),
    ("decomposer", "transform_bad_pair", None),
    ("harness", "exact_tia", None),
    ("harness", "audit_sandwich", None),
    ("harness", "induced_biclique_number", None),
    ("harness", "gen_class_free", None),
    ("harness", "pattern_absent", "is_true"),
)

RATIOS = {
    "decomposer.decompose": "useful_ratio",
    "harness.pattern_absent": "true_ratio",
}

MODULES = ("graph", "oracles", "degeneracy", "treedecomp", "decomposer", "harness")


def span_name(module: str, attr: str) -> str:
    """Metric prefix: a constructor is named after its class."""
    return f"{module}.{attr.removesuffix('.__init__')}"


def metric_names() -> list[str]:
    names: list[str] = []
    for module, attr, _ in TARGETS:
        prefix = span_name(module, attr)
        names += [f"{prefix}.calls", f"{prefix}.self_s"]
    names += [f"{prefix}.{ratio}" for prefix, ratio in RATIOS.items()]
    names += [f"{module}.self_s" for module in MODULES]
    return names


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    return "s" if name.endswith("_s") else "ratio"


class Tracer:
    """Installs wrappers on the loaded ``treealpha`` modules; not reentrant."""

    def __init__(self, package: str = "treealpha"):
        self.package = package
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds, useful]
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        return [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == self.package or key.startswith(self.package + ".")
        ]

    def _wrap(self, fn, stat: list, outcome):
        stack, clock = self._stack, time.perf_counter
        lib = sys.modules[self.package]
        td_class = lib.TreeDecomposition

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if outcome == "is_true" and result is True:
                    stat[2] += 1
                elif outcome == "is_decomposition" and isinstance(result, td_class):
                    stat[2] += 1
                return result
            finally:
                spent = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += spent - frame[0]
                if stack:
                    stack[-1][0] += spent

        return wrapper

    def install(self) -> None:
        modules = self._modules()
        for module, attr, outcome in TARGETS:
            home = sys.modules[f"{self.package}.{module}"]
            stat = self.stats.setdefault(span_name(module, attr), [0, 0.0, 0])
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, stat, outcome))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, stat, outcome)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric by name; see :func:`unit_of` for units."""
        out: dict[str, float] = {}
        per_module = dict.fromkeys(MODULES, 0.0)
        for module, attr, _ in TARGETS:
            prefix = span_name(module, attr)
            calls, self_s, useful = self.stats.get(prefix, (0, 0.0, 0))
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.self_s"] = self_s
            per_module[module] += self_s
            if prefix in RATIOS:
                out[f"{prefix}.{RATIOS[prefix]}"] = useful / calls if calls else 0.0
        for module, total in per_module.items():
            out[f"{module}.self_s"] = total
        return {name: out[name] for name in metric_names()}
