"""Every function the benchmark's tracer wraps still exists where it looks.

``bench/run.py --trace 1`` wraps each ``(module, attribute)`` of
``tracer.TARGETS``; a method is looked up as ``cls.__dict__[name]``, so a
renamed or deleted target, or a method moved to a base class, crashes the
traced benchmark.  The tracer is only imported here, never installed.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.TARGETS
    for module, attr, _ in tracer.TARGETS:
        home = importlib.import_module(f"treealpha.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(home, cls_name)), f"{module}.{attr}"
        else:
            assert callable(getattr(home, attr, None)), f"{module}.{attr}"
