"""Guard: every name the benchmark's per-layer run traces still exists.

``benchmarks/tracing.py`` patches each ``(module, attribute)`` of its
``TRACED`` table on the ``paal`` package by name, so a rename or move in
``src/`` would otherwise surface only when the traced benchmark runs.
"""

import importlib.util
import pathlib

import paal
import paal.cli  # noqa: F401  (loads every module the tracer patches)

TRACING = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def traced_table():
    spec = importlib.util.spec_from_file_location("paal_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves_on_the_package():
    missing = []
    for path, attr, span in traced_table():
        owner = paal
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{path}.{attr} ({span})")
    assert missing == []
