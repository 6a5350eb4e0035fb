"""Guard: every name the benchmark's per-layer run traces still exists.

``benchmarks/tracing.py`` patches each ``(module, attribute)`` of its
``TRACED`` table on the ``paal`` package by name, so a rename or move in
``src/`` would otherwise surface only when the traced benchmark runs. A
patch reaches only the calls that look the name up when they run, so
``strategies`` may only call its traced names directly, from no more sites
than the benchmark's per-layer figures were measured with.
"""

import ast
import collections
import importlib.util
import pathlib

import paal
import paal.cli  # noqa: F401  (loads every module the tracer patches)

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "benchmarks" / "tracing.py"
STRATEGIES_SOURCE = ROOT / "src" / "paal" / "strategies.py"

# call sites of each traced name in strategies.py; a new site changes what
# the name's per-layer figure times
STRATEGIES_CALL_SITES = {"kmeans_fit": 2, "uncertainty_scores": 2,
                         "coreset_select": 1, "weighted_polling": 1}


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


def traced_name_uses(source: str, names) -> tuple[collections.Counter, list[str]]:
    """Direct calls of each name, and every other load of one (a value the
    tracer's patch would not reach, such as ``partial(coreset_select, ...)``)."""
    tree = ast.parse(source)
    callees = {id(node.func) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    calls, values = collections.Counter(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            if id(node) in callees:
                calls[node.id] += 1
            else:
                values.append(f"line {node.lineno}: {node.id}")
    return calls, values


def test_strategies_call_traced_names_only_directly_and_no_more_often():
    names = {attr for path, attr, _ in traced_table() if path == "strategies"}
    assert names == set(STRATEGIES_CALL_SITES)
    calls, values = traced_name_uses(STRATEGIES_SOURCE.read_text(), names)
    assert values == []
    assert {n: c for n, c in calls.items() if c > STRATEGIES_CALL_SITES[n]} == {}
