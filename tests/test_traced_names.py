"""Guard: every name the benchmark's per-layer run traces still exists.

``benchmarks/tracing.py`` patches each ``(module, attribute)`` of its
``TRACED`` table on the ``paal`` package by name, so a rename or move in
``src/`` would otherwise surface only when the traced benchmark runs. A
patch reaches only the calls that look the name up when they run, so
``strategies`` may only call its traced names directly, from no more sites
than the benchmark's per-layer figures were measured with. The tracer
also reads ``QueryContext`` fields and keys conv metrics by the nets'
conv shapes, so those names and shapes are pinned here too, and a
training batch must still reach the traced conv entry points.
"""

import ast
import collections
import dataclasses
import functools
import importlib.util
import pathlib

import numpy as np

import paal
import paal.cli  # noqa: F401  (loads every module the tracer patches)
from paal import orchestrator
from paal.data import generate
from paal.models import build_ap_model, build_seg_model
from paal.nn import Conv2D
from paal.strategies import QueryContext

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "benchmarks" / "tracing.py"
STRATEGIES_SOURCE = ROOT / "src" / "paal" / "strategies.py"

# call sites of each traced name in strategies.py; a new site changes what
# the name's per-layer figure times
STRATEGIES_CALL_SITES = {"kmeans_fit": 2, "uncertainty_scores": 2,
                         "coreset_select": 1, "weighted_polling": 1}


@functools.cache
def tracing():
    spec = importlib.util.spec_from_file_location("paal_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_the_package():
    missing = []
    for path, attr, span in tracing().TRACED:
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
    names = {attr for path, attr, _ in tracing().TRACED if path == "strategies"}
    assert names == set(STRATEGIES_CALL_SITES)
    calls, values = traced_name_uses(STRATEGIES_SOURCE.read_text(), names)
    assert values == []
    assert {n: c for n, c in calls.items() if c > STRATEGIES_CALL_SITES[n]} == {}


def test_every_traced_query_input_is_a_query_context_field():
    fields = {field.name for field in dataclasses.fields(QueryContext)}
    assert set(tracing().QUERY_INPUTS) <= fields


def test_the_nets_conv_shapes_are_the_traced_ones():
    # the benchmark's datasets have 3 foreground classes, so 4 channels
    nets = (build_seg_model(4, seed=0), build_ap_model(4, seed=0))
    shapes = tuple((layer.in_ch, layer.out_ch) for net in nets
                   for layer in net.layers if isinstance(layer, Conv2D))
    assert shapes == tracing().CONV_SHAPES


def test_a_training_batch_runs_each_conv_through_the_traced_entry_points():
    # inference chains its convs on padded buffers past Conv2D.forward, so
    # training alone feeds the traced per-layer conv figures: one forward
    # and one backward per conv of each net, each keyed by a (B, C, H, W)
    # input as the tracer reads it
    trace = tracing()
    batch = trace.TRAIN_BATCH
    data = generate(3, batch, 16, 16)
    cfg = orchestrator.TrainConfig(batch_size=batch, silent_period=0)
    seg, ap = build_seg_model(4, seed=0), build_ap_model(4, seed=0)
    tracer = trace.Tracer()
    tracer.install(paal)
    try:
        orchestrator.train_epoch(seg, ap, data, np.arange(batch), 0, cfg,
                                 np.random.default_rng(0))
    finally:
        tracer.uninstall()
    want = sorted((cin, cout, 3, batch, 16, 16) for cin, cout in trace.CONV_SHAPES)
    for name in ("nn.conv_fwd", "nn.conv_bwd"):
        assert sorted(s[4] for s in tracer.spans if s[0] == name) == want
    metrics = trace.layer_metrics(tracer.spans)
    for cin, cout in trace.CONV_SHAPES:
        for kind in ("fwd", "bwd"):
            assert metrics[f"nn.conv_{kind}_ms.{cin}-{cout}.b{batch}"] > 0
