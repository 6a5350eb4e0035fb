"""In-process span tracer for the per-layer benchmark run.

The tracer wraps public paal functions at the names their callers look
them up under (``paal.orchestrator.select`` rather than
``paal.strategies.select``, because the orchestrator imported the name),
records one span per call -- name, start, end, parent span, and a few
attributes such as the conv shape -- and keeps the spans in memory until
the run ends. :func:`layer_metrics` derives busy and self time, counts and
ratios from the spans.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); Conv2D is patched on the class, the CLI
# names are where `paal run` / `paal report` look them up.
TRACED = (
    ("orchestrator", "train_epoch", "orchestrator.train_epoch"),
    ("orchestrator", "evaluate", "orchestrator.evaluate"),
    ("orchestrator", "query_step", "orchestrator.query_step"),
    ("orchestrator", "select", "strategies.select"),
    ("orchestrator", "dice_ce_loss", "metrics.dice_ce"),
    ("orchestrator", "adamw_step", "nn.adamw"),
    ("orchestrator", "dsc_per_class_batch", "metrics.dsc_batch"),
    ("orchestrator", "seg_forward", "models.seg_forward"),
    ("orchestrator", "ap_forward", "models.ap_forward"),
    ("strategies", "kmeans_fit", "kmeans.fit"),
    ("strategies", "coreset_select", "strategies.coreset"),
    ("strategies", "weighted_polling", "strategies.polling"),
    ("strategies", "uncertainty_scores", "metrics.uncertainty"),
    ("nn.Conv2D", "forward", "nn.conv_fwd"),
    ("nn.Conv2D", "backward", "nn.conv_bwd"),
    ("experiment", "run_cell", "experiment.run_cell"),
    ("cli", "run_campaign", "experiment.run_campaign"),
    ("cli", "write_report", "experiment.write_report"),
    ("data", "generate", "data.generate"),
    ("data", "read_dataset", "data.read_dataset"),
)

# conv shapes the two nets use (seg: 1->8->16->4, AP: 5->8) and the batch
# sizes of full training (16) and evaluation/pool-inference (32) batches
CONV_SHAPES = ((1, 8), (8, 16), (16, 4), (5, 8))
TRAIN_BATCH = 16
EVAL_BATCH = 32
QUERY_INPUTS = ("probs", "features", "pred_acc", "labeled_features")


def _conv_attrs(args, kwargs, out):
    layer, x = args[0], args[1]
    b, _, h, w = x.shape
    return (layer.in_ch, layer.out_ch, layer.kernel, b, h, w)


def _select_attrs(args, kwargs, out):
    strategy, ctx = args[0], args[1]
    return (strategy, any(getattr(ctx, f) is not None for f in QUERY_INPUTS))


def _kmeans_attrs(args, kwargs, out):
    return len(out.inertia_history) - 1


def _seg_forward_attrs(args, kwargs, out):
    return len(args[1])


ATTRS = {
    "nn.conv_fwd": _conv_attrs,
    "nn.conv_bwd": _conv_attrs,
    "strategies.select": _select_attrs,
    "kmeans.fit": _kmeans_attrs,
    "models.seg_forward": _seg_forward_attrs,
}


class Tracer:
    """Span recorder; single-threaded, so the open spans form one stack."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        attrs_fn = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs_fn is not None:
                span[4] = attrs_fn(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def install(self, paal) -> None:
        for path, attr, name in TRACED:
            owner = paal
            for part in path.split("."):
                owner = getattr(owner, part)
            self.wrap(owner, attr, name)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)


def _conv_flops(attrs, backward: bool) -> float:
    cin, cout, k, b, h, w = attrs
    fwd = 2.0 * b * h * w * cin * cout * k * k
    return 2.0 * fwd if backward else fwd  # weight grad + input grad


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers from one traced campaign (plus its report)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    total: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        total[s[0]] += dur[i]
        self_t[s[0]] += dur[i] - child[i]

    def under(i: int, name: str) -> int:
        """Index of the nearest ancestor span called ``name``, or -1."""
        i = spans[i][3]
        while i >= 0 and spans[i][0] != name:
            i = spans[i][3]
        return i

    m: dict[str, float] = {}
    per_call: dict[tuple, list[float]] = defaultdict(list)
    flops = 0.0
    for i, s in enumerate(spans):
        if s[0] in ("nn.conv_fwd", "nn.conv_bwd"):
            bwd = s[0] == "nn.conv_bwd"
            cin, cout, _, b, _, _ = s[4]
            per_call[(bwd, cin, cout, b)].append(dur[i])
            flops += _conv_flops(s[4], bwd)
    for cin, cout in CONV_SHAPES:
        for b in (TRAIN_BATCH, EVAL_BATCH):
            calls = per_call[(False, cin, cout, b)]
            m[f"nn.conv_fwd_ms.{cin}-{cout}.b{b}"] = (
                1e3 * statistics.median(calls) if calls else 0.0)
        calls = per_call[(True, cin, cout, TRAIN_BATCH)]
        m[f"nn.conv_bwd_ms.{cin}-{cout}.b{TRAIN_BATCH}"] = (
            1e3 * statistics.median(calls) if calls else 0.0)
    conv_busy = total["nn.conv_fwd"] + total["nn.conv_bwd"]
    m["nn.conv_ms"] = 1e3 * conv_busy
    m["nn.conv_calls"] = sum(len(v) for v in per_call.values())
    m["nn.conv_gflops"] = flops / conv_busy / 1e9 if conv_busy else 0.0
    m["nn.adamw_ms"] = 1e3 * total["nn.adamw"]
    m["metrics.dice_ce_ms"] = 1e3 * total["metrics.dice_ce"]
    m["metrics.dsc_batch_ms"] = 1e3 * total["metrics.dsc_batch"]
    m["metrics.uncertainty_ms"] = 1e3 * total["metrics.uncertainty"]

    for stage in ("train_epoch", "evaluate"):
        m[f"orchestrator.{stage}_ms"] = 1e3 * total[f"orchestrator.{stage}"]
        m[f"orchestrator.{stage}_self_ms"] = 1e3 * self_t[f"orchestrator.{stage}"]
    m["orchestrator.epochs"] = sum(1 for s in spans
                                   if s[0] == "orchestrator.train_epoch")
    m["orchestrator.query_step_ms"] = 1e3 * total["orchestrator.query_step"]
    m["models.seg_forward_ms"] = 1e3 * total["models.seg_forward"]
    m["models.ap_forward_ms"] = 1e3 * total["models.ap_forward"]

    # images inferred inside query_step, and the share whose select call
    # was handed at least one model output (the rest is discarded work)
    useful_query = set()
    select_ms: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s[0] == "strategies.select":
            strategy, useful = s[4]
            key = strategy if strategy in ("random", "paal_full") else "other"
            select_ms[key] += 1e3 * dur[i]
            if useful:
                useful_query.add(under(i, "orchestrator.query_step"))
    pool = useful = 0
    for i, s in enumerate(spans):
        if s[0] == "models.seg_forward":
            q = under(i, "orchestrator.query_step")
            if q >= 0:
                pool += s[4]
                useful += s[4] if q in useful_query else 0
    m["orchestrator.pool_images"] = pool
    m["orchestrator.pool_useful_ratio"] = useful / pool if pool else 0.0

    for key in ("random", "paal_full", "other"):
        m[f"strategies.select_ms.{key}"] = select_ms[key]
    m["strategies.polling_ms"] = 1e3 * total["strategies.polling"]
    m["kmeans.fit_ms"] = 1e3 * total["kmeans.fit"]
    m["kmeans.iters"] = sum(s[4] for s in spans if s[0] == "kmeans.fit")

    m["experiment.run_cell_s"] = total["experiment.run_cell"]
    m["experiment.merge_ms"] = 1e3 * (total["experiment.run_campaign"]
                                      - total["experiment.run_cell"])
    m["experiment.report_ms"] = 1e3 * total["experiment.write_report"]
    m["data.generate_s"] = total["data.generate"]
    m["data.read_ms"] = 1e3 * total["data.read_dataset"]
    return m

