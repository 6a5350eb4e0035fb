"""The incremental active-learning training loop.

One run owns a segmentation model, an accuracy predictor and the pool
bookkeeping. Every epoch trains both models on the labeled set (the
predictor only after an initial silent period), evaluates on the validation
split, and then decides whether to query: strategies whose table entry sets
``on_stall`` fire once validation DSC has failed to improve for
``iq_patience`` consecutive epochs, the rest fire on a fixed epoch grid.
Queried ids get their ground-truth masks (the stand-in for a human
annotator) and move from the unlabeled pool to the labeled set. Inference
over the validation split, the pool or the labeled set runs in chunks of
``EVAL_PIXELS`` pixels and only through the layers its outputs read; no
output depends on the chunk size. Everything is deterministic given the run
seed.

A run returns its CSV rows (``RunReport``): per epoch, per queried sample,
and the predictor's calibration on the final pool, each in the column order
named beside it; the campaign puts the cell's own columns in front.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .data import Dataset
from .metrics import dice_ce_loss, dsc_per_class_batch, mse_loss
from .models import (ap_forward, build_ap_model, build_seg_model,
                     channel_argmax, normalize_images, seg_forward, softmax)
from .nn import Network, adamw_step, cosine_lr
from .strategies import STRATEGIES, QueryContext, select

_POOL_OUTPUTS = ("probs", "features", "pred_acc", "actual")

# pixels per forward pass when nothing trains: seg+AP inference cost per
# pixel was lowest near 8K pixels per chunk at 16x16, 32x32 and 64x64 alike.
# With the per-image logits conv, a 452-image 32x32 pool pass (posteriors
# and features; medians of 3 runs of 15-25 interleaved repeats, 2-core
# Xeon) took 124-136 ms at 4K pixels, 108-127 ms at 8K and 111-134 ms at
# 16K, with tracemalloc peaks of 9.5, 11.5 and 15.5 MB
EVAL_PIXELS = 8192


@dataclass
class TrainConfig:
    """The settings of one run. Every field but ``seed``, which a campaign
    sets per cell, is a training key of the campaign config under the same
    name, parsed with the type of its default."""
    max_epochs: int = 120
    early_stop: int = 15
    silent_period: int = 5
    iq_patience: int = 10
    query_interval: int = 5
    batch_size: int = 16
    lr0: float = 1e-3
    lr_min: float = 1e-6
    warmup: int = 10
    weight_decay: float = 1e-4
    init_ratio: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if min(self.warmup, self.silent_period, self.early_stop,
               self.iq_patience) < 0:
            raise ValueError("warmup, silent_period, early_stop and "
                             "iq_patience must be >= 0")
        if not 0.0 < self.init_ratio < 1.0:
            raise ValueError("init_ratio must be in (0, 1)")
        if self.warmup >= self.max_epochs:
            raise ValueError("warmup must be smaller than max_epochs")
        if self.silent_period >= self.max_epochs:
            raise ValueError("silent_period must be smaller than max_epochs")
        if self.batch_size < 1 or self.query_interval < 1:
            raise ValueError("batch_size and query_interval must be >= 1")
        if not all(map(math.isfinite, (self.lr0, self.lr_min, self.weight_decay))):
            raise ValueError("lr0, lr_min and weight_decay must be finite")
        if not (0.0 <= self.lr_min <= self.lr0 and self.lr0 > 0.0
                and self.weight_decay >= 0.0):
            raise ValueError("need lr0 > 0, 0 <= lr_min <= lr0 and weight_decay >= 0")


@dataclass
class PoolState:
    labeled: np.ndarray
    unlabeled: np.ndarray
    schedule: tuple[int, ...]  # query t labels schedule[t - 1] samples
    t: int = 1
    iq_counter: int = 0
    best_val_dsc: float = float("-inf")

    @property
    def can_query(self) -> bool:
        return self.t <= len(self.schedule)

    def assert_partition(self, all_train_ids: np.ndarray):
        both = np.intersect1d(self.labeled, self.unlabeled)
        if both.size:
            raise AssertionError(f"labeled/unlabeled overlap: {both[:5]}")
        union = np.union1d(self.labeled, self.unlabeled)
        if not np.array_equal(union, np.sort(all_train_ids)):
            raise AssertionError("labeled+unlabeled do not partition the train ids")


EPOCH_COLUMNS = ("epoch", "iteration", "labeled_count", "labeled_ratio",
                 "seg_loss", "ap_loss", "val_dsc_mean")
QUERY_COLUMNS = ("iteration", "sample_id", "cluster", "weight", "query_time_ms")
CALIBRATION_COLUMNS = ("sample_id", "class", "predicted_dsc", "actual_dsc")


@dataclass
class RunReport:
    """One run's CSV rows in the ``*_COLUMNS`` order (epoch rows end with one
    DSC per foreground class); ``None`` is written as an empty cell."""
    epochs: list[list] = field(default_factory=list)
    queries: list[list] = field(default_factory=list)
    calibration: list[list] = field(default_factory=list)


def _subseed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def init_pool(train_ids: np.ndarray, init_ratio: float, budget: float,
              iterations: int, seed) -> PoolState:
    """Seeded initial labeled/unlabeled split plus every query's size.

    Both ratios count from their decimal value (0.07 of 100 is 7). The
    budget splits into ``iterations`` equal queries, or one-label queries
    when it is smaller, and the remainder goes unspent. It fits in the
    pool, so no query finds the pool short.
    """
    train_ids = np.asarray(train_ids, dtype=np.int64)
    n = len(train_ids)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    m = math.ceil(Fraction(str(init_ratio)) * n)
    count = int(Fraction(str(budget)) * n)
    if count < 0 or count > n - m:
        raise ValueError(f"budget {count} exceeds pool of {n - m} unlabeled samples")
    batch = count // iterations
    schedule = (batch,) * iterations if batch else (1,) * count
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=m, replace=False)
    labeled = np.sort(train_ids[picks])
    unlabeled = np.setdiff1d(train_ids, labeled)
    return PoolState(labeled, unlabeled, schedule)


def iq_update(state: PoolState, val_dsc: float) -> None:
    """Reset the no-improvement counter on a strictly better validation DSC."""
    if val_dsc > state.best_val_dsc:
        state.best_val_dsc = val_dsc
        state.iq_counter = 0
    else:
        state.iq_counter += 1


def train_epoch(seg: Network, ap: Network, dataset: Dataset,
                labeled_ids: np.ndarray, epoch: int, cfg: TrainConfig,
                shuffle_rng: np.random.Generator) -> tuple[float, float | None]:
    """One pass over the labeled set in shuffled mini-batches, at the
    epoch's cosine learning rate.

    The segmentation model always trains; the accuracy predictor joins in
    after the silent period, regressing the per-class DSC of the *current*
    segmentation output, with the posteriors treated as constants. Each
    batch's u8 images are normalised as it is read.
    """
    lr = cosine_lr(epoch, cfg.max_epochs, cfg.warmup, cfg.lr0, cfg.lr_min)
    order = labeled_ids[shuffle_rng.permutation(len(labeled_ids))]
    train_ap = epoch >= cfg.silent_period
    seg_total = 0.0
    ap_total = 0.0
    count = 0
    for lo in range(0, len(order), cfg.batch_size):
        batch = order[lo:lo + cfg.batch_size]
        x = normalize_images(dataset.images[batch])
        y = dataset.masks[batch]

        probs = softmax(seg.forward(x, train=True))
        loss, glogits = dice_ce_loss(probs, y)
        seg.zero_grad()
        seg.backward(glogits, input_grad=False)
        adamw_step(seg.params(), lr, weight_decay=cfg.weight_decay)
        seg_total += loss * len(batch)
        count += len(batch)

        if train_ap:
            targets = dsc_per_class_batch(channel_argmax(probs), y, dataset.num_fg)
            pred = ap.forward(np.concatenate([x, probs], axis=1), train=True)
            ap_loss, gpred = mse_loss(pred, targets.astype(np.float32))
            ap.zero_grad()
            ap.backward(gpred, input_grad=False)
            adamw_step(ap.params(), lr, weight_decay=cfg.weight_decay)
            ap_total += ap_loss * len(batch)
    return seg_total / count, (ap_total / count) if train_ap else None


def evaluate(seg: Network, dataset: Dataset,
             val_ids: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean foreground DSC on the validation set (classes averaged, then samples)."""
    if len(val_ids) == 0:
        raise ValueError("validation set is empty")
    dsc = _pool_inference(seg, None, dataset, val_ids, ("actual",))["actual"]
    return float(dsc.mean(axis=1).mean()), dsc.mean(axis=0)


def _pool_inference(seg: Network, ap: Network | None, dataset: Dataset, ids,
                    wanted) -> dict[str, np.ndarray]:
    """Model outputs over a set of ids, in chunks (never trains anything).

    Returns one (len(ids), ...) array for each name in ``wanted`` that is
    one of ``_POOL_OUTPUTS``: the posteriors, pooled features, AP-predicted
    per-class DSC, and actual per-class DSC against the ground truth. Other
    names are ignored; with none wanted, no model runs.

    Only the layers the wanted outputs read run: features alone stop before
    the logits conv, and features are pooled only when wanted. A chunk is
    ``EVAL_PIXELS`` pixels' worth of the u8 images (at least one),
    normalised as it is read, and its outputs go straight into arrays sized
    for every id, so no output exists twice. Chunking splits only the column
    axis of each conv's matmul, so every output is bit-identical whatever
    the chunk size.
    """
    names = [name for name in _POOL_OUTPUTS if name in wanted]
    need_probs = bool(set(names) - {"features"})  # the rest read the posteriors
    outputs: dict[str, np.ndarray] = {}
    step = max(1, EVAL_PIXELS // math.prod(dataset.images.shape[1:]))
    for lo in range(0, len(ids) if names else 0, step):
        chunk = ids[lo:lo + step]
        x = normalize_images(dataset.images[chunk])
        probs, feats = seg_forward(seg, x, probs=need_probs,
                                   features="features" in names)
        out = {"probs": probs, "features": feats}
        if "pred_acc" in names:
            out["pred_acc"] = ap_forward(ap, x, probs)
        if "actual" in names:  # the labels; scored in one call below
            out["actual"] = channel_argmax(probs)
        for name in names:
            if name not in outputs:  # shapes and dtypes from the first chunk
                outputs[name] = np.empty((len(ids), *out[name].shape[1:]),
                                         dtype=out[name].dtype)
            outputs[name][lo:lo + len(chunk)] = out[name]
    if "actual" in outputs:
        outputs["actual"] = dsc_per_class_batch(outputs["actual"],
                                                dataset.masks[ids], dataset.num_fg)
    return outputs


def query_step(state: PoolState, seg: Network, ap: Network, strategy: str,
               dataset: Dataset, query_seed: int) -> list[list]:
    """Select, 'annotate' (ground-truth lookup) and absorb one query batch.

    Returns one ``QUERY_COLUMNS`` row per picked sample, in id order. Runs
    the models only for the inputs the strategy's entry declares; the caller
    ensures ``state.can_query``.
    """
    t0 = time.perf_counter()
    pool = state.unlabeled

    needs = STRATEGIES[strategy].needs
    inputs = _pool_inference(seg, ap, dataset, pool, needs)
    if "labeled_features" in needs:
        inputs["labeled_features"] = _pool_inference(
            seg, ap, dataset, state.labeled, ("features",))["features"]

    ctx = QueryContext(ids=pool, b=state.schedule[state.t - 1],
                       seed=query_seed, **inputs)
    pos, weight, cluster = select(strategy, ctx)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    # the pool is sorted, so sorted positions give the ids in sorted order
    pos = np.sort(pos)
    rows = [[state.t, int(pool[p]),
             -1 if cluster is None else int(cluster[p]),
             None if weight is None else float(weight[p]), elapsed_ms]
            for p in pos]
    selected = pool[pos]
    state.labeled = np.union1d(state.labeled, selected)
    state.unlabeled = np.setdiff1d(state.unlabeled, selected)
    state.t += 1
    return rows


def run_active_learning(dataset: Dataset, train_ids: np.ndarray,
                        val_ids: np.ndarray, strategy: str, budget: float,
                        iterations: int, cfg: TrainConfig,
                        fold_index: int = 0) -> RunReport:
    """Algorithm: train, evaluate, update the trigger, maybe query; repeat.

    Terminates once the budget can no longer be spent *and* validation DSC
    has been stale for ``early_stop`` epochs, or at ``max_epochs``. A query
    restarts that count as it restarts the trigger's: "stale" only counts
    epochs after the labeled set stopped changing.
    """
    on_stall = STRATEGIES[strategy].on_stall
    train_ids = np.asarray(train_ids, dtype=np.int64)
    val_ids = np.asarray(val_ids, dtype=np.int64)
    num_fg = dataset.num_fg

    state = init_pool(train_ids, cfg.init_ratio, budget, iterations,
                      seed=[cfg.seed, fold_index, 0xD1])
    seg = build_seg_model(num_fg + 1, seed=_subseed(cfg.seed, fold_index, 1))
    ap = build_ap_model(num_fg + 1, seed=_subseed(cfg.seed, fold_index, 2))

    report = RunReport()

    for epoch in range(cfg.max_epochs):
        shuffle_rng = np.random.default_rng([cfg.seed, fold_index, 3, epoch])
        seg_loss, ap_loss = train_epoch(seg, ap, dataset, state.labeled, epoch,
                                        cfg, shuffle_rng)
        val_mean, val_class = evaluate(seg, dataset, val_ids)
        iq_update(state, val_mean)

        if on_stall:
            trigger = state.iq_counter >= cfg.iq_patience
        else:
            trigger = epoch > 0 and epoch % cfg.query_interval == 0
        if trigger and state.can_query:
            report.queries += query_step(
                state, seg, ap, strategy, dataset,
                query_seed=_subseed(cfg.seed, fold_index, 4, state.t))
            state.iq_counter = 0
            state.assert_partition(train_ids)

        report.epochs.append([epoch, state.t, len(state.labeled),
                              len(state.labeled) / len(train_ids), seg_loss,
                              ap_loss, val_mean, *(float(v) for v in val_class)])

        if not state.can_query and state.iq_counter >= cfg.early_stop:
            break

    if len(state.unlabeled):
        out = _pool_inference(seg, ap, dataset, state.unlabeled,
                              ("pred_acc", "actual"))
        pred, actual = out["pred_acc"], out["actual"]
        report.calibration = [
            [int(sid), j + 1, float(pred[i, j]), float(actual[i, j])]
            for i, sid in enumerate(state.unlabeled) for j in range(num_fg)]
    return report
