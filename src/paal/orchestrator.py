"""The incremental active-learning training loop.

One run owns a segmentation model, an accuracy predictor and the pool
bookkeeping. Every epoch trains both models on the labeled set (the
predictor only after an initial silent period), evaluates on the validation
split, and then decides whether to query: strategies whose table entry sets
``on_stall`` fire once validation DSC has failed to improve for
``iq_patience`` consecutive epochs, the rest fire on a fixed epoch grid.
Queried ids get their ground-truth masks (the stand-in for a human
annotator) and move from the unlabeled pool to the labeled set. Everything
is deterministic given the run seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .metrics import dice_ce_loss, dsc_per_class_batch, mse_loss
from .models import (ap_forward, build_ap_model, build_seg_model,
                     concat_channels, normalize_images, seg_forward)
from .nn import Network, adamw_step, cosine_lr
from .strategies import STRATEGIES, QueryContext, select

_POOL_OUTPUTS = ("probs", "features", "pred_acc", "actual")


@dataclass
class TrainConfig:
    max_epochs: int = 120
    early_stop_tolerance: int = 15
    silent_period: int = 5
    iq_patience: int = 10
    baseline_query_interval: int = 5
    batch_size: int = 16
    eval_batch: int = 32
    lr0: float = 1e-3
    lr_min: float = 1e-6
    warmup: int = 10
    weight_decay: float = 1e-4
    init_ratio: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.silent_period >= self.max_epochs:
            raise ValueError("silent_period must be smaller than max_epochs")


@dataclass
class PoolState:
    labeled: np.ndarray
    unlabeled: np.ndarray
    budget: int
    iterations: int
    batch: int
    t: int = 1
    iq_counter: int = 0
    best_val_dsc: float = float("-inf")
    queried: int = 0

    def assert_partition(self, all_train_ids: np.ndarray):
        both = np.intersect1d(self.labeled, self.unlabeled)
        if both.size:
            raise AssertionError(f"labeled/unlabeled overlap: {both[:5]}")
        union = np.union1d(self.labeled, self.unlabeled)
        if not np.array_equal(union, np.sort(all_train_ids)):
            raise AssertionError("labeled+unlabeled do not partition the train ids")


@dataclass
class EpochRecord:
    epoch: int
    iteration: int
    labeled_count: int
    seg_loss: float
    ap_loss: float | None
    val_dsc_mean: float
    val_dsc_class: tuple[float, ...]


@dataclass
class QueryRecord:
    iteration: int
    epoch: int
    selected: np.ndarray
    weights: np.ndarray | None
    clusters: np.ndarray | None
    class_counts: dict[int, int]
    time_ms: float


@dataclass
class RunReport:
    strategy: str
    seed: int
    fold: int
    budget: int
    pool_size: int
    epochs: list[EpochRecord] = field(default_factory=list)
    queries: list[QueryRecord] = field(default_factory=list)
    calibration_ids: np.ndarray | None = None
    calibration_pred: np.ndarray | None = None
    calibration_actual: np.ndarray | None = None
    best_val_dsc: float = float("-inf")


def _subseed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def init_pool(train_ids: np.ndarray, init_ratio: float, budget: int,
              iterations: int, seed) -> PoolState:
    """Seeded initial labeled/unlabeled split plus per-iteration batch size."""
    train_ids = np.asarray(train_ids, dtype=np.int64)
    n = len(train_ids)
    if not 0.0 < init_ratio < 1.0:
        raise ValueError("init_ratio must be in (0, 1)")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    m = int(np.ceil(init_ratio * n))
    if budget < 0 or budget > n - m:
        raise ValueError(f"budget {budget} exceeds pool of {n - m} unlabeled samples")
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=m, replace=False)
    labeled = np.sort(train_ids[picks])
    unlabeled = np.setdiff1d(train_ids, labeled)
    return PoolState(labeled, unlabeled, budget, iterations,
                     batch=max(budget // iterations, 1))


def iq_update(state: PoolState, val_dsc: float) -> bool:
    """Reset the no-improvement counter on a strictly better validation DSC."""
    if val_dsc > state.best_val_dsc:
        state.best_val_dsc = val_dsc
        state.iq_counter = 0
        return True
    state.iq_counter += 1
    return False


def train_epoch(seg: Network, ap: Network, images_norm: np.ndarray,
                labels: np.ndarray, labeled_ids: np.ndarray, epoch: int,
                cfg: TrainConfig, lr: float, shuffle_rng: np.random.Generator,
                num_fg: int) -> tuple[float, float | None]:
    """One pass over the labeled set in shuffled mini-batches.

    The segmentation model always trains; the accuracy predictor joins in
    after the silent period, regressing the per-class DSC of the *current*
    segmentation output, with the posteriors treated as constants.
    """
    order = labeled_ids[shuffle_rng.permutation(len(labeled_ids))]
    softmax_idx = len(seg.layers) - 1
    train_ap = epoch >= cfg.silent_period
    seg_total = 0.0
    ap_total = 0.0
    count = 0
    for lo in range(0, len(order), cfg.batch_size):
        batch = order[lo:lo + cfg.batch_size]
        x = images_norm[batch]
        y = labels[batch]

        acts = seg.forward(x, train=True)
        probs = acts[-1]
        loss, glogits = dice_ce_loss(probs, y)
        seg.zero_grad()
        seg.backward(glogits, start=softmax_idx - 1)
        adamw_step(seg.params(), lr, weight_decay=cfg.weight_decay)
        seg_total += loss * len(batch)
        count += len(batch)

        if train_ap:
            targets = dsc_per_class_batch(probs.argmax(axis=1), y, num_fg)
            pred = ap.forward(concat_channels(x, probs), train=True)[-1]
            ap_loss, gpred = mse_loss(pred, targets.astype(np.float32))
            ap.zero_grad()
            ap.backward(gpred)
            adamw_step(ap.params(), lr, weight_decay=cfg.weight_decay)
            ap_total += ap_loss * len(batch)
    return seg_total / count, (ap_total / count) if train_ap else None


def evaluate(seg: Network, val_images: np.ndarray, val_labels: np.ndarray,
             num_fg: int, batch: int = 128) -> tuple[float, np.ndarray]:
    """Mean foreground DSC on the validation set (classes averaged, then samples)."""
    if len(val_images) == 0:
        raise ValueError("validation set is empty")
    per_sample = []
    for lo in range(0, len(val_images), batch):
        probs = seg.forward(val_images[lo:lo + batch])[-1]
        pred = probs.argmax(axis=1)
        per_sample.append(dsc_per_class_batch(pred, val_labels[lo:lo + batch], num_fg))
    dsc = np.concatenate(per_sample, axis=0)
    return float(dsc.mean(axis=1).mean()), dsc.mean(axis=0)


def _pool_inference(seg: Network, ap: Network, images_norm, labels, ids,
                    wanted, batch: int, num_fg: int) -> dict[str, np.ndarray]:
    """Batched model outputs over a set of ids (never trains anything).

    Returns one (len(ids), ...) array for each name in ``wanted`` that is
    one of ``_POOL_OUTPUTS``: the posteriors, pooled features, AP-predicted
    per-class DSC, and actual per-class DSC against the ground truth. Other
    names are ignored; with none wanted, no model runs.
    """
    parts: dict[str, list] = {name: [] for name in _POOL_OUTPUTS if name in wanted}
    for lo in range(0, len(ids) if parts else 0, batch):
        chunk = ids[lo:lo + batch]
        x = images_norm[chunk]
        probs, feats = seg_forward(seg, x)
        out = {"probs": probs, "features": feats}
        if "pred_acc" in parts:
            out["pred_acc"] = ap_forward(ap, x, probs)
        if "actual" in parts:
            out["actual"] = dsc_per_class_batch(probs.argmax(axis=1),
                                                labels[chunk], num_fg)
        for name, acc in parts.items():
            acc.append(out[name])
    return {name: np.concatenate(acc, axis=0) for name, acc in parts.items()}


def query_step(state: PoolState, seg: Network, ap: Network, strategy: str,
               images_norm: np.ndarray, labels: np.ndarray, cfg: TrainConfig,
               num_fg: int, epoch: int, query_seed: int) -> QueryRecord | None:
    """Select, 'annotate' (ground-truth lookup) and absorb one query batch.

    Runs the models only for the inputs the strategy's entry declares.
    """
    if len(state.unlabeled) == 0:
        return None
    t0 = time.perf_counter()
    pool = state.unlabeled
    take = min(state.batch, state.budget - state.queried, len(pool))

    needs = STRATEGIES[strategy].needs
    inputs = _pool_inference(seg, ap, images_norm, labels, pool, needs,
                             cfg.eval_batch, num_fg)
    if "labeled_features" in needs:
        inputs["labeled_features"] = _pool_inference(
            seg, ap, images_norm, labels, state.labeled, ("features",),
            cfg.eval_batch, num_fg)["features"]

    ctx = QueryContext(ids=pool, b=take, seed=query_seed, **inputs)
    selected, info = select(strategy, ctx)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    # bucket each sample once, by its highest (rarest, under the default
    # profile) class label, so the distribution conserves the queried total
    counts: dict[int, int] = {c: 0 for c in range(num_fg + 1)}
    for sid in selected:
        counts[int(labels[sid].max())] += 1

    record = QueryRecord(
        iteration=state.t, epoch=epoch, selected=np.sort(selected),
        weights=info.get("weight"), clusters=info.get("cluster"),
        class_counts=counts, time_ms=elapsed_ms)
    # re-align diagnostics to the sorted id order used everywhere downstream
    if record.weights is not None or record.clusters is not None:
        order = np.argsort(selected)
        if record.weights is not None:
            record.weights = np.asarray(record.weights)[order]
        if record.clusters is not None:
            record.clusters = np.asarray(record.clusters)[order]

    state.labeled = np.union1d(state.labeled, selected)
    state.unlabeled = np.setdiff1d(state.unlabeled, selected)
    state.queried += len(selected)
    state.t += 1
    state.iq_counter = 0
    return record


def run_active_learning(dataset: Dataset, train_ids: np.ndarray,
                        val_ids: np.ndarray, strategy: str, budget: int,
                        iterations: int, cfg: TrainConfig,
                        fold_index: int = 0) -> RunReport:
    """Algorithm: train, evaluate, update the trigger, maybe query; repeat.

    Terminates once the budget can no longer be spent *and* validation DSC
    has been stale for ``early_stop_tolerance`` epochs, or at ``max_epochs``.
    """
    on_stall = STRATEGIES[strategy].on_stall
    train_ids = np.asarray(train_ids, dtype=np.int64)
    val_ids = np.asarray(val_ids, dtype=np.int64)
    num_fg = dataset.num_fg
    num_classes = num_fg + 1

    images_norm = normalize_images(dataset.images)
    labels = dataset.masks.astype(np.int64)

    state = init_pool(train_ids, cfg.init_ratio, budget, iterations,
                      seed=[cfg.seed, fold_index, 0xD1])
    seg = build_seg_model(1, num_classes, seed=_subseed(cfg.seed, fold_index, 1))
    ap = build_ap_model(1, num_classes, seed=_subseed(cfg.seed, fold_index, 2))

    report = RunReport(strategy=strategy, seed=cfg.seed, fold=fold_index,
                       budget=budget, pool_size=len(train_ids))
    val_images = images_norm[val_ids]
    val_labels = labels[val_ids]

    since_improve = 0
    for epoch in range(cfg.max_epochs):
        lr = cosine_lr(epoch, cfg.max_epochs, cfg.warmup, cfg.lr0, cfg.lr_min)
        shuffle_rng = np.random.default_rng([cfg.seed, fold_index, 3, epoch])
        seg_loss, ap_loss = train_epoch(
            seg, ap, images_norm, labels, state.labeled, epoch, cfg, lr,
            shuffle_rng, num_fg)
        val_mean, val_class = evaluate(seg, val_images, val_labels, num_fg,
                                       cfg.eval_batch)
        improved = iq_update(state, val_mean)
        since_improve = 0 if improved else since_improve + 1

        if on_stall:
            trigger = state.iq_counter >= cfg.iq_patience
        else:
            trigger = epoch > 0 and epoch % cfg.baseline_query_interval == 0
        if (trigger and state.t <= state.iterations
                and state.queried < state.budget and len(state.unlabeled)):
            record = query_step(state, seg, ap, strategy, images_norm, labels,
                                cfg, num_fg, epoch,
                                query_seed=_subseed(cfg.seed, fold_index, 4, state.t))
            if record is not None:
                state.assert_partition(train_ids)
                report.queries.append(record)
                # fresh data restarts the convergence clock: "stable" only
                # counts epochs after the labeled set stopped changing
                since_improve = 0

        report.epochs.append(EpochRecord(
            epoch=epoch, iteration=state.t, labeled_count=len(state.labeled),
            seg_loss=seg_loss, ap_loss=ap_loss, val_dsc_mean=val_mean,
            val_dsc_class=tuple(float(v) for v in val_class)))

        budget_done = (state.queried >= state.budget
                       or state.t > state.iterations
                       or len(state.unlabeled) == 0)
        if budget_done and since_improve >= cfg.early_stop_tolerance:
            break

    if len(state.unlabeled):
        out = _pool_inference(seg, ap, images_norm, labels, state.unlabeled,
                              ("pred_acc", "actual"), cfg.eval_batch, num_fg)
        report.calibration_ids = state.unlabeled.copy()
        report.calibration_pred = out["pred_acc"]
        report.calibration_actual = out["actual"]

    report.best_val_dsc = state.best_val_dsc
    return report
