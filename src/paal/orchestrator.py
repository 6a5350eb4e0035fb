"""The incremental active-learning training loop.

One run owns a segmentation model, an accuracy predictor and the pool
bookkeeping. Every epoch trains both models on the labeled set (the
predictor only after an initial silent period), evaluates on the validation
split, and then decides whether to query: strategies whose table entry sets
``on_stall`` fire once validation DSC has failed to improve for
``iq_patience`` consecutive epochs, the rest fire on a fixed epoch grid.
The pool is one labeled flag per sorted train id; a query flags ids whose
ground-truth masks stand in for an annotator's labels. Inference
over the validation split, the pool or the labeled set runs in chunks of
``EVAL_PIXELS`` pixels each and only through the layers its outputs read;
a run given ``threads`` keeps up to that many chunks in flight at once,
the calling thread's and one per helper thread, each in conv buffers that
the calling thread allocated before the first chunk. No output depends on
the chunk size or the thread count. Training runs on the calling thread
alone. Everything is deterministic given the run's ``Cell``, whose seed
and fold seed every random draw.

A run returns its CSV rows (``RunReport``): per epoch, per queried sample,
and the predictor's calibration on the final pool, each in the column order
named beside it; the campaign puts the cell's own columns in front.
"""

from __future__ import annotations

import contextvars
import math
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .data import Dataset
from .metrics import dice_ce_loss, dsc_per_class_batch, mse_loss
from .models import (Workspace, ap_forward, build_ap_model, build_seg_model,
                     channel_argmax, normalize_images, seg_forward, softmax)
from .nn import Network, NumericalError, adamw_step, cosine_lr
from .strategies import STRATEGIES, QueryContext, select

_POOL_OUTPUTS = ("probs", "features", "pred_acc", "actual")

# pixels per chunk of a forward pass when nothing trains; with n threads
# up to n chunks are in flight, each in its thread's conv buffers (one
# models.Workspace per thread, all allocated by the calling thread). With
# the convs chained on padded buffers, a 452-image 32x32 pool pass on one
# thread (posteriors and features; medians of 3 runs of 20 interleaved
# repeats, heap pinned, 2-core Xeon) took 91 ms at 4K pixels, 84 ms at 8K
# and 78 ms at 16K, with tracemalloc peaks of 9.2, 11.1 and 14.7 MB; at 16K
# the query-step memory tests fail
EVAL_PIXELS = 8192


@dataclass(frozen=True)
class Cell:
    """A run's identity and the one home of its seed and fold; a campaign
    records it in the run's ``cell.json``."""
    strategy: str
    budget: float
    iterations: int
    seed: int
    fold: int

    @property
    def run_id(self) -> str:
        return f"{self.strategy}_b{self.budget:g}_s{self.seed}_f{self.fold}"


@dataclass
class TrainConfig:
    """A run's training settings: exactly the campaign config's training
    keys, each parsed as its annotation names. The seed is the ``Cell``'s."""
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
    """One labeled flag per sorted train id: the sets partition ``ids``."""
    ids: np.ndarray
    is_labeled: np.ndarray
    schedule: tuple[int, ...]  # query t labels schedule[t - 1] samples
    t: int = 1

    @property
    def labeled(self) -> np.ndarray:
        return self.ids[self.is_labeled]

    @property
    def unlabeled(self) -> np.ndarray:
        return self.ids[~self.is_labeled]

    @property
    def can_query(self) -> bool:
        return self.t <= len(self.schedule)


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
    """Seeded initial flags, one flag per sorted train id, and each query's size.

    Both ratios count from their decimal value (0.07 of 100 is 7). The
    budget splits into ``iterations`` equal queries, or one-label queries
    when it is smaller, and the remainder goes unspent. It fits in the
    pool, so no query finds the pool short.
    """
    ids = np.sort(np.asarray(train_ids, dtype=np.int64))
    n = len(ids)
    m = math.ceil(Fraction(str(init_ratio)) * n)
    count = int(Fraction(str(budget)) * n)
    if count < 0 or count > n - m:
        raise ValueError(f"budget {count} exceeds pool of {n - m} unlabeled samples")
    batch = count // iterations
    schedule = (batch,) * iterations if batch else (1,) * count
    is_labeled = np.zeros(n, dtype=bool)
    is_labeled[np.random.default_rng(seed).choice(n, m, replace=False)] = True
    return PoolState(ids, is_labeled, schedule)


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
        seg.backward(glogits)
        adamw_step(seg.params(), lr, weight_decay=cfg.weight_decay)
        seg_total += loss * len(batch)
        count += len(batch)

        if train_ap:
            targets = dsc_per_class_batch(channel_argmax(probs), y, dataset.num_fg)
            pred = ap.forward(np.concatenate([x, probs], axis=1), train=True)
            ap_loss, gpred = mse_loss(pred, targets.astype(np.float32))
            ap.backward(gpred)
            adamw_step(ap.params(), lr, weight_decay=cfg.weight_decay)
            ap_total += ap_loss * len(batch)
    return seg_total / count, (ap_total / count) if train_ap else None


def evaluate(seg: Network, dataset: Dataset, val_ids: np.ndarray,
             threads: int = 1) -> tuple[float, np.ndarray]:
    """Mean foreground DSC on the validation set (classes averaged, then samples)."""
    dsc = _pool_inference(seg, None, dataset, val_ids, ("actual",),
                          threads)["actual"]
    return float(dsc.mean(axis=1).mean()), dsc.mean(axis=0)


def _in_threads(work, items, threads: int) -> None:
    """Call ``work(slot, item)`` for every item of a sequence, on the
    calling thread (slot 0) and up to ``threads - 1`` helper threads
    (slots 1, 2, ...), which all take the next item in order; no two
    threads share a slot.

    glibc gives each thread that allocates its own malloc arena, and under
    ``cli._pin_heap``'s trim threshold an arena keeps its high-water for
    the rest of the process. So the caller works too, rather than idle
    beside helpers that would each hold an arena, and ``work`` should put
    its large buffers in ones the caller allocated for its slot: a helper
    that allocated one pool chunk's conv buffers itself kept 3.4 MiB in
    its arena and raised the benchmark's peak RSS by about 3 MB; in the
    caller's buffers it keeps 0.6 MiB.

    Each helper runs in its own copy of the caller's context, so the
    caller's ``np.errstate`` (a context variable) holds in it. Once an item
    fails no further item starts, so every item before it has run; the
    earliest failed item's error is raised, the one a serial loop would
    raise. The helpers are joined before this returns or raises.
    """
    lock = threading.Lock()
    todo = enumerate(items)
    errors: dict[int, BaseException] = {}

    def drain(slot):
        while True:
            with lock:  # no item starts after a failure
                i, item = (None, None) if errors else next(todo, (None, None))
            if i is None:
                return
            try:
                work(slot, item)
            except BaseException as exc:  # raised by the caller below
                with lock:
                    errors[i] = exc
                return

    started = [threading.Thread(target=contextvars.copy_context().run,
                                args=(drain, slot))
               for slot in range(1, min(threads, len(items)))]
    for thread in started:
        thread.start()
    try:
        drain(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[min(errors)]


def _pool_inference(seg: Network, ap: Network | None, dataset: Dataset, ids,
                    wanted, threads: int = 1) -> dict[str, np.ndarray]:
    """Model outputs over a set of ids, in chunks (never trains anything).

    Returns one (len(ids), ...) array for each name in ``wanted`` that is
    one of ``_POOL_OUTPUTS``: the posteriors, pooled features, AP-predicted
    per-class DSC, and actual per-class DSC against the ground truth. Other
    names are ignored; with none wanted, no model runs.

    Only the layers the wanted outputs read run: features alone stop before
    the logits conv, and features are pooled only when wanted. A chunk is
    ``EVAL_PIXELS`` pixels' worth of the u8 images (at least one),
    normalised as it is read, and its outputs go straight into arrays sized
    for every id, so no output exists twice. The first chunk sizes those
    arrays; the rest run on ``threads`` threads (see :func:`_in_threads`),
    each chunk writing only its own rows. Before the first chunk the
    calling thread allocates one ``Workspace`` per thread, sized for the
    pass's largest chunk, for the convs of that thread's chunks; they are
    freed when the pass ends. A
    non-finite posterior, feature or predicted accuracy in any chunk
    raises ``NumericalError``. Chunking splits only the column axis of
    each conv's matmul, so every output is bit-identical whatever the
    chunk size and thread count.
    """
    names = [name for name in _POOL_OUTPUTS if name in wanted]
    need_probs = bool(set(names) - {"features"})  # the rest read the posteriors
    outputs: dict[str, np.ndarray] = {}
    step = max(1, EVAL_PIXELS // math.prod(dataset.images.shape[1:]))

    def infer(slot, lo):
        chunk = ids[lo:lo + step]
        x = normalize_images(dataset.images[chunk])
        probs, feats = seg_forward(seg, x, probs=need_probs,
                                   features="features" in names,
                                   workspace=workspaces[slot])
        out = {"probs": probs, "features": feats}
        if "pred_acc" in names:
            out["pred_acc"] = ap_forward(ap, x, probs,
                                         workspace=workspaces[slot])
        if not all(np.isfinite(v).all() for v in out.values() if v is not None):
            raise NumericalError("non-finite model output")
        if "actual" in names:  # the labels; scored in one call below
            out["actual"] = channel_argmax(probs)
        for name in names:
            if name not in outputs:  # shapes and dtypes from the first chunk
                outputs[name] = np.empty((len(ids), *out[name].shape[1:]),
                                         dtype=out[name].dtype)
            outputs[name][lo:lo + len(chunk)] = out[name]

    starts = range(0, len(ids) if names else 0, step)
    if starts:  # the outputs exist before any helper starts
        nets = [seg, ap] if "pred_acc" in names else [seg]
        largest = min(step, len(ids))  # the largest chunk of this pass
        workspaces = [Workspace(nets, largest, *dataset.images.shape[1:])
                      for _ in range(max(1, min(threads, len(starts) - 1)))]
        infer(0, starts[0])
        _in_threads(infer, starts[1:], threads)
        del workspaces  # back to the heap before the scoring below
    if "actual" in outputs:
        outputs["actual"] = dsc_per_class_batch(outputs["actual"],
                                                dataset.masks[ids], dataset.num_fg)
    return outputs


def query_step(state: PoolState, seg: Network, ap: Network, strategy: str,
               dataset: Dataset, query_seed: int, threads: int = 1) -> list[list]:
    """Select, 'annotate' (ground-truth lookup) and absorb one query batch.

    Returns one ``QUERY_COLUMNS`` row per picked sample, in id order. Runs
    the models, on ``threads`` threads, only for the inputs the strategy's
    entry declares; the caller ensures ``state.can_query``.
    """
    t0 = time.perf_counter()
    pool = state.unlabeled

    needs = STRATEGIES[strategy].needs
    inputs = _pool_inference(seg, ap, dataset, pool, needs, threads)
    if "labeled_features" in needs:
        inputs["labeled_features"] = _pool_inference(
            seg, ap, dataset, state.labeled, ("features",), threads)["features"]

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
    state.is_labeled[np.flatnonzero(~state.is_labeled)[pos]] = True
    state.t += 1
    return rows


def run_active_learning(dataset: Dataset, train_ids: np.ndarray,
                        val_ids: np.ndarray, cell: Cell, cfg: TrainConfig,
                        threads: int = 1) -> RunReport:
    """Algorithm: train, evaluate, update the trigger, maybe query; repeat.

    The cell names the strategy, budget, iterations, seed and fold; every
    inference pass runs on ``threads`` threads, which changes no output.
    Terminates once the budget can no longer be spent *and* validation DSC
    has been stale for ``early_stop`` epochs, or at ``max_epochs``. A query
    restarts that count as it restarts the trigger's: "stale" only counts
    epochs after the labeled set stopped changing.
    """
    on_stall = STRATEGIES[cell.strategy].on_stall
    val_ids = np.asarray(val_ids, dtype=np.int64)
    num_fg = dataset.num_fg

    state = init_pool(train_ids, cfg.init_ratio, cell.budget, cell.iterations,
                      seed=[cell.seed, cell.fold, 0xD1])
    seg = build_seg_model(num_fg + 1, seed=_subseed(cell.seed, cell.fold, 1))
    ap = build_ap_model(num_fg + 1, seed=_subseed(cell.seed, cell.fold, 2))

    report = RunReport()
    best_val, stalled = float("-inf"), 0  # epochs since val DSC last rose

    for epoch in range(cfg.max_epochs):
        shuffle_rng = np.random.default_rng([cell.seed, cell.fold, 3, epoch])
        seg_loss, ap_loss = train_epoch(seg, ap, dataset, state.labeled, epoch,
                                        cfg, shuffle_rng)
        val_mean, val_class = evaluate(seg, dataset, val_ids, threads)
        stalled = 0 if val_mean > best_val else stalled + 1  # a tie or NaN stalls
        best_val = max(best_val, val_mean)  # max keeps its first argument on a NaN

        if on_stall:
            trigger = stalled >= cfg.iq_patience
        else:
            trigger = epoch > 0 and epoch % cfg.query_interval == 0
        if trigger and state.can_query:
            report.queries += query_step(
                state, seg, ap, cell.strategy, dataset,
                query_seed=_subseed(cell.seed, cell.fold, 4, state.t),
                threads=threads)
            stalled = 0

        labeled = np.count_nonzero(state.is_labeled)
        report.epochs.append([epoch, state.t, labeled, labeled / len(state.ids), seg_loss,
                              ap_loss, val_mean, *(float(v) for v in val_class)])

        if not state.can_query and stalled >= cfg.early_stop:
            break

    if len(state.unlabeled):
        out = _pool_inference(seg, ap, dataset, state.unlabeled,
                              ("pred_acc", "actual"), threads)
        pred, actual = out["pred_acc"], out["actual"]
        report.calibration = [
            [int(sid), j + 1, float(pred[i, j]), float(actual[i, j])]
            for i, sid in enumerate(state.unlabeled) for j in range(num_fg)]
    return report
