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
no output depends on the chunk size. Everything is deterministic given
the run's ``Cell``, whose seed and fold seed every random draw.

Validation, the predictor's training and half of each inference pass can
run beside the segmentation net's training, in an :class:`Evaluator`: a
process forked once per campaign or ``--jobs`` worker, before any cell
trains, which works on one thread. A run given one sends it each training
batch's posteriors, and the predictor trains there; the run reads the
predictor back only where a query or the final calibration uses it. The
evaluator also scores the val DSC of each epoch that cannot fire a stall
query or stop the run, while the run does that epoch's query and trains
the next epoch. Every pass the run waits for runs its first half of
chunks here and its second half there. Without an evaluator everything
runs in the run's own process. No output depends on the evaluator.

A run returns its CSV rows (``RunReport``): per epoch, per queried sample,
and the predictor's calibration on the final pool, each in the column order
named beside it; the campaign puts the cell's own columns in front.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
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

# pixels per chunk of a forward pass when nothing trains, each chunk in one
# models.Workspace's conv buffers. With the convs chained on padded buffers,
# a 452-image 32x32 pool pass in one process (posteriors and features;
# medians of 3 runs of 20 interleaved repeats, heap pinned, 2-core Xeon)
# took 91 ms at 4K pixels, 84 ms at 8K and 78 ms at 16K, with tracemalloc
# peaks of 9.2, 11.1 and 14.7 MB; at 16K the query-step memory tests fail
EVAL_PIXELS = 8192

# bytes an evaluator's request pipe is widened to: about 4 training batches'
# posteriors (16 x 4 x 32 x 32 float32 is 256 KiB), against the default 64
# KiB, which holds none, so the trainer need not wait while the evaluator
# scores validation; Linux's default pipe-max-size
_REQUEST_PIPE_BYTES = 1 << 20


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


def ap_step(ap: Network, x: np.ndarray, probs: np.ndarray, y: np.ndarray,
            num_fg: int, lr: float, weight_decay: float) -> float:
    """One accuracy-predictor step on a batch: regress the per-class DSC of
    the segmentation output ``probs`` against the masks ``y``, with the
    posteriors treated as constants. Returns the batch's loss."""
    targets = dsc_per_class_batch(channel_argmax(probs), y, num_fg)
    pred = ap.forward(np.concatenate([x, probs], axis=1), train=True)
    loss, gpred = mse_loss(pred, targets.astype(np.float32))
    ap.backward(gpred)
    adamw_step(ap.params(), lr, weight_decay=weight_decay)
    return loss


def train_epoch(seg: Network, ap: Network, dataset: Dataset,
                labeled_ids: np.ndarray, epoch: int, cfg: TrainConfig,
                shuffle_rng: np.random.Generator,
                evaluator: Evaluator | None = None) -> tuple[float, float | None]:
    """One pass over the labeled set in shuffled mini-batches, at the
    epoch's cosine learning rate.

    The segmentation model always trains; the accuracy predictor joins in
    after the silent period, one :func:`ap_step` after each segmentation
    step, on that step's posteriors. Each batch's u8 images are normalised
    as it is read. Given an ``evaluator``, the predictor's steps run there
    (see :meth:`Evaluator.train_ap`), on the evaluator's copy of the AP,
    and the AP loss returned is None: the evaluator's next reply carries
    it.
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

        if train_ap and evaluator is not None:
            evaluator.train_ap(batch, probs, lr, cfg.weight_decay, first=lo == 0)
        elif train_ap:
            ap_total += ap_step(ap, x, probs, y, dataset.num_fg, lr,
                                cfg.weight_decay) * len(batch)
    ap_loss = ap_total / count if train_ap and evaluator is None else None
    return seg_total / count, ap_loss


def evaluate(seg: Network, dataset: Dataset, val_ids: np.ndarray,
             evaluator: Evaluator | None = None) -> tuple[float, np.ndarray]:
    """Mean foreground DSC on the validation set (classes averaged, then samples)."""
    dsc = _pool_inference(seg, None, dataset, val_ids, ("actual",),
                          evaluator)["actual"]
    return float(dsc.mean(axis=1).mean()), dsc.mean(axis=0)


def _infer(seg: Network, ap: Network | None, dataset: Dataset, ids,
           names: list[str], rows: int) -> dict[str, np.ndarray]:
    """The outputs ``names`` of a non-empty set of ids, in the first
    ``len(ids)`` rows of arrays ``rows`` long, chunk by chunk in one
    ``Workspace`` (see :func:`_pool_inference`); ``actual`` holds each
    pixel's argmax label, not yet scored."""
    need_probs = bool(set(names) - {"features"})  # the rest read the posteriors
    step = max(1, EVAL_PIXELS // math.prod(dataset.images.shape[1:]))
    workspace = Workspace([seg, ap] if "pred_acc" in names else [seg],
                          min(step, len(ids)), *dataset.images.shape[1:])
    outputs: dict[str, np.ndarray] = {}
    for lo in range(0, len(ids), step):
        chunk = ids[lo:lo + step]
        x = normalize_images(dataset.images[chunk])
        probs, feats = seg_forward(seg, x, probs=need_probs,
                                   features="features" in names,
                                   workspace=workspace)
        out = {"probs": probs, "features": feats}
        if "pred_acc" in names:
            out["pred_acc"] = ap_forward(ap, x, probs, workspace=workspace)
        if not all(np.isfinite(v).all() for v in out.values() if v is not None):
            raise NumericalError("non-finite model output")
        if "actual" in names:  # the labels; scored in one call afterwards
            out["actual"] = channel_argmax(probs)
        for name in names:
            if name not in outputs:  # shapes and dtypes from the first chunk
                outputs[name] = np.empty((rows, *out[name].shape[1:]),
                                         dtype=out[name].dtype)
            outputs[name][lo:lo + len(chunk)] = out[name]
    return outputs


def _pool_inference(seg: Network, ap: Network | None, dataset: Dataset, ids,
                    wanted, evaluator: Evaluator | None = None
                    ) -> dict[str, np.ndarray]:
    """Model outputs over a set of ids, in chunks (never trains anything).

    Returns one (len(ids), ...) array for each name in ``wanted`` that is
    one of ``_POOL_OUTPUTS``: the posteriors, pooled features, AP-predicted
    per-class DSC, and actual per-class DSC against the ground truth. Other
    names are ignored; with none wanted, no model runs.

    Only the layers the wanted outputs read run: features alone stop before
    the logits conv, and features are pooled only when wanted. A chunk is
    ``EVAL_PIXELS`` pixels' worth of the u8 images (at least one),
    normalised as it is read, and its outputs go straight into arrays sized
    for every id, so no output exists twice. Given an ``evaluator`` whose
    AP is ``ap``, a pass of two or more chunks sends the second half of
    them there before it runs the first half here, and reads the
    evaluator's rows into the same arrays. A non-finite posterior, feature
    or predicted accuracy raises ``NumericalError``. Errors come in the
    serial order: the evaluator's unsettled AP steps', this process's
    chunks', then the evaluator's. Chunking splits only the column axis of
    each conv's matmul, so no output bit depends on the chunk size or on
    where a chunk ran.
    """
    names = [name for name in _POOL_OUTPUTS if name in wanted]
    if not names or not len(ids):
        return {}
    step = max(1, EVAL_PIXELS // math.prod(dataset.images.shape[1:]))
    # the first half of the chunks, the odd one included, stays here
    split = step * -(-len(ids) // (2 * step)) if evaluator else len(ids)
    if split < len(ids):  # two chunks or more, and an evaluator
        evaluator.infer(seg, ids[split:], names)
    outputs = None
    try:
        outputs = _infer(seg, ap, dataset, ids[:split], names, len(ids))
    finally:  # read whatever is raised, so the next reply is the next one's
        if split < len(ids):
            evaluator.rows(outputs, split)
    if "actual" in outputs:
        outputs["actual"] = dsc_per_class_batch(outputs["actual"],
                                                dataset.masks[ids], dataset.num_fg)
    return outputs


def query_step(state: PoolState, seg: Network, ap: Network, strategy: str,
               dataset: Dataset, query_seed: int,
               evaluator: Evaluator | None = None) -> list[list]:
    """Select, 'annotate' (ground-truth lookup) and absorb one query batch.

    Returns one ``QUERY_COLUMNS`` row per picked sample, in id order. Runs
    the models, half in ``evaluator`` if given, only for the inputs the
    strategy's entry declares: one pass over the pool, or over every id
    when the entry reads the labeled set's features too, its rows then
    split by flag. The caller ensures ``state.can_query``.
    """
    t0 = time.perf_counter()
    pool = state.unlabeled

    needs = STRATEGIES[strategy].needs
    if "labeled_features" in needs:
        out = _pool_inference(seg, ap, dataset, state.ids, (*needs, "features"),
                              evaluator)
        inputs = {name: out[name][~state.is_labeled] for name in out
                  if name in needs}
        inputs["labeled_features"] = out["features"][state.is_labeled]
    else:
        inputs = _pool_inference(seg, ap, dataset, pool, needs, evaluator)

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


def _next_step(on_stall: bool, cfg: TrainConfig, epoch: int, stalled: int,
               queries_left: int) -> tuple[bool, bool]:
    """Whether a query fires after an epoch, and whether the run then stops,
    given the stall count the epoch's validation left and the queries the
    schedule has left. A query restarts the stall count."""
    if on_stall:
        trigger = stalled >= cfg.iq_patience
    else:
        trigger = epoch > 0 and epoch % cfg.query_interval == 0
    if trigger and queries_left:
        return True, queries_left == 1 and cfg.early_stop == 0
    return False, not queries_left and stalled >= cfg.early_stop


def _val_decides(on_stall: bool, cfg: TrainConfig, stalled: int,
                 can_query: bool) -> bool:
    """Whether an epoch's val DSC can change :func:`_next_step`, given the
    stall count before it: whether a count of ``stalled + 1`` (val did not
    rise) and one of 0 (it rose) can give different steps. They can only
    fire different stall queries, or stop a run with no query left
    differently."""
    if can_query:
        return on_stall and 0 < cfg.iq_patience <= stalled + 1
    return 0 < cfg.early_stop <= stalled + 1


class EvaluatorError(RuntimeError):
    """The validation evaluator process died before it answered."""


class Evaluator:
    """A forked process beside the caller's training that scores validation
    DSC, trains each run's accuracy predictor and runs half of the run's
    inference passes. Its requests run in the order they are sent:

    - :meth:`start` begins a run: the child's AP becomes a copy of the
      caller's, with fresh Adam state;
    - :meth:`train_ap` sends one :func:`ap_step` on a batch; no reply;
    - :meth:`submit` sends a seg net's weights as they are, and
      :meth:`result` returns what :func:`evaluate` makes of them in the
      child alone;
    - :meth:`infer` sends a seg net's weights and a pass's share of ids,
      and :meth:`rows` reads that share's outputs, computed with the
      child's AP, into the caller's arrays;
    - :meth:`sync_ap` waits for every AP step sent so far, and copies the
      child's AP weights into the caller's AP if given one.

    Every reply carries ``ap_loss``, the AP's mean loss over the latest
    epoch that trained it (None before any), which :func:`train_epoch`
    would have returned. A reply raises instead the earliest error since
    the last reply: after an AP step fails, the child skips the AP steps,
    the scoring and the shares that follow it until it has replied. A
    share's own error comes back in its reply's value, so the caller can
    raise its own share's error first. One reply is awaited at a time.

    The child is forked when this is made, on the dataset given, which it
    keeps. Make it while no other thread runs, and before training grows
    the heap: a child's RSS counts every page it shares with its parent.
    Requests and replies are pickled over two pipes; a share's output rows
    follow its reply as raw bytes. The request pipe is widened to
    ``_REQUEST_PIPE_BYTES`` where the system allows, so a few batches'
    posteriors fit while the child is busy. Each request carries the
    caller's ``np.errstate``, under which the child runs it. The child
    ignores SIGINT, which a Ctrl-C sends the whole process group, exits
    when its request pipe reaches EOF, so it never outlives its parent, and
    leaves through ``os._exit``: it never unwinds into the code that forked
    it, and never flushes the stdio it inherited. Once the child has died,
    sending or awaiting a reply raises ``EvaluatorError``. :meth:`close`,
    or the end of a ``with`` block, closes the pipes and reaps the child.
    """

    ap_loss: float | None = None

    def __init__(self, dataset: Dataset):
        import fcntl  # where os.fork exists, so does fcntl
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        # Linux alone can widen a pipe, up to the system's pipe-max-size
        with contextlib.suppress(AttributeError, OSError):
            fcntl.fcntl(request_w, fcntl.F_SETPIPE_SZ, _REQUEST_PIPE_BYTES)
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                os.close(request_w)
                os.close(reply_r)
                _serve(dataset, os.fdopen(request_r, "rb"), os.fdopen(reply_w, "wb"))
                code = 0
            finally:
                os._exit(code)
        os.close(request_r)
        os.close(reply_w)
        self._requests = os.fdopen(request_w, "wb")
        self._replies = os.fdopen(reply_r, "rb")
        self._exit_code = None  # the child's, once reaped

    def __enter__(self) -> Evaluator:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _send(self, kind: str, *args) -> None:
        try:
            pickle.dump((kind, np.geterr(), *args), self._requests,
                        pickle.HIGHEST_PROTOCOL)
            self._requests.flush()
        except BrokenPipeError as exc:
            raise EvaluatorError(self._death()) from exc

    def start(self, ap: Network) -> None:
        self._send("start", [p.value for p in ap.params()])

    def train_ap(self, ids: np.ndarray, probs: np.ndarray, lr: float,
                 weight_decay: float, first: bool) -> None:
        """One :func:`ap_step` on the batch ``ids`` of the dataset, whose
        posteriors are ``probs``; ``first`` starts an epoch's loss."""
        self._send("ap", ids, probs, lr, weight_decay, first)

    def submit(self, seg: Network, val_ids: np.ndarray) -> None:
        self._send("val", [p.value for p in seg.params()], val_ids)

    def infer(self, seg: Network, ids: np.ndarray, names: list[str]) -> None:
        """Send a share of an inference pass: the outputs ``names`` (as
        :func:`_infer` makes them) over ``ids``, from ``seg``'s weights as
        they are and the child's AP."""
        self._send("infer", [p.value for p in seg.params()], ids, names)

    def result(self):
        try:
            reply = pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError) as exc:
            raise EvaluatorError(self._death()) from exc
        if isinstance(reply, Exception):
            raise reply
        self.ap_loss, value = reply
        return value

    def rows(self, outputs: dict[str, np.ndarray] | None, at: int) -> None:
        """Read the reply to :meth:`infer` into each of ``outputs``'s arrays
        from row ``at`` on, in the order the names were sent. Given None,
        drop the rows, and the share's error: the caller raises its own. An
        AP step's error raises either way."""
        value = self.result()
        if outputs is None:
            if not isinstance(value, Exception):
                self._replies.read(sum(value))
        elif isinstance(value, Exception):
            raise value
        else:
            for array in outputs.values():
                view = memoryview(array[at:]).cast("B")
                if self._replies.readinto(view) < len(view):
                    raise EvaluatorError(self._death())

    def sync_ap(self, ap: Network | None = None) -> float | None:
        """Wait for every AP step sent so far; copy the child's AP weights
        into ``ap``, if given, and return ``ap_loss``."""
        self._send("sync", ap is not None)
        weights = self.result()
        if ap is not None:
            _load(ap, weights)
        return self.ap_loss

    def _reap(self) -> int:
        if self._exit_code is None:
            self._exit_code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self._exit_code

    def _death(self) -> str:
        code = self._reap()
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        return f"the validation evaluator (pid {self.pid}) died: {how}"

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError):  # the child died first
            self._requests.close()
        self._replies.close()
        self._reap()


def _serve(dataset: Dataset, requests, replies) -> None:
    """The evaluator's loop (see :class:`Evaluator`): until EOF, read a
    request and run it, and answer the ones that await a reply."""
    import signal  # the child's alone, so `paal generate` loads no more
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # weights come with the requests
    seg = build_seg_model(dataset.num_fg + 1, seed=0)
    ap = None
    error = None  # the earliest since the last reply
    ap_total, ap_count = 0.0, 0  # the latest AP epoch's, as train_epoch sums
    while True:
        try:
            kind, errstate, *args = pickle.load(requests)
        except EOFError:
            return
        if kind == "start":
            ap = build_ap_model(dataset.num_fg + 1, seed=0)  # fresh Adam state
            _load(ap, args[0])
            error, ap_total, ap_count = None, 0.0, 0
            continue
        value, rows = None, {}
        if error is None:
            try:
                with np.errstate(**errstate):
                    if kind == "ap":
                        ids, probs, lr, weight_decay, first = args
                        if first:
                            ap_total, ap_count = 0.0, 0
                        ap_total += ap_step(
                            ap, normalize_images(dataset.images[ids]), probs,
                            dataset.masks[ids], dataset.num_fg, lr,
                            weight_decay) * len(ids)
                        ap_count += len(ids)
                    elif kind == "val":
                        _load(seg, args[0])
                        value = evaluate(seg, dataset, args[1])
                    elif kind == "infer":
                        _load(seg, args[0])
                        try:
                            rows = _infer(seg, ap, dataset, *args[1:],
                                          len(args[1]))
                            value = [array.nbytes for array in rows.values()]
                        except Exception as exc:  # the value, not the reply
                            value = exc
                    elif args[0]:  # a "sync" that asks for the AP's weights
                        value = [p.value for p in ap.params()]
            except Exception as exc:  # raised in the parent
                error = exc
        if kind == "ap":
            continue
        reply = error if error is not None else (
            ap_total / ap_count if ap_count else None, value)
        error = None
        pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
        for array in rows.values():  # a share's rows, as raw bytes
            replies.write(memoryview(array).cast("B"))
        replies.flush()


def _load(net: Network, weights) -> None:
    for param, value in zip(net.params(), weights):
        param.value = value


def run_active_learning(dataset: Dataset, train_ids: np.ndarray,
                        val_ids: np.ndarray, cell: Cell, cfg: TrainConfig,
                        evaluator: Evaluator | None = None) -> RunReport:
    """Algorithm: train, evaluate, update the trigger, maybe query; repeat.

    The cell names the strategy, budget, iterations, seed and fold.
    Terminates once the budget can no longer be spent *and* validation DSC
    has been stale for ``early_stop`` epochs, or at ``max_epochs``. A query
    restarts that count as it restarts the trigger's: "stale" only counts
    epochs after the labeled set stopped changing.

    Given an ``evaluator`` forked on ``dataset``, the accuracy predictor
    trains there, from a copy of this run's initial AP, beside the
    segmentation net training here (see :func:`train_epoch`). A query
    waits for the AP's steps so far, and the AP's weights come back only
    before a query whose entry reads ``pred_acc`` and before the final
    calibration. An epoch whose val DSC cannot change the next step (see
    :func:`_val_decides`) does that step (its query, if one fires) at
    once, then sends its weights to the evaluator and trains the next
    epoch while the evaluator scores them; the stall count, best val DSC
    and the epoch's row, with its AP loss from the same reply, are settled
    before anything reads them. Only the epochs whose val DSC can fire a
    stall query or stop the run wait for it, and they fetch the epoch's AP
    loss from the evaluator. Every pass the run waits for (a query's, the
    calibration's and a waiting epoch's val DSC) runs half of its chunks
    in the evaluator (see :func:`_pool_inference`). An error raised here
    while the evaluator's work is unsettled is raised only after it is
    settled, and the evaluator's earliest error wins, as in the serial
    order. No output depends on the evaluator.
    """
    on_stall = STRATEGIES[cell.strategy].on_stall
    reads_ap = "pred_acc" in STRATEGIES[cell.strategy].needs
    val_ids = np.asarray(val_ids, dtype=np.int64)
    num_fg = dataset.num_fg

    state = init_pool(train_ids, cfg.init_ratio, cell.budget, cell.iterations,
                      seed=[cell.seed, cell.fold, 0xD1])
    seg = build_seg_model(num_fg + 1, seed=_subseed(cell.seed, cell.fold, 1))
    ap = build_ap_model(num_fg + 1, seed=_subseed(cell.seed, cell.fold, 2))
    if evaluator is not None:
        evaluator.start(ap)

    report = RunReport()
    best_val, stalled = float("-inf"), 0  # epochs since val DSC last rose
    in_flight = None  # (row, queried) of the epoch the evaluator scores

    def settle(row, queried, ap_loss, val_mean, val_class):
        nonlocal best_val, stalled
        # a tie or NaN stalls, and a query restarts the count
        stalled = 0 if val_mean > best_val or queried else stalled + 1
        best_val = max(best_val, val_mean)  # max keeps its first argument on a NaN
        report.epochs.append([*row, ap_loss, val_mean,
                              *(float(v) for v in val_class)])

    def collect():
        nonlocal in_flight
        (row, queried), in_flight = in_flight, None
        val = evaluator.result()
        settle(row, queried, evaluator.ap_loss, *val)

    try:
        for epoch in range(cfg.max_epochs):
            shuffle_rng = np.random.default_rng([cell.seed, cell.fold, 3, epoch])
            seg_loss, ap_loss = train_epoch(seg, ap, dataset, state.labeled,
                                            epoch, cfg, shuffle_rng, evaluator)
            if in_flight:
                collect()
            wait = (evaluator is None
                    or _val_decides(on_stall, cfg, stalled, state.can_query))
            if wait:
                val = evaluate(seg, dataset, val_ids, evaluator)
            # unless it waits, either count gives the same step
            rose = wait and val[0] > best_val
            query, stop = _next_step(on_stall, cfg, epoch,
                                     0 if rose else stalled + 1,
                                     len(state.schedule) - state.t + 1)
            if evaluator is not None and (wait or query):
                # the AP's steps come first, with the loss a waiting row reads
                ap_loss = evaluator.sync_ap(ap if query and reads_ap else None)
            if query:
                try:
                    report.queries += query_step(
                        state, seg, ap, cell.strategy, dataset,
                        query_seed=_subseed(cell.seed, cell.fold, 4, state.t),
                        evaluator=evaluator)
                except Exception:
                    if not wait:  # val DSC comes first, and its error wins
                        evaluate(seg, dataset, val_ids)
                    raise

            labeled = np.count_nonzero(state.is_labeled)
            row = [epoch, state.t, labeled, labeled / len(state.ids), seg_loss]
            if wait:
                settle(row, query, ap_loss, *val)
            else:
                evaluator.submit(seg, val_ids)
                in_flight = row, query
            if stop:
                break
        if in_flight:
            collect()

        if len(state.unlabeled):
            if evaluator is not None:
                evaluator.sync_ap(ap)
            out = _pool_inference(seg, ap, dataset, state.unlabeled,
                                  ("pred_acc", "actual"), evaluator)
            pred, actual = out["pred_acc"], out["actual"]
            report.calibration = [
                [int(sid), j + 1, float(pred[i, j]), float(actual[i, j])]
                for i, sid in enumerate(state.unlabeled) for j in range(num_fg)]
    except EvaluatorError:
        raise
    except Exception:
        # the evaluator's work comes first, and its earliest error wins
        if in_flight:
            collect()
        if evaluator is not None:
            evaluator.sync_ap()
        raise
    return report
