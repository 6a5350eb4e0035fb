"""Sample-selection policies, one entry each in the ``STRATEGIES`` table.

The headline strategy turns predicted per-class accuracies into query
weights (mean negative log), clusters the pool by pooled features, and polls
the clusters round-robin for their highest-weight members. The rest are the
usual uncertainty/diversity baselines. All tie-breaks go to the lowest
sample id (and lowest cluster index) so selections are reproducible.

Every fact about a strategy lives in its :class:`Strategy` entry: the
``QueryContext`` fields it reads (the orchestrator computes exactly those
and nothing else), whether it fires on the validation-stall trigger or on
the fixed epoch grid, and the function that picks the batch. Adding a
baseline is one new entry in ``STRATEGIES``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .kmeans import kmeans_fit
from .metrics import UNCERTAINTY_KINDS, uncertainty_scores

ENTROPY_KMEANS_CANDIDATE_FACTOR = 4

WEIGHT_CLIP_EPS = 1e-6


@dataclass
class QueryContext:
    """Everything a strategy may need about the current unlabeled pool.

    Per-sample arrays are aligned with ``ids``; a field a strategy does not
    declare in its ``needs`` may be left as None.
    """
    ids: np.ndarray
    b: int
    seed: int
    probs: np.ndarray | None = None             # (n, C, H, W) posteriors
    features: np.ndarray | None = None          # (n, dim) pooled embeddings
    pred_acc: np.ndarray | None = None          # (n, C_fg) predicted accuracy
    labeled_features: np.ndarray | None = None  # (m, dim), coreset only

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.b > len(self.ids):
            raise ValueError(f"batch size {self.b} exceeds pool size {len(self.ids)}")


def query_weights(pred_acc: np.ndarray, eps: float = WEIGHT_CLIP_EPS) -> np.ndarray:
    """Mean negative log of predicted per-class accuracy, clipped to [eps, 1].

    Low predicted accuracy on any class drives the weight up; the log mean
    amplifies classes the model is expected to get badly wrong.
    """
    p = np.clip(np.asarray(pred_acc, dtype=np.float64), eps, 1.0)
    return (-np.log(p)).mean(axis=1)


def cluster_count(b: int) -> int:
    """Number of clusters for a query batch of size b: floor(log2(4b) + 1)."""
    if b < 1:
        raise ValueError("batch size must be >= 1")
    return max(1, (4 * b).bit_length())


def _top_by_score(ids: np.ndarray, scores: np.ndarray, b: int) -> np.ndarray:
    """Highest-score ids first; equal scores break toward the lower id."""
    order = np.lexsort((ids, -np.asarray(scores, dtype=np.float64)))
    return ids[order[:b]]


def weighted_polling(assignments: np.ndarray, weights: np.ndarray,
                     ids: np.ndarray, b: int) -> np.ndarray:
    """Round-robin the clusters, taking each one's heaviest unselected member.

    Clusters are visited in order of descending maximum member weight
    (ties: lower cluster index first); exhausted clusters are skipped until
    b samples are drawn.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    if b > n:
        raise ValueError(f"cannot select {b} from {n} samples")
    weights = np.asarray(weights, dtype=np.float64)

    queues: dict[int, list[int]] = {}
    for cluster in np.unique(assignments):
        members = np.flatnonzero(assignments == cluster)
        order = np.lexsort((ids[members], -weights[members]))
        queues[int(cluster)] = list(members[order])
    visit = sorted(queues, key=lambda c: (-weights[queues[c][0]], c))

    selected: list[int] = []
    cursors = {c: 0 for c in visit}
    while len(selected) < b:
        progressed = False
        for c in visit:
            if len(selected) == b:
                break
            q = queues[c]
            if cursors[c] < len(q):
                selected.append(q[cursors[c]])
                cursors[c] += 1
                progressed = True
        if not progressed:
            raise RuntimeError("polling stalled before filling the batch")
    return ids[np.asarray(selected, dtype=np.int64)]


def coreset_select(labeled_features: np.ndarray, unlabeled_features: np.ndarray,
                   ids: np.ndarray, b: int) -> np.ndarray:
    """Greedy k-center: repeatedly take the point farthest from everything chosen."""
    ids = np.asarray(ids, dtype=np.int64)
    feats = np.asarray(unlabeled_features, dtype=np.float64)
    n = len(ids)
    if b > n:
        raise ValueError(f"cannot select {b} from {n} samples")
    labeled = np.asarray(labeled_features, dtype=np.float64).reshape(
        -1, feats.shape[1])

    if labeled.shape[0]:
        min_d = _min_dists(feats, labeled)
    else:
        # nothing labeled yet: anchor on the pool centroid
        min_d = _min_dists(feats, feats.mean(axis=0, keepdims=True))

    chosen: list[int] = []
    available = np.ones(n, dtype=bool)
    for _ in range(b):
        masked = np.where(available, min_d, -np.inf)
        best = masked.max()
        cand = np.flatnonzero((masked == best) & available)
        pick = cand[np.argmin(ids[cand])]
        chosen.append(int(pick))
        available[pick] = False
        min_d = np.minimum(min_d, _min_dists(feats, feats[pick:pick + 1]))
    return ids[np.asarray(chosen, dtype=np.int64)]


def _min_dists(points: np.ndarray, refs: np.ndarray) -> np.ndarray:
    best = np.full(points.shape[0], np.inf)
    for r in refs:
        diff = points - r
        best = np.minimum(best, np.einsum("nd,nd->n", diff, diff))
    return np.sqrt(best)


def _kmeans_diversity(features: np.ndarray, ids: np.ndarray, b: int,
                      seed: int) -> np.ndarray:
    """K-means with one cluster per slot, picking each cluster's most central member."""
    model = kmeans_fit(np.asarray(features, dtype=np.float64), b, seed)
    chosen: list[int] = []
    taken = np.zeros(len(ids), dtype=bool)
    for c in range(b):
        members = np.flatnonzero((model.assignments == c) & ~taken)
        if members.size == 0:
            continue
        diff = features[members] - model.centroids[c]
        d = np.einsum("nd,nd->n", diff.astype(np.float64), diff.astype(np.float64))
        order = np.lexsort((ids[members], d))
        pick = members[order[0]]
        chosen.append(int(pick))
        taken[pick] = True
    if len(chosen) < b:  # degenerate feature sets can empty clusters
        leftovers = np.flatnonzero(~taken)
        leftovers = leftovers[np.argsort(ids[leftovers])]
        chosen.extend(int(i) for i in leftovers[:b - len(chosen)])
    return ids[np.asarray(chosen, dtype=np.int64)]


def _pick_random(ctx: QueryContext):
    rng = np.random.default_rng(ctx.seed)
    return ctx.ids[rng.choice(len(ctx.ids), size=ctx.b, replace=False)], {}


def _pick_uncertain(kind: str):
    """Top-b by one uncertainty score, reporting the score as the weight."""
    def pick(ctx: QueryContext):
        scores = uncertainty_scores(kind, ctx.probs)
        selected = _top_by_score(ctx.ids, scores, ctx.b)
        return selected, {"weight": _lookup(ctx.ids, scores, selected)}
    return pick


def _pick_kmeans_diversity(ctx: QueryContext):
    return _kmeans_diversity(ctx.features, ctx.ids, ctx.b, ctx.seed), {}


def _pick_entropy_kmeans(ctx: QueryContext):
    """K-means diversity among the 4b highest-entropy candidates."""
    ids, b = ctx.ids, ctx.b
    scores = uncertainty_scores("max_entropy", ctx.probs)
    n_cand = min(ENTROPY_KMEANS_CANDIDATE_FACTOR * b, len(ids))
    pos = _positions(ids, _top_by_score(ids, scores, n_cand))
    selected = _kmeans_diversity(ctx.features[pos], ids[pos], b, ctx.seed)
    return selected, {"weight": _lookup(ids, scores, selected)}


def _pick_coreset(ctx: QueryContext):
    return coreset_select(ctx.labeled_features, ctx.features, ctx.ids, ctx.b), {}


def _pick_paal_ap_only(ctx: QueryContext):
    weights = query_weights(ctx.pred_acc)
    selected = _top_by_score(ctx.ids, weights, ctx.b)
    return selected, {"weight": _lookup(ctx.ids, weights, selected)}


def _pick_paal_full(ctx: QueryContext):
    """Predicted-accuracy weights polled round-robin over feature clusters."""
    ids, b = ctx.ids, ctx.b
    weights = query_weights(ctx.pred_acc)
    k = min(cluster_count(b), len(ids))
    model = kmeans_fit(np.asarray(ctx.features, dtype=np.float64), k, ctx.seed)
    selected = weighted_polling(model.assignments, weights, ids, b)
    return selected, {"weight": _lookup(ids, weights, selected),
                      "cluster": _lookup(ids, model.assignments, selected)}


@dataclass(frozen=True)
class Strategy:
    """One query policy: what it reads, when it fires, how it picks.

    ``needs`` names the ``QueryContext`` fields ``pick`` reads, in the order
    :func:`select` checks them. The orchestrator runs the models for exactly
    these fields, so an entry with no needs costs no inference.

    ``on_stall`` chooses the trigger: True fires a query once validation DSC
    has not improved for ``iq_patience`` epochs (incremental querying);
    False fires on the fixed grid of every ``baseline_query_interval``
    epochs.

    ``pick(ctx) -> (ids, info)`` returns ``ctx.b`` distinct pool ids and a
    dict of per-selected-sample diagnostics aligned with them: ``"weight"``
    (the score that drove the choice) and, for polling, ``"cluster"``.

    ``pick`` must call ``kmeans_fit``, ``uncertainty_scores``,
    ``coreset_select`` and ``weighted_polling`` by their names in this
    module at call time, never through a binding made at import (such as
    ``functools.partial(coreset_select, ...)``): the per-layer benchmark
    tracer patches those module globals to time them.
    """
    needs: tuple[str, ...]
    on_stall: bool
    pick: Callable[[QueryContext], tuple[np.ndarray, dict[str, np.ndarray]]]


STRATEGIES: dict[str, Strategy] = {
    "random": Strategy((), False, _pick_random),
    **{kind: Strategy(("probs",), False, _pick_uncertain(kind))
       for kind in UNCERTAINTY_KINDS},
    "kmeans_diversity": Strategy(("features",), False, _pick_kmeans_diversity),
    "entropy_kmeans": Strategy(("probs", "features"), False, _pick_entropy_kmeans),
    "coreset": Strategy(("features", "labeled_features"), False, _pick_coreset),
    "paal_ap_only": Strategy(("pred_acc",), True, _pick_paal_ap_only),
    "paal_full": Strategy(("pred_acc", "features"), True, _pick_paal_full),
}


def select(strategy: str, ctx: QueryContext
           ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Pick ``ctx.b`` distinct sample ids from the pool using ``strategy``.

    Returns the ids and the entry's per-selected-sample diagnostics (see
    :class:`Strategy`). Raises if the strategy is unknown or ``ctx`` lacks a
    field the strategy declares in its ``needs``.
    """
    entry = STRATEGIES.get(strategy)
    if entry is None:
        raise ValueError(f"unknown strategy {strategy!r}; valid: {', '.join(STRATEGIES)}")
    for name in entry.needs:
        if getattr(ctx, name) is None:
            raise ValueError(f"strategy {strategy!r} requires QueryContext.{name}")
    return entry.pick(ctx)


def _positions(ids: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    index = {int(s): i for i, s in enumerate(ids)}
    return np.asarray([index[int(s)] for s in wanted], dtype=np.int64)


def _lookup(ids: np.ndarray, values: np.ndarray, selected: np.ndarray) -> np.ndarray:
    return values[_positions(ids, selected)]
