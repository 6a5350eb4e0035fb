"""Sample-selection policies, one entry each in the ``STRATEGIES`` table.

The headline strategy turns predicted per-class accuracies into query
weights (mean negative log), clusters the pool by pooled features, and polls
the clusters round-robin for their highest-weight members. The rest are the
usual uncertainty/diversity baselines. Every ranking breaks ties by the one
rule stated at :func:`_top_by_score`, so selections are reproducible.

Every fact about a strategy lives in its :class:`Strategy` entry: the
``QueryContext`` fields it reads (the orchestrator computes exactly those
and nothing else), whether it fires on the validation-stall trigger or on
the fixed epoch grid, and the function that picks the batch. Adding a
baseline is one new entry in ``STRATEGIES``.

Selections speak positions in ``QueryContext.ids``, never ids: a pick
returns the positions it chose plus pool-aligned weights and clusters, and
the selection helpers read ``ids`` only to break ties toward the lowest id.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .kmeans import kmeans_fit, sq_dists
from .metrics import UNCERTAINTY_KINDS, uncertainty_scores

ENTROPY_KMEANS_CANDIDATE_FACTOR = 4

WEIGHT_CLIP_EPS = 1e-6

Selection = tuple[np.ndarray, np.ndarray | None, np.ndarray | None]


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


def query_weights(pred_acc: np.ndarray) -> np.ndarray:
    """Mean negative log of predicted per-class accuracy, clipped to [WEIGHT_CLIP_EPS, 1].

    Low predicted accuracy on any class drives the weight up; the log mean
    amplifies classes the model is expected to get badly wrong.
    """
    p = np.clip(np.asarray(pred_acc, dtype=np.float64), WEIGHT_CLIP_EPS, 1.0)
    return (-np.log(p)).mean(axis=1)


def cluster_count(b: int) -> int:
    """Number of clusters for a query batch of size b: floor(log2(4b) + 1)."""
    if b < 1:
        raise ValueError("batch size must be >= 1")
    return max(1, (4 * b).bit_length())


def _top_by_score(ids: np.ndarray, scores: np.ndarray, b: int) -> np.ndarray:
    """Positions of the b highest scores. The package's one tie rule: equal
    scores go to the lower sample id, and tied clusters to the lower index.

    Only the scores at or above the b-th highest are sorted (NaN, which
    sorts last, stays a candidate), so one pick is a linear pass.
    """
    key = -np.asarray(scores, dtype=np.float64)
    cand = np.arange(len(key))
    if 0 < b < len(key):
        cand = np.flatnonzero(~(key > np.partition(key, b - 1)[b - 1]))
    return cand[np.lexsort((ids[cand], key[cand]))[:b]]


def weighted_polling(assignments: np.ndarray, weights: np.ndarray,
                     ids: np.ndarray, b: int) -> np.ndarray:
    """Positions of b samples polled round-robin over the clusters.

    Round r takes the r-th heaviest member of every cluster that has one,
    visiting clusters in order of descending maximum member weight.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    if b > n:
        raise ValueError(f"cannot select {b} from {n} samples")
    weights = np.asarray(weights, dtype=np.float64)
    assignments = np.asarray(assignments)

    # each cluster's members, heaviest first; rank = place within the cluster
    order = np.lexsort((ids, -weights, assignments))
    clusters = assignments[order]
    heads = np.flatnonzero(np.r_[True, clusters[1:] != clusters[:-1]])
    sizes = np.diff(np.r_[heads, n])
    rank = np.arange(n) - np.repeat(heads, sizes)
    # each cluster's place in a round: by its heaviest member, then index
    visit = np.empty(len(heads), dtype=np.int64)
    visit[np.lexsort((clusters[heads], -weights[order[heads]]))] = np.arange(len(heads))
    return order[np.lexsort((np.repeat(visit, sizes), rank))[:b]]


def coreset_select(labeled_features: np.ndarray, unlabeled_features: np.ndarray,
                   ids: np.ndarray, b: int) -> np.ndarray:
    """Greedy k-center: positions of the points farthest from everything chosen."""
    ids = np.asarray(ids, dtype=np.int64)
    feats = np.asarray(unlabeled_features, dtype=np.float64)
    if b > len(ids):
        raise ValueError(f"cannot select {b} from {len(ids)} samples")
    refs = np.asarray(labeled_features, dtype=np.float64).reshape(-1, feats.shape[1])
    if not refs.shape[0]:  # nothing labeled yet: anchor on the pool centroid
        refs = feats.mean(axis=0, keepdims=True)
    # roots, not squares: two squares can share a root, a tie the lower id wins
    min_d = np.sqrt(sq_dists(feats, refs).min(axis=1))
    chosen = np.empty(b, dtype=np.int64)
    for i in range(b):
        pick = chosen[i] = _top_by_score(ids, min_d, 1)[0]
        min_d = np.minimum(min_d, np.sqrt(sq_dists(feats, feats[pick:pick + 1])[:, 0]))
        min_d[pick] = -np.inf
    return chosen


def _kmeans_diversity(features: np.ndarray, ids: np.ndarray, b: int,
                      seed: int) -> np.ndarray:
    """K-means with one cluster per slot; positions of the most central members."""
    model = kmeans_fit(features, b, seed)
    assign = model.assignments
    # each cluster's member nearest its centroid, by cluster; the slots of
    # clusters a degenerate feature set emptied go to the rest by lowest id
    order = np.lexsort((ids, model.own_sq_dists, assign))
    head = np.r_[True, np.diff(assign[order]) != 0]
    rest = order[~head]
    return np.r_[order[head], rest[np.argsort(ids[rest])]][:b]


def _pick_random(ctx: QueryContext) -> Selection:
    rng = np.random.default_rng(ctx.seed)
    return rng.choice(len(ctx.ids), size=ctx.b, replace=False), None, None


def _pick_uncertain(kind: str):
    """Top-b by one uncertainty score, reporting the score as the weight."""
    def pick(ctx: QueryContext) -> Selection:
        scores = uncertainty_scores(kind, ctx.probs)
        return _top_by_score(ctx.ids, scores, ctx.b), scores, None
    return pick


def _pick_kmeans_diversity(ctx: QueryContext) -> Selection:
    return _kmeans_diversity(ctx.features, ctx.ids, ctx.b, ctx.seed), None, None


def _pick_entropy_kmeans(ctx: QueryContext) -> Selection:
    """K-means diversity among the 4b highest-entropy candidates."""
    ids, b = ctx.ids, ctx.b
    scores = uncertainty_scores("max_entropy", ctx.probs)
    n_cand = min(ENTROPY_KMEANS_CANDIDATE_FACTOR * b, len(ids))
    cand = _top_by_score(ids, scores, n_cand)
    pos = cand[_kmeans_diversity(ctx.features[cand], ids[cand], b, ctx.seed)]
    return pos, scores, None


def _pick_coreset(ctx: QueryContext) -> Selection:
    pos = coreset_select(ctx.labeled_features, ctx.features, ctx.ids, ctx.b)
    return pos, None, None


def _pick_paal_ap_only(ctx: QueryContext) -> Selection:
    weights = query_weights(ctx.pred_acc)
    return _top_by_score(ctx.ids, weights, ctx.b), weights, None


def _pick_paal_full(ctx: QueryContext) -> Selection:
    """Predicted-accuracy weights polled round-robin over feature clusters."""
    weights = query_weights(ctx.pred_acc)
    k = min(cluster_count(ctx.b), len(ctx.ids))
    model = kmeans_fit(ctx.features, k, ctx.seed)
    pos = weighted_polling(model.assignments, weights, ctx.ids, ctx.b)
    return pos, weights, model.assignments


@dataclass(frozen=True)
class Strategy:
    """One query policy: what it reads, when it fires, how it picks.

    ``needs`` names the ``QueryContext`` fields ``pick`` reads, in the order
    :func:`select` checks them. The orchestrator runs the models for exactly
    these fields, so an entry with no needs costs no inference.

    ``on_stall`` chooses the trigger: True fires a query once validation DSC
    has not improved for ``iq_patience`` epochs (incremental querying);
    False fires on the fixed grid of every ``query_interval`` epochs.

    ``pick(ctx) -> (pos, weight, cluster)`` returns the ``ctx.b`` distinct
    positions in ``ctx.ids`` it picked, in pick order, plus two diagnostics
    aligned with the whole pool (length ``len(ctx.ids)``) or None: the
    score that drove the choice, and, for polling, each sample's cluster.

    ``pick`` must call ``kmeans_fit``, ``uncertainty_scores``,
    ``coreset_select`` and ``weighted_polling`` by their names in this
    module at call time, never through a binding made at import (such as
    ``functools.partial(coreset_select, ...)``): the per-layer benchmark
    tracer patches those module globals to time them. For the same reason
    those names get no new call sites, which would change what they time.
    """
    needs: tuple[str, ...]
    on_stall: bool
    pick: Callable[[QueryContext], Selection]


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


def select(strategy: str, ctx: QueryContext) -> Selection:
    """Pick ``ctx.b`` distinct pool positions using ``strategy``.

    Returns the positions and the pool-aligned weights and clusters (see
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

