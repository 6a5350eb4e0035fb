"""Sample-selection policies: each ``STRATEGIES`` entry is a score and a picker.

A score rates every pool sample, higher meaning more worth labeling: an
uncertainty kind of the posteriors, or the headline query weights (mean
negative log of the predicted per-class accuracies). A picker turns scores
into a batch: :func:`top_b`, :func:`polling` (round-robin over feature
clusters, the headline picker), :func:`diversity` (k-means, one cluster per
slot), :func:`coreset` or :func:`random`. An entry also names the
``QueryContext`` fields it reads, which the orchestrator computes and
nothing else, and its trigger. A new baseline is a score under an existing
picker: one line in ``STRATEGIES``.

Selections speak positions in ``QueryContext.ids``, never ids; helpers read
``ids`` only to break ties toward the lowest id, the one rule stated at
:func:`_top_by_score`. The score is the query's weight column.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .kmeans import kmeans_fit, sq_dists
from .metrics import UNCERTAINTY_KINDS, uncertainty_scores

ENTROPY_KMEANS_CANDIDATE_FACTOR = 4

WEIGHT_CLIP_EPS = 1e-6

Picked = tuple[np.ndarray, np.ndarray | None]  # (pos, cluster)
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


def _uncertainty(kind: str) -> Callable[[QueryContext], np.ndarray]:
    return lambda ctx: uncertainty_scores(kind, ctx.probs)


def _accuracy(ctx: QueryContext) -> np.ndarray:
    return query_weights(ctx.pred_acc)


def top_b(ctx: QueryContext, scores: np.ndarray) -> Picked:
    return _top_by_score(ctx.ids, scores, ctx.b), None


def polling(ctx: QueryContext, scores: np.ndarray) -> Picked:
    """Scores polled round-robin over ``cluster_count(b)`` feature clusters."""
    k = min(cluster_count(ctx.b), len(ctx.ids))
    model = kmeans_fit(ctx.features, k, ctx.seed)
    return weighted_polling(model.assignments, scores, ctx.ids, ctx.b), model.assignments


def diversity(ctx: QueryContext, scores: np.ndarray | None) -> Picked:
    """K-means diversity over the pool, or over its top
    ``ENTROPY_KMEANS_CANDIDATE_FACTOR * b`` by score when there is one."""
    ids, b = ctx.ids, ctx.b
    cand = np.arange(len(ids)) if scores is None else _top_by_score(
        ids, scores, min(ENTROPY_KMEANS_CANDIDATE_FACTOR * b, len(ids)))
    return cand[_kmeans_diversity(ctx.features[cand], ids[cand], b, ctx.seed)], None


def coreset(ctx: QueryContext, scores: None) -> Picked:
    return coreset_select(ctx.labeled_features, ctx.features, ctx.ids, ctx.b), None


def random(ctx: QueryContext, scores: None) -> Picked:
    rng = np.random.default_rng(ctx.seed)
    return rng.choice(len(ctx.ids), size=ctx.b, replace=False), None


@dataclass(frozen=True)
class Strategy:
    """One query policy: what it reads, when it fires, its score and picker.

    ``needs`` names the ``QueryContext`` fields ``score`` and ``pick`` read,
    in the order :func:`select` checks them. The orchestrator runs the
    models for exactly these fields, so an entry with no needs costs no
    inference.

    ``on_stall`` chooses the trigger: True fires a query once validation DSC
    has not improved for ``iq_patience`` epochs (incremental querying);
    False fires on the fixed grid of every ``query_interval`` epochs.

    ``score(ctx)`` returns one score per pool sample, higher meaning more
    worth labeling; an entry with no score (None) picks by features or at
    random. ``pick(ctx, scores) -> (pos, cluster)`` returns the ``ctx.b``
    distinct positions in ``ctx.ids`` it picked, in pick order, and each
    pool sample's cluster where it polls clusters (else None).

    Scores and pickers must call ``kmeans_fit``, ``uncertainty_scores``,
    ``coreset_select`` and ``weighted_polling`` by their names in this
    module at call time, never through a binding made at import (such as
    ``functools.partial(coreset_select, ...)``): the per-layer benchmark
    tracer patches those module globals to time them. For the same reason
    those names get no new call sites, which would change what they time.
    ``tests/test_traced_names.py`` enforces both.
    """
    needs: tuple[str, ...]
    on_stall: bool
    score: Callable[[QueryContext], np.ndarray] | None
    pick: Callable[[QueryContext, np.ndarray | None], Picked]


STRATEGIES: dict[str, Strategy] = {
    "random": Strategy((), False, None, random),
    **{kind: Strategy(("probs",), False, _uncertainty(kind), top_b)
       for kind in UNCERTAINTY_KINDS},
    "kmeans_diversity": Strategy(("features",), False, None, diversity),
    "entropy_kmeans": Strategy(("probs", "features"), False,
                               _uncertainty("max_entropy"), diversity),
    "coreset": Strategy(("features", "labeled_features"), False, None, coreset),
    "paal_ap_only": Strategy(("pred_acc",), True, _accuracy, top_b),
    "paal_full": Strategy(("pred_acc", "features"), True, _accuracy, polling),
}


def select(strategy: str, ctx: QueryContext) -> Selection:
    """Pick ``ctx.b`` distinct pool positions using ``strategy``.

    Returns the positions in pick order, the entry's scores (the weights)
    and the picker's clusters, each pool-aligned or None (see
    :class:`Strategy`). Raises if the strategy is unknown or ``ctx`` lacks a
    field the strategy declares in its ``needs``.
    """
    entry = STRATEGIES.get(strategy)
    if entry is None:
        raise ValueError(f"unknown strategy {strategy!r}; valid: {', '.join(STRATEGIES)}")
    for name in entry.needs:
        if getattr(ctx, name) is None:
            raise ValueError(f"strategy {strategy!r} requires QueryContext.{name}")
    scores = None if entry.score is None else entry.score(ctx)
    pos, cluster = entry.pick(ctx, scores)
    return pos, scores, cluster

