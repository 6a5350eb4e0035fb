"""Selection policies: weight formula, sizing, polling, coreset, dispatch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paal.kmeans import _lloyd, kmeans_fit
from paal.metrics import UNCERTAINTY_KINDS, uncertainty_scores
from paal.strategies import (STRATEGIES, QueryContext, _kmeans_diversity,
                             _top_by_score, cluster_count, coreset_select,
                             polling, query_weights, select, weighted_polling)

INPUT_FIELDS = ("probs", "features", "pred_acc", "labeled_features")

# each scored entry's score, stated apart from the table; the rest have none
EXPECTED_SCORES = {
    **{kind: (lambda ctx, kind=kind: uncertainty_scores(kind, ctx.probs))
       for kind in UNCERTAINTY_KINDS},
    "entropy_kmeans": lambda ctx: uncertainty_scores("max_entropy", ctx.probs),
    "paal_ap_only": lambda ctx: query_weights(ctx.pred_acc),
    "paal_full": lambda ctx: query_weights(ctx.pred_acc),
}


def make_ctx(rng, n=20, b=5, classes=3, dim=4, seed=0, fields=INPUT_FIELDS):
    """A context over ids 100.., holding only the named input fields."""
    probs_raw = rng.uniform(0.1, 1.0, size=(n, 4, 2, 2))
    inputs = dict(
        probs=probs_raw / probs_raw.sum(axis=1, keepdims=True),
        features=rng.normal(size=(n, dim)),
        pred_acc=rng.uniform(0.01, 1.0, size=(n, classes)),
        labeled_features=rng.normal(size=(7, dim)))
    return QueryContext(ids=np.arange(100, 100 + n), b=b, seed=seed,
                        **{f: inputs[f] for f in fields})


# few distinct values, so most scores tie; NaN sorts last in a full sort
TIED_SCORES = st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf,
                                        np.nan]), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(TIED_SCORES, st.data())
def test_top_by_score_equals_the_full_sort(values, data):
    n = len(values)
    b = data.draw(st.integers(0, n))
    ids = np.array(data.draw(st.permutations(range(100, 100 + n))), dtype=np.int64)
    scores = np.array(values)
    want = np.lexsort((ids, -scores))[:b]
    assert _top_by_score(ids, scores, b).tolist() == want.tolist()


class TestQueryWeights:
    def test_perfect_predictions_give_zero_weight(self):
        w = query_weights(np.ones((3, 4)))
        np.testing.assert_array_equal(w, 0.0)

    def test_half_accuracy_two_classes(self):
        w = query_weights(np.array([[0.5, 0.5]]))
        assert w[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_prediction_is_clipped(self):
        w = query_weights(np.array([[0.0, 1.0]]))
        assert w[0] == pytest.approx(-math.log(1e-6) / 2, abs=1e-9)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 1, size=(50, 3))
        w = query_weights(p)
        for i in range(50):
            direct = sum(-math.log(max(min(v, 1.0), 1e-6)) for v in p[i]) / 3
            assert w[i] == pytest.approx(direct, abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_each_prediction(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.01, 1.0, size=(1, 3))
        w0 = query_weights(p)[0]
        j = int(rng.integers(3))
        p2 = p.copy()
        p2[0, j] *= 0.5  # lower predicted accuracy
        assert query_weights(p2)[0] >= w0


class TestClusterCount:
    @pytest.mark.parametrize("b,expected", [(1, 3), (8, 6), (100, 9)])
    def test_formula_examples(self, b, expected):
        assert cluster_count(b) == expected

    def test_integer_exact_across_range(self):
        for b in range(1, 1025):
            assert cluster_count(b) == int(math.floor(math.log2(4 * b) + 1))

    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError):
            cluster_count(0)


def polling_reference(assignments, weights, ids, b):
    """Weighted polling as a queue per cluster and a cursor per queue: the
    loop the closed form in ``weighted_polling`` replaced. Returns ids."""
    queues = {}
    for cluster in np.unique(assignments):
        members = np.flatnonzero(assignments == cluster)
        order = np.lexsort((ids[members], -weights[members]))
        queues[int(cluster)] = list(members[order])
    visit = sorted(queues, key=lambda c: (-weights[queues[c][0]], c))
    selected = []
    cursors = {c: 0 for c in visit}
    while len(selected) < b:
        for c in visit:
            if len(selected) == b:
                break
            if cursors[c] < len(queues[c]):
                selected.append(queues[c][cursors[c]])
                cursors[c] += 1
    return ids[np.asarray(selected, dtype=np.int64)]


class TestWeightedPolling:
    def test_single_cluster_degenerates_to_top_b(self):
        ids = np.array([10, 11, 12, 13, 14])
        weights = np.array([0.1, 5.0, 3.0, 4.0, 0.2])
        got = ids[weighted_polling(np.zeros(5, dtype=int), weights, ids, 3)]
        np.testing.assert_array_equal(got, [11, 13, 12])

    def test_hand_traced_two_cluster_case(self):
        # cluster A weights (5, 1), cluster B weights (4, 3); b=2
        ids = np.array([0, 1, 2, 3])
        assignments = np.array([0, 0, 1, 1])
        weights = np.array([5.0, 1.0, 4.0, 3.0])
        got = ids[weighted_polling(assignments, weights, ids, 2)]
        np.testing.assert_array_equal(got, [0, 2])

    def test_full_pool_selection(self):
        ids = np.arange(6)
        got = ids[weighted_polling(np.array([0, 1, 0, 1, 0, 1]),
                                   np.arange(6, dtype=float), ids, 6)]
        assert sorted(got) == list(range(6))

    def test_higher_weight_cluster_gets_first_pick(self):
        ids = np.arange(4)
        assignments = np.array([0, 0, 1, 1])
        weights = np.array([1.0, 0.5, 9.0, 0.4])
        got = ids[weighted_polling(assignments, weights, ids, 1)]
        np.testing.assert_array_equal(got, [2])

    def test_weight_ties_break_to_lowest_id(self):
        ids = np.array([7, 3, 5])
        got = ids[weighted_polling(np.zeros(3, dtype=int), np.ones(3), ids, 2)]
        np.testing.assert_array_equal(got, [3, 5])

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError):
            weighted_polling(np.zeros(3, dtype=int), np.ones(3),
                             np.arange(3), 4)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_polling_properties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, min(n, 8) + 1))
        b = int(rng.integers(1, n + 1))
        ids = rng.choice(1000, size=n, replace=False)
        assignments = rng.integers(0, k, size=n)
        # dyadic weights so positive scaling by powers of two is exact
        weights = rng.integers(0, 256, size=n) / 16.0

        got = ids[weighted_polling(assignments, weights, ids, b)]
        assert len(got) == b and len(set(got)) == b
        assert set(got) <= set(ids)

        scaled = ids[weighted_polling(assignments, weights * 4.0, ids, b)]
        np.testing.assert_array_equal(got, scaled)

        counts = {}
        for sid in got:
            c = int(assignments[list(ids).index(sid)])
            counts[c] = counts.get(c, 0) + 1
        sizes = {c: int((assignments == c).sum()) for c in set(assignments)}
        n_clusters = len(sizes)
        if all(s >= math.ceil(b / n_clusters) for s in sizes.values()):
            for c in sizes:
                assert counts.get(c, 0) in (b // n_clusters,
                                            -(-b // n_clusters))


    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_round_robin_reference(self, data):
        n = data.draw(st.integers(1, 40))
        b = data.draw(st.integers(1, n))
        ids = np.array(data.draw(st.lists(st.integers(0, 999), min_size=n,
                                          max_size=n, unique=True)))
        assignments = np.array(data.draw(st.lists(st.integers(0, 6),
                                                  min_size=n, max_size=n)))
        # dyadic weights on a coarse grid, so equal weights are common
        weights = np.array(data.draw(st.lists(st.integers(0, 8), min_size=n,
                                              max_size=n))) / 4.0
        np.testing.assert_array_equal(
            ids[weighted_polling(assignments, weights, ids, b)],
            polling_reference(assignments, weights, ids, b))


def coreset_reference(labeled_features, unlabeled_features, ids, b):
    """Greedy k-center as an availability mask and a per-reference distance
    loop: the code ``coreset_select`` replaced. Returns positions."""
    def min_dists(points, refs):
        best = np.full(points.shape[0], np.inf)
        for r in refs:
            diff = points - r
            best = np.minimum(best, np.einsum("nd,nd->n", diff, diff))
        return np.sqrt(best)

    feats = np.asarray(unlabeled_features, dtype=np.float64)
    labeled = np.asarray(labeled_features, dtype=np.float64).reshape(
        -1, feats.shape[1])
    if labeled.shape[0]:
        min_d = min_dists(feats, labeled)
    else:
        min_d = min_dists(feats, feats.mean(axis=0, keepdims=True))
    chosen = []
    available = np.ones(len(ids), dtype=bool)
    for _ in range(b):
        masked = np.where(available, min_d, -np.inf)
        best = masked.max()
        cand = np.flatnonzero((masked == best) & available)
        pick = cand[np.argmin(ids[cand])]
        chosen.append(int(pick))
        available[pick] = False
        min_d = np.minimum(min_d, min_dists(feats, feats[pick:pick + 1]))
    return np.asarray(chosen, dtype=np.int64)


def kmeans_diversity_reference(features, ids, b, seed):
    """K-means diversity as a loop over clusters: the code the one sort in
    ``_kmeans_diversity`` replaced. Returns positions."""
    model = kmeans_fit(np.asarray(features, dtype=np.float64), b, seed)
    centroids = _lloyd(np.asarray(features, dtype=np.float64), b, seed)[0]
    chosen = []
    taken = np.zeros(len(ids), dtype=bool)
    for c in range(b):
        members = np.flatnonzero((model.assignments == c) & ~taken)
        if members.size == 0:
            continue
        diff = features[members] - centroids[c]
        d = np.einsum("nd,nd->n", diff.astype(np.float64), diff.astype(np.float64))
        order = np.lexsort((ids[members], d))
        pick = members[order[0]]
        chosen.append(int(pick))
        taken[pick] = True
    if len(chosen) < b:
        leftovers = np.flatnonzero(~taken)
        leftovers = leftovers[np.argsort(ids[leftovers])]
        chosen.extend(int(i) for i in leftovers[:b - len(chosen)])
    return np.asarray(chosen, dtype=np.int64)


@st.composite
def grid_problems(draw, max_labeled=6):
    """Features on a coarse integer grid, so ties, duplicate points and
    emptied clusters are common; ids unique but in no particular order."""
    n = draw(st.integers(1, 30))
    dim = draw(st.integers(1, 3))
    b = draw(st.integers(1, n))
    top = draw(st.integers(0, 3))
    dtype = draw(st.sampled_from([np.float64, np.float32]))

    def grid(rows):
        return np.array(draw(st.lists(st.integers(-top, top), min_size=rows * dim,
                                      max_size=rows * dim)),
                        dtype=dtype).reshape(rows, dim)
    ids = np.array(draw(st.lists(st.integers(0, 999), min_size=n, max_size=n,
                                 unique=True)), dtype=np.int64)
    labeled = grid(draw(st.integers(0, max_labeled)))
    return grid(n), labeled, ids, b, draw(st.integers(0, 2 ** 31 - 1))


class TestSelectionsMatchTheLoops:
    """Each selection helper returns the positions its loop reference
    returns, in the same order."""

    @given(grid_problems())
    @settings(max_examples=200, deadline=None)
    def test_coreset(self, problem):
        feats, labeled, ids, b, _ = problem
        np.testing.assert_array_equal(coreset_select(labeled, feats, ids, b),
                                      coreset_reference(labeled, feats, ids, b))

    @given(grid_problems(max_labeled=0))
    @settings(max_examples=200, deadline=None)
    def test_kmeans_diversity(self, problem):
        feats, _, ids, b, seed = problem
        np.testing.assert_array_equal(
            _kmeans_diversity(feats, ids, b, seed),
            kmeans_diversity_reference(feats, ids, b, seed))

    @pytest.mark.parametrize("m", [0, 3], ids=["empty_labeled", "three_labeled"])
    def test_all_zero_features(self, m):
        feats, ids = np.zeros((12, 4)), np.arange(30, 18, -1)
        for b in (1, 5, 12):
            np.testing.assert_array_equal(
                coreset_select(np.zeros((m, 4)), feats, ids, b),
                coreset_reference(np.zeros((m, 4)), feats, ids, b))
            np.testing.assert_array_equal(
                _kmeans_diversity(feats, ids, b, 3),
                kmeans_diversity_reference(feats, ids, b, 3))

    def test_empty_labeled_on_random_features(self):
        rng = np.random.default_rng(17)
        feats, ids = rng.normal(size=(40, 5)), rng.permutation(40) + 100
        np.testing.assert_array_equal(
            coreset_select(np.zeros((0, 5)), feats, ids, 9),
            coreset_reference(np.zeros((0, 5)), feats, ids, 9))


class TestCoreset:
    def test_farthest_point_on_a_line(self):
        labeled = np.zeros((1, 1))
        unlabeled = np.array([[1.0], [4.0], [2.0]])
        ids = np.array([5, 6, 7])
        got = ids[coreset_select(labeled, unlabeled, ids, 1)]
        np.testing.assert_array_equal(got, [6])

    def test_symmetric_cross_picks_opposite_extremes(self):
        labeled = np.zeros((1, 2))
        pts = np.array([[3.0, 0], [-3.0, 0], [0, 2.0], [0, -2.0]])
        ids = np.array([0, 1, 2, 3])
        got = coreset_select(labeled, pts, ids, 2)
        # brute force over all pairs: the two x-extremes maximize coverage
        assert set(got) == {0, 1}

    def test_empty_labeled_starts_from_pool_centroid(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        ids = np.array([1, 2, 3])
        got = ids[coreset_select(np.zeros((0, 1)), pts, ids, 1)]
        np.testing.assert_array_equal(got, [3])  # farthest from mean (~3.7)

    def test_selection_is_distinct_and_sized(self):
        rng = np.random.default_rng(3)
        got = coreset_select(rng.normal(size=(4, 3)), rng.normal(size=(20, 3)),
                             np.arange(20), 9)
        assert len(got) == 9 and len(set(got)) == 9


class TestSelect:
    def test_unknown_strategy_rejected(self):
        ctx = make_ctx(np.random.default_rng(0))
        with pytest.raises(ValueError, match="unknown strategy"):
            select("gradient_badge", ctx)

    def test_random_is_reproducible(self):
        rng = np.random.default_rng(1)
        ctx = make_ctx(rng, seed=42)
        a, _, _ = select("random", ctx)
        b, _, _ = select("random", ctx)
        np.testing.assert_array_equal(a, b)

    def test_every_strategy_returns_b_distinct_pool_ids(self):
        rng = np.random.default_rng(2)
        ctx = make_ctx(rng, n=25, b=6)
        for strategy in STRATEGIES:
            got = ctx.ids[select(strategy, ctx)[0]]
            assert len(got) == 6, strategy
            assert len(set(got.tolist())) == 6, strategy
            assert set(got.tolist()) <= set(ctx.ids.tolist()), strategy

    def test_max_entropy_prefers_uniform_posterior(self):
        n = 8
        probs = np.zeros((n, 4, 2, 2))
        probs[:, 0] = 1.0  # one-hot everywhere
        probs[5] = 0.25    # except one uniform sample
        ctx = QueryContext(ids=np.arange(n), b=1, seed=0, probs=probs)
        np.testing.assert_array_equal(ctx.ids[select("max_entropy", ctx)[0]], [5])

    def test_paal_ap_only_is_top_b_of_weights(self):
        rng = np.random.default_rng(3)
        ctx = make_ctx(rng, n=30, b=7)
        got = ctx.ids[select("paal_ap_only", ctx)[0]]
        w = query_weights(ctx.pred_acc)
        order = np.lexsort((ctx.ids, -w))
        np.testing.assert_array_equal(np.sort(got), np.sort(ctx.ids[order[:7]]))

    def test_paal_full_with_one_cluster_matches_ap_only(self):
        rng = np.random.default_rng(4)
        ctx = make_ctx(rng, n=10, b=4)
        ctx.features = np.zeros((10, 2))  # all points identical -> one real cluster
        full = set(select("paal_full", ctx)[0].tolist())
        ap = set(select("paal_ap_only", ctx)[0].tolist())
        assert full == ap

    def test_declared_needs_suffice(self):
        for strategy, entry in STRATEGIES.items():
            ctx = make_ctx(np.random.default_rng(8), n=12, b=3,
                           fields=entry.needs)
            got, _, _ = select(strategy, ctx)
            assert len(set(got.tolist())) == 3, strategy

    def test_missing_fields_raise_by_strategy(self):
        for strategy, entry in STRATEGIES.items():
            for missing in entry.needs:
                ctx = make_ctx(np.random.default_rng(9), n=12, b=3,
                               fields=[f for f in entry.needs if f != missing])
                with pytest.raises(ValueError,
                                   match=f"{strategy}' requires QueryContext.{missing}$"):
                    select(strategy, ctx)

    def test_batch_larger_than_pool_rejected(self):
        with pytest.raises(ValueError, match="exceeds pool"):
            QueryContext(ids=np.arange(3), b=4, seed=0)

    def test_info_reports_weights_and_clusters(self):
        # the weight column is the entry's score; clusters come from polling
        ctx = make_ctx(np.random.default_rng(5), n=20, b=5)
        for strategy, entry in STRATEGIES.items():
            pos, weight, cluster = select(strategy, ctx)
            want = EXPECTED_SCORES.get(strategy)
            if want is None:
                assert weight is None and entry.score is None, strategy
            else:
                assert weight.tobytes() == want(ctx).tobytes(), strategy
                assert weight.tobytes() == entry.score(ctx).tobytes(), strategy
            if entry.pick is polling:
                assert len(cluster) == 20
                assert len(set(cluster[pos].tolist())) == 5
            else:
                assert cluster is None, strategy

    def test_entropy_kmeans_selects_from_high_entropy_candidates(self):
        rng = np.random.default_rng(6)
        n = 24
        probs = np.zeros((n, 4, 2, 2))
        probs[:, 1] = 1.0
        hot = [0, 3, 7, 11]  # only these have any entropy
        for i in hot:
            probs[i] = 0.25
        ctx = QueryContext(ids=np.arange(n), b=1, seed=0, probs=probs,
                           features=rng.normal(size=(n, 3)))
        got = ctx.ids[select("entropy_kmeans", ctx)[0]]
        assert got[0] in hot
