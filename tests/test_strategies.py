"""Selection policies: weight formula, sizing, polling, coreset, dispatch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paal.strategies import (STRATEGIES, QueryContext, cluster_count,
                             coreset_select, query_weights, select,
                             weighted_polling)

INPUT_FIELDS = ("probs", "features", "pred_acc", "labeled_features")


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


class TestQueryWeights:
    def test_perfect_predictions_give_zero_weight(self):
        w = query_weights(np.ones((3, 4)))
        np.testing.assert_array_equal(w, 0.0)

    def test_half_accuracy_two_classes(self):
        w = query_weights(np.array([[0.5, 0.5]]))
        assert w[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_prediction_is_clipped(self):
        w = query_weights(np.array([[0.0, 1.0]]), eps=1e-6)
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


class TestWeightedPolling:
    def test_single_cluster_degenerates_to_top_b(self):
        ids = np.array([10, 11, 12, 13, 14])
        weights = np.array([0.1, 5.0, 3.0, 4.0, 0.2])
        got = weighted_polling(np.zeros(5, dtype=int), weights, ids, 3)
        np.testing.assert_array_equal(got, [11, 13, 12])

    def test_hand_traced_two_cluster_case(self):
        # cluster A weights (5, 1), cluster B weights (4, 3); b=2
        ids = np.array([0, 1, 2, 3])
        assignments = np.array([0, 0, 1, 1])
        weights = np.array([5.0, 1.0, 4.0, 3.0])
        got = weighted_polling(assignments, weights, ids, 2)
        np.testing.assert_array_equal(got, [0, 2])

    def test_full_pool_selection(self):
        ids = np.arange(6)
        got = weighted_polling(np.array([0, 1, 0, 1, 0, 1]),
                               np.arange(6, dtype=float), ids, 6)
        assert sorted(got) == list(range(6))

    def test_higher_weight_cluster_gets_first_pick(self):
        ids = np.arange(4)
        assignments = np.array([0, 0, 1, 1])
        weights = np.array([1.0, 0.5, 9.0, 0.4])
        got = weighted_polling(assignments, weights, ids, 1)
        np.testing.assert_array_equal(got, [2])

    def test_weight_ties_break_to_lowest_id(self):
        ids = np.array([7, 3, 5])
        got = weighted_polling(np.zeros(3, dtype=int), np.ones(3), ids, 2)
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

        got = weighted_polling(assignments, weights, ids, b)
        assert len(got) == b and len(set(got)) == b
        assert set(got) <= set(ids)

        scaled = weighted_polling(assignments, weights * 4.0, ids, b)
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


class TestCoreset:
    def test_farthest_point_on_a_line(self):
        labeled = np.zeros((1, 1))
        unlabeled = np.array([[1.0], [4.0], [2.0]])
        got = coreset_select(labeled, unlabeled, np.array([5, 6, 7]), 1)
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
        got = coreset_select(np.zeros((0, 1)), pts, np.array([1, 2, 3]), 1)
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
        a, _ = select("random", ctx)
        b, _ = select("random", ctx)
        np.testing.assert_array_equal(a, b)

    def test_every_strategy_returns_b_distinct_pool_ids(self):
        rng = np.random.default_rng(2)
        ctx = make_ctx(rng, n=25, b=6)
        for strategy in STRATEGIES:
            got, _ = select(strategy, ctx)
            assert len(got) == 6, strategy
            assert len(set(got.tolist())) == 6, strategy
            assert set(got.tolist()) <= set(ctx.ids.tolist()), strategy

    def test_max_entropy_prefers_uniform_posterior(self):
        n = 8
        probs = np.zeros((n, 4, 2, 2))
        probs[:, 0] = 1.0  # one-hot everywhere
        probs[5] = 0.25    # except one uniform sample
        ctx = QueryContext(ids=np.arange(n), b=1, seed=0, probs=probs)
        np.testing.assert_array_equal(select("max_entropy", ctx)[0], [5])

    def test_paal_ap_only_is_top_b_of_weights(self):
        rng = np.random.default_rng(3)
        ctx = make_ctx(rng, n=30, b=7)
        got, _ = select("paal_ap_only", ctx)
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
            got, _ = select(strategy, ctx)
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
        rng = np.random.default_rng(5)
        ctx = make_ctx(rng, n=20, b=5)
        selected, info = select("paal_full", ctx)
        assert len(info["weight"]) == 5
        assert len(info["cluster"]) == 5

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
        got, _ = select("entropy_kmeans", ctx)
        assert got[0] in hot
