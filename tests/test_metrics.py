"""Metric and loss oracles: brute-force set counting and scalar recomputation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paal.metrics import (dice_ce_loss, dsc_per_class_batch, mse_loss,
                          pearson_r, uncertainty_scores)


def brute_force_dsc(pred, true, num_fg):
    """Independent oracle: literal set counting per class."""
    out = []
    for j in range(1, num_fg + 1):
        p = {tuple(ix) for ix in np.argwhere(pred == j)}
        g = {tuple(ix) for ix in np.argwhere(true == j)}
        if not p and not g:
            out.append(1.0)
        else:
            out.append(2.0 * len(p & g) / (len(p) + len(g)))
    return np.array(out)


def brute_force_dice_ce(probs, labels, smooth=1e-5):
    """Scalar reimplementation of the combined loss with explicit loops."""
    b, c, h, w = probs.shape
    ce = 0.0
    for bi in range(b):
        for i in range(h):
            for j in range(w):
                ce -= math.log(probs[bi, labels[bi, i, j], i, j])
    ce /= b * h * w
    dice_sum = 0.0
    for cls in range(1, c):
        inter = tot_p = tot_g = 0.0
        for bi in range(b):
            for i in range(h):
                for j in range(w):
                    p = probs[bi, cls, i, j]
                    g = 1.0 if labels[bi, i, j] == cls else 0.0
                    inter += p * g
                    tot_p += p
                    tot_g += g
        dice_sum += (2 * inter + smooth) / (tot_p + tot_g + smooth)
    return ce + 1.0 - dice_sum / (c - 1)


def random_probs(rng, shape):
    z = rng.normal(size=shape)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float64)


class TestDSC:
    def test_identical_masks_are_perfect(self):
        m = np.array([[0, 1], [2, 3]])
        np.testing.assert_array_equal(dsc_per_class_batch(m[None], m[None], 3),
                                      [[1.0, 1.0, 1.0]])

    def test_disjoint_masks_score_zero(self):
        pred = np.array([[1, 1], [0, 0]])
        true = np.array([[0, 0], [1, 1]])
        assert dsc_per_class_batch(pred[None], true[None], 1)[0, 0] == 0.0

    def test_half_overlap(self):
        # |P|=2, |G|=2, overlap 1 -> 2*1/(2+2) = 0.5
        pred = np.array([[1, 1, 0]])
        true = np.array([[0, 1, 1]])
        assert dsc_per_class_batch(pred[None], true[None], 1)[0, 0] == pytest.approx(0.5)

    def test_both_empty_is_one(self):
        z = np.zeros((3, 3), dtype=int)
        np.testing.assert_array_equal(dsc_per_class_batch(z[None], z[None], 2),
                                      [[1.0, 1.0]])

    def test_matches_brute_force_on_random_masks(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            pred = rng.integers(0, 4, size=(8, 8))
            true = rng.integers(0, 4, size=(8, 8))
            np.testing.assert_array_equal(
                dsc_per_class_batch(pred[None], true[None], 3)[0],
                brute_force_dsc(pred, true, 3))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 3, size=(2, 6, 6))
        true = rng.integers(0, 3, size=(2, 6, 6))
        np.testing.assert_array_equal(dsc_per_class_batch(pred, true, 2),
                                      dsc_per_class_batch(true, pred, 2))

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError, match="labels outside"):
            dsc_per_class_batch(np.array([[[5]]]), np.array([[[0]]]), 3)

    def test_batch_variant_matches_per_sample(self):
        rng = np.random.default_rng(7)
        pred = rng.integers(0, 4, size=(5, 4, 4))
        true = rng.integers(0, 4, size=(5, 4, 4))
        batch = dsc_per_class_batch(pred, true, 3)
        for i in range(5):
            np.testing.assert_array_equal(batch[i], brute_force_dsc(pred[i], true[i], 3))


class TestDiceCE:
    def test_one_hot_correct_probs_near_zero_loss(self):
        labels = np.array([[[0, 1], [2, 3]]])
        probs = np.full((1, 4, 2, 2), 1e-7, dtype=np.float64)
        for c in range(4):
            probs[0, c][labels[0] == c] = 1.0 - 3e-7
        loss, _ = dice_ce_loss(probs, labels)
        assert loss == pytest.approx(0.0, abs=1e-4)

    def test_uniform_probs_ce_term_is_ln4(self):
        labels = np.zeros((1, 3, 3), dtype=int)  # background only
        probs = np.full((1, 4, 3, 3), 0.25, dtype=np.float64)
        loss, _ = dice_ce_loss(probs, labels)
        # dice term: no foreground truth -> D_j = (2*0+s)/(sum_p+s) ~ 0, so ~1
        assert loss == pytest.approx(math.log(4) + 1.0, abs=1e-3)

    def test_matches_brute_force_scalar(self):
        rng = np.random.default_rng(13)
        probs = random_probs(rng, (2, 4, 4, 4))
        labels = rng.integers(0, 4, size=(2, 4, 4))
        loss, _ = dice_ce_loss(probs, labels)
        assert loss == pytest.approx(brute_force_dice_ce(probs, labels), abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        logits = rng.normal(size=(1, 4, 4, 4))
        labels = rng.integers(0, 4, size=(1, 4, 4))

        def softmax(z):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        _, grad = dice_ce_loss(softmax(logits), labels)
        eps = 1e-6
        flat = logits.reshape(-1)
        for idx in rng.choice(flat.size, size=24, replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = dice_ce_loss(softmax(logits), labels)[0]
            flat[idx] = orig - eps
            lm = dice_ce_loss(softmax(logits), labels)[0]
            flat[idx] = orig
            numeric = (lp - lm) / (2 * eps)
            analytic = grad.reshape(-1)[idx]
            assert abs(analytic - numeric) <= 1e-3 * max(abs(analytic), abs(numeric), 1e-4)


class TestMSE:
    def test_equal_inputs_zero(self):
        x = np.array([[0.3, 0.7]])
        assert mse_loss(x, x)[0] == 0.0

    def test_unit_gap_is_one(self):
        pred = np.zeros((2, 3))
        target = np.ones((2, 3))
        assert mse_loss(pred, target)[0] == pytest.approx(1.0)

    def test_direct_arithmetic_case(self):
        pred = np.array([[0.2, 0.8]])
        target = np.array([[0.0, 1.0]])
        loss, grad = mse_loss(pred, target)
        assert loss == pytest.approx(0.04)
        np.testing.assert_allclose(grad, [[0.2, -0.2]])

    def test_gradient_is_scaled_residual(self):
        rng = np.random.default_rng(23)
        pred = rng.uniform(size=(4, 3))
        target = rng.uniform(size=(4, 3))
        _, grad = mse_loss(pred, target)
        np.testing.assert_allclose(grad, 2 * (pred - target) / pred.size)


class TestUncertainty:
    def test_uniform_probs_max_entropy_is_ln4(self):
        probs = np.full((4, 2, 2), 0.25)
        assert uncertainty_scores("max_entropy", probs[None])[0] == pytest.approx(math.log(4))

    def test_one_hot_least_conf_and_margin(self):
        probs = np.zeros((3, 2, 2))
        probs[1] = 1.0
        assert uncertainty_scores("least_conf", probs[None])[0] == pytest.approx(0.0)
        assert uncertainty_scores("margin", probs[None])[0] == pytest.approx(-1.0)

    def test_margin_two_class_single_pixel(self):
        probs = np.array([[[0.6]], [[0.4]]])
        assert uncertainty_scores("margin", probs[None])[0] == pytest.approx(-0.2)

    def test_var_ratio_counts_unconfident_pixels(self):
        probs = np.zeros((2, 1, 4))
        probs[0] = [0.9, 0.8, 0.5, 0.55]
        probs[1] = 1.0 - probs[0]
        # pixel 2 peaks at exactly 0.5: no majority, so 1 of 4 is unconfident
        assert uncertainty_scores("var_ratio", probs[None])[0] == pytest.approx(0.25)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown uncertainty kind"):
            uncertainty_scores("bald", np.ones((1, 1, 1, 1)))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scores_invariant_under_pixel_permutation(self, seed):
        rng = np.random.default_rng(seed)
        probs = random_probs(rng, (2, 3, 4, 4))
        perm = rng.permutation(16)
        shuffled = probs.reshape(2, 3, 16)[:, :, perm].reshape(2, 3, 4, 4)
        for kind in ("max_entropy", "least_conf", "margin", "var_ratio"):
            np.testing.assert_allclose(uncertainty_scores(kind, probs),
                                       uncertainty_scores(kind, shuffled),
                                       atol=1e-12)


def test_pearson_r_basics():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson_r(x, 2 * x + 1) == pytest.approx(1.0)
    assert pearson_r(x, -x) == pytest.approx(-1.0)
    assert pearson_r(x, np.ones(4)) == 0.0
