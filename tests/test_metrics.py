"""Metric and loss oracles: brute-force set counting and scalar recomputation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paal import metrics
from paal.metrics import (UNCERTAINTY_KINDS, dice_ce_loss, dsc_per_class_batch,
                          mse_loss, pearson_r, uncertainty_scores)
from paal.models import softmax


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
    return softmax(rng.normal(size=shape))


def uncertainty_reference(kind, probs):
    """The scores as first written, on a float64 copy of every posterior:
    kept as the oracle for the leaner ``uncertainty_scores``."""
    p = probs.astype(np.float64)
    b = p.shape[0]
    if kind == "max_entropy":
        ent = -np.where(p > 0, p * np.log(np.maximum(p, 1e-300)), 0.0).sum(axis=1)
        return ent.reshape(b, -1).mean(axis=1)
    if kind == "least_conf":
        return (1.0 - p.max(axis=1)).reshape(b, -1).mean(axis=1)
    if kind == "margin":
        sp = np.sort(p, axis=1)
        return -(sp[:, -1] - sp[:, -2]).reshape(b, -1).mean(axis=1)
    confident = p.max(axis=1) > 0.5
    return 1.0 - confident.reshape(b, -1).mean(axis=1)


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


    def test_matches_the_per_class_one_hot_loop_bit_for_bit(self):
        # the loss as it was with a one-hot built class by class; training
        # batches' shapes and dtypes (float32 posteriors, u8 masks)
        def looped(probs, labels):
            b, c, h, w = probs.shape
            npix = b * h * w
            onehot = np.zeros_like(probs)
            for j in range(c):
                onehot[:, j][labels == j] = 1.0
            p64 = probs.astype(np.float64)
            p_true = np.take_along_axis(p64, labels[:, None].astype(np.int64),
                                        axis=1)[:, 0]
            ce = -np.log(np.maximum(p_true, 1e-30)).sum() / npix
            inter = (p64[:, 1:] * onehot[:, 1:]).sum(axis=(0, 2, 3))
            sums = (p64[:, 1:].sum(axis=(0, 2, 3))
                    + onehot[:, 1:].sum(axis=(0, 2, 3)))
            dice = (2.0 * inter + metrics.DICE_SMOOTH) / (sums + metrics.DICE_SMOOTH)
            gprobs = np.zeros_like(p64)
            coef = 1.0 / ((c - 1) * (sums + metrics.DICE_SMOOTH))
            gprobs[:, 1:] = (-(2.0 * onehot[:, 1:] - dice[None, :, None, None])
                             * coef[None, :, None, None])
            glogits = p64 * (gprobs - (gprobs * p64).sum(axis=1, keepdims=True))
            glogits += (p64 - onehot) / npix
            return float(ce + 1.0 - dice.mean()), glogits.astype(probs.dtype)

        rng = np.random.default_rng(29)
        for b in (16, 16, 8, 1) * 5:
            probs = softmax(rng.normal(size=(b, 4, 16, 16)).astype(np.float32))
            labels = rng.integers(0, 4, size=(b, 16, 16), dtype=np.uint8)
            loss, grad = dice_ce_loss(probs, labels)
            want_loss, want_grad = looped(probs, labels)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert grad.dtype == want_grad.dtype
            assert grad.tobytes() == want_grad.tobytes()


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

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_scores_match_the_float64_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        b, c, h, w = rng.integers(1, 5), rng.integers(2, 6), *rng.integers(1, 6, 2)
        scale = rng.choice([1.0, 10.0, 60.0])  # 60 underflows some p to 0
        probs = softmax((scale * rng.normal(size=(b, c, h, w))).astype(np.float32))
        # one-hot pixels hold exact 0s and 1s; a sample of them scores 0
        hard = rng.random((b, 1, h, w)) < rng.random()
        onehot = np.arange(c)[None, :, None, None] == rng.integers(0, c, (b, 1, h, w))
        probs = np.where(hard, onehot.astype(np.float32), probs)
        probs[rng.integers(b)] = onehot[0].astype(np.float32)
        for kind in UNCERTAINTY_KINDS:
            got = uncertainty_scores(kind, probs)
            want = uncertainty_reference(kind, probs)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes(), kind


    @pytest.mark.parametrize("c", [2, 3, 4, 7])
    def test_margin_matches_the_full_channel_sort_bit_for_bit(self, c):
        rng = np.random.default_rng(c)
        probs = softmax(rng.normal(size=(6, c, 9, 8)).astype(np.float32))
        # a sample of exact ties in the top two, one of one-hot pixels
        probs[0] = np.round(probs[0] * 4) / 4
        probs[1] = np.arange(c)[:, None, None] == rng.integers(0, c, (1, 9, 8))
        # the sort the partition replaced, as the oracle
        top2 = np.sort(probs, axis=1)[:, -2:].astype(np.float64)
        want = -(top2[:, 1] - top2[:, 0]).reshape(6, -1).mean(axis=1)
        assert uncertainty_scores("margin", probs).tobytes() == want.tobytes()

    def test_entropy_blocks_keep_the_bits_with_a_short_last_block(self):
        c, h, w = 4, 32, 32
        block = metrics._F64_BLOCK_BYTES // (8 * c * h * w)
        assert block > 1
        rng = np.random.default_rng(61)
        logits = 30.0 * rng.normal(size=(2 * block + 3, c, h, w))
        probs = softmax(logits.astype(np.float32))  # some p underflow to 0
        got = uncertainty_scores("max_entropy", probs)
        want = uncertainty_reference("max_entropy", probs)
        assert got.tobytes() == want.tobytes()


def test_pearson_r_basics():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson_r(x, 2 * x + 1) == pytest.approx(1.0)
    assert pearson_r(x, -x) == pytest.approx(-1.0)
    assert pearson_r(x, np.ones(4)) == 0.0
