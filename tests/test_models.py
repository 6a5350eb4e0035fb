"""Toy model contracts: shapes, probability validity, decoupling."""

import numpy as np
import pytest

from paal.metrics import mse_loss
from paal.models import (ap_forward, build_ap_model, build_seg_model,
                         concat_channels, normalize_images, seg_forward)


@pytest.fixture
def images():
    rng = np.random.default_rng(0)
    return rng.uniform(0, 1, size=(3, 1, 16, 16)).astype(np.float32)


def test_seg_forward_probs_are_distributions(images):
    seg = build_seg_model(seed=1)
    probs, features = seg_forward(seg, images)
    assert probs.shape == (3, 4, 16, 16)
    assert probs.min() >= 0.0
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)


def test_seg_forward_feature_shape(images):
    seg = build_seg_model(seed=1)
    _, features = seg_forward(seg, images)
    assert features.shape == (3, 16)


def test_identical_images_give_identical_features(images):
    seg = build_seg_model(seed=2)
    batch = np.concatenate([images[:1], images[:1], images[1:2]], axis=0)
    _, features = seg_forward(seg, batch)
    np.testing.assert_array_equal(features[0], features[1])
    assert not np.array_equal(features[0], features[2])


def test_features_are_pooled_tap_activations(images):
    seg = build_seg_model(seed=3)
    acts = seg.forward(images)
    _, features = seg_forward(seg, images)
    np.testing.assert_allclose(features, seg.tapped(acts, "feature").mean(axis=(2, 3)),
                               atol=1e-7)


class TestConcatChannels:
    def test_channel_arithmetic(self, images):
        probs = np.zeros((3, 4, 16, 16), dtype=np.float32)
        out = concat_channels(images, probs)
        assert out.shape == (3, 5, 16, 16)

    def test_zero_probs_block_stays_zero(self, images):
        probs = np.zeros((3, 4, 16, 16), dtype=np.float32)
        out = concat_channels(images, probs)
        np.testing.assert_array_equal(out[:, 1:], 0.0)

    def test_round_trip_slicing_recovers_inputs(self, images):
        rng = np.random.default_rng(1)
        probs = rng.uniform(size=(3, 4, 16, 16)).astype(np.float32)
        out = concat_channels(images, probs)
        np.testing.assert_array_equal(out[:, :1], images)
        np.testing.assert_array_equal(out[:, 1:], probs)

    def test_mismatched_shapes_rejected(self, images):
        with pytest.raises(ValueError, match="do not match"):
            concat_channels(images, np.zeros((3, 4, 8, 8), dtype=np.float32))


def test_ap_forward_range_and_shape(images):
    ap = build_ap_model(seed=4)
    rng = np.random.default_rng(2)
    probs = rng.uniform(size=(3, 4, 16, 16)).astype(np.float32)
    out = ap_forward(ap, images, probs)
    assert out.shape == (3, 3)
    assert out.min() > 0.0 and out.max() < 1.0


def test_ap_forward_larger_batch_shape():
    rng = np.random.default_rng(3)
    ap = build_ap_model(seed=5)
    imgs = rng.uniform(size=(7, 1, 16, 16)).astype(np.float32)
    probs = rng.uniform(size=(7, 4, 16, 16)).astype(np.float32)
    assert ap_forward(ap, imgs, probs).shape == (7, 3)


def test_normalize_images_scales_and_adds_channel():
    imgs = np.array([[[0, 255], [128, 64]]], dtype=np.uint8)
    out = normalize_images(imgs)
    assert out.shape == (1, 1, 2, 2)
    assert out.dtype == np.float32
    np.testing.assert_allclose(out[0, 0], [[0.0, 1.0], [128 / 255, 64 / 255]])


class TestGradientIsolation:
    def test_ap_training_never_moves_seg_outputs(self, images):
        seg = build_seg_model(seed=6)
        ap = build_ap_model(seed=7)
        probs_before, _ = seg_forward(seg, images)

        # train AP for a few steps on arbitrary targets
        from paal.nn import adamw_step
        rng = np.random.default_rng(8)
        targets = rng.uniform(size=(3, 3)).astype(np.float32)
        for _ in range(3):
            pred = ap.forward(concat_channels(images, probs_before), train=True)[-1]
            _, grad = mse_loss(pred, targets)
            ap.zero_grad()
            ap.backward(grad)
            adamw_step(ap.params(), 1e-2)

        probs_after, _ = seg_forward(seg, images)
        np.testing.assert_array_equal(probs_before, probs_after)

    def test_ap_loss_leaves_seg_grads_zero(self, images):
        seg = build_seg_model(seed=9)
        ap = build_ap_model(seed=10)
        probs, _ = seg_forward(seg, images)
        pred = ap.forward(concat_channels(images, probs), train=True)[-1]
        _, grad = mse_loss(pred, np.zeros_like(pred))
        seg.zero_grad()
        ap.zero_grad()
        ap.backward(grad)
        for p in seg.params():
            np.testing.assert_array_equal(p.grad, 0.0)

