"""Toy model contracts: shapes, probability validity, decoupling."""

import numpy as np
import pytest

from paal.metrics import mse_loss
from paal.models import (FEATURE_DIM, Workspace, ap_forward, build_ap_model,
                         build_seg_model, channel_argmax, normalize_images,
                         seg_forward, softmax)
from paal.nn import Conv2D, Network, ReLU


@pytest.fixture
def images():
    rng = np.random.default_rng(0)
    return rng.uniform(0, 1, size=(3, 1, 16, 16)).astype(np.float32)


def test_seg_forward_probs_are_distributions(images):
    seg = build_seg_model(4, seed=1)
    probs, features = seg_forward(seg, images)
    assert probs.shape == (3, 4, 16, 16)
    assert probs.min() >= 0.0
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)


def test_seg_forward_feature_shape(images):
    seg = build_seg_model(4, seed=1)
    _, features = seg_forward(seg, images)
    assert features.shape == (3, 16)


def test_identical_images_give_identical_features(images):
    seg = build_seg_model(4, seed=2)
    batch = np.concatenate([images[:1], images[:1], images[1:2]], axis=0)
    _, features = seg_forward(seg, batch)
    np.testing.assert_array_equal(features[0], features[1])
    assert not np.array_equal(features[0], features[2])


@pytest.mark.parametrize("h,w", [(16, 16), (32, 32), (12, 20)])
@pytest.mark.parametrize("b", [1, 3, 8])
def test_features_are_pooled_tap_activations(b, h, w):
    # inference chains the convs on padded buffers and never builds these
    # activations, so this pins it to the layer-by-layer path
    images = np.random.default_rng([0, b, h, w]).uniform(
        size=(b, 1, h, w)).astype(np.float32)
    seg = build_seg_model(4, seed=3)
    assert [type(layer) for layer in seg.layers] == [Conv2D, ReLU, Conv2D,
                                                     ReLU, Conv2D]
    *trunk, head = seg.layers
    assert head.in_ch == FEATURE_DIM
    acts = Network(trunk).forward(images)
    probs, features = seg_forward(seg, images)
    assert features.tobytes() == acts.mean(axis=(2, 3)).tobytes()
    assert probs.tobytes() == softmax(seg.forward(images)).tobytes()

    ap = build_ap_model(4, seed=4)
    want = ap.forward(np.concatenate([images, probs], axis=1))
    assert ap_forward(ap, images, probs).tobytes() == want.tobytes()


@pytest.mark.parametrize("outputs", [(True, True), (True, False),
                                     (False, True)],
                         ids=["both", "probs", "features"])
def test_a_workspace_changes_no_output_and_none_is_a_view_of_it(outputs):
    # a workspace sized for 8-image chunks runs a full chunk, then a short
    # last one in the buffers the first left dirty, as one thread does; the
    # call without one runs in a fresh workspace of its own
    probs_wanted, features_wanted = outputs
    seg, ap = build_seg_model(4, seed=11), build_ap_model(4, seed=12)
    workspace = Workspace([seg, ap], 8, 32, 32)
    buffers = (workspace.cols, *workspace.acts)
    for buf in buffers:
        buf.fill(np.nan)
    rng = np.random.default_rng(13)
    for b in (8, 3):
        images = rng.uniform(size=(b, 1, 32, 32)).astype(np.float32)
        want = seg_forward(seg, images, probs=probs_wanted,
                           features=features_wanted)
        got = seg_forward(seg, images, probs=probs_wanted,
                          features=features_wanted, workspace=workspace)
        if probs_wanted:
            want += (ap_forward(ap, images, want[0]),)
            got += (ap_forward(ap, images, got[0], workspace=workspace),)
        for array, expected in zip(got, want):
            assert (array is None) == (expected is None)
            if array is not None:
                assert array.tobytes() == expected.tobytes()
                assert not any(np.shares_memory(array, buf) for buf in buffers)


def test_ap_forward_range_and_shape(images):
    ap = build_ap_model(4, seed=4)
    rng = np.random.default_rng(2)
    probs = rng.uniform(size=(3, 4, 16, 16)).astype(np.float32)
    out = ap_forward(ap, images, probs)
    assert out.shape == (3, 3)
    assert out.min() > 0.0 and out.max() < 1.0


def test_ap_forward_larger_batch_shape():
    rng = np.random.default_rng(3)
    ap = build_ap_model(4, seed=5)
    imgs = rng.uniform(size=(7, 1, 16, 16)).astype(np.float32)
    probs = rng.uniform(size=(7, 4, 16, 16)).astype(np.float32)
    assert ap_forward(ap, imgs, probs).shape == (7, 3)


@pytest.mark.parametrize("c", [1, 2, 4, 9])
def test_channel_argmax_is_numpy_argmax(c):
    rng = np.random.default_rng(c)
    shape = (5, c, 7, 6)
    probs = softmax(rng.normal(size=shape).astype(np.float32))
    # exact ties: a pixel's values drawn from a few levels, so maxima repeat
    ties = rng.integers(0, 3, size=shape).astype(np.float32) / 4
    # one-hot pixels: exact 0s and 1s
    onehot = (np.arange(c)[None, :, None, None]
              == rng.integers(0, c, size=(5, 1, 7, 6))).astype(np.float32)
    everywhere_equal = np.full(shape, 0.25, dtype=np.float32)
    for p in (probs, ties, onehot, everywhere_equal, probs.astype(np.float64)):
        got = channel_argmax(p)
        assert got.dtype == np.uint8 and got.shape == (5, 7, 6)
        np.testing.assert_array_equal(got, p.argmax(axis=1))


def test_normalize_images_scales_and_adds_channel():
    imgs = np.array([[[0, 255], [128, 64]]], dtype=np.uint8)
    out = normalize_images(imgs)
    assert out.shape == (1, 1, 2, 2)
    assert out.dtype == np.float32
    np.testing.assert_allclose(out[0, 0], [[0.0, 1.0], [128 / 255, 64 / 255]])


class TestGradientIsolation:
    def test_ap_training_never_moves_seg_outputs(self, images):
        seg = build_seg_model(4, seed=6)
        ap = build_ap_model(4, seed=7)
        probs_before, _ = seg_forward(seg, images)

        # train AP for a few steps on arbitrary targets
        from paal.nn import adamw_step
        rng = np.random.default_rng(8)
        targets = rng.uniform(size=(3, 3)).astype(np.float32)
        for _ in range(3):
            pred = ap.forward(np.concatenate([images, probs_before], axis=1),
                              train=True)
            _, grad = mse_loss(pred, targets)
            ap.backward(grad)
            adamw_step(ap.params(), 1e-2, weight_decay=1e-4)

        probs_after, _ = seg_forward(seg, images)
        np.testing.assert_array_equal(probs_before, probs_after)

    def test_ap_loss_leaves_seg_grads_zero(self, images):
        seg = build_seg_model(4, seed=9)
        ap = build_ap_model(4, seed=10)
        probs, _ = seg_forward(seg, images)
        pred = ap.forward(np.concatenate([images, probs], axis=1), train=True)
        _, grad = mse_loss(pred, np.zeros_like(pred))
        ap.backward(grad)
        for p in seg.params():
            np.testing.assert_array_equal(p.grad, 0.0)

