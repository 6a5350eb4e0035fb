"""Layer-level forward/backward contracts and the optimizer/schedule math.

The finite-difference gradient checker lives here: only the tests run it.
"""

import copy

import numpy as np
import pytest

from paal.models import softmax
from paal.nn import (Conv2D, Dense, GlobalAvgPool, Network, NumericalError,
                     Param, ReLU, ShapeError, Sigmoid, adamw_step, cosine_lr)


def astype(net: Network, dtype) -> Network:
    """Deep copy of ``net`` with parameters cast to ``dtype``."""
    clone = copy.deepcopy(net)
    for p in clone.params():
        p.value = p.value.astype(dtype)
        p.grad = np.zeros_like(p.value)
        p.m = np.zeros_like(p.value)
        p.v = np.zeros_like(p.value)
    return clone


def finite_diff_check(net: Network, x: np.ndarray, loss_fn,
                      eps: float = 1e-3) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn(output) -> (loss, grad_wrt_output)``. The check runs on a
    float64 copy of the network so the difference quotients are not drowned
    in float32 rounding noise.
    """
    net64 = astype(net, np.float64)
    x64 = x.astype(np.float64)

    _, gout = loss_fn(net64.forward(x64, train=True))
    net64.zero_grad()
    net64.backward(np.asarray(gout, dtype=np.float64))

    def loss_at():
        return float(loss_fn(net64.forward(x64))[0])

    worst = 0.0
    for p in net64.params():
        flat = p.value.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_at()
            flat[i] = orig - eps
            lm = loss_at()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            analytic = gflat[i]
            scale = max(abs(analytic), abs(numeric))
            if scale > 1e-12:
                worst = max(worst, abs(analytic - numeric) / scale)
    return worst


def quad_loss(y):
    y64 = y.astype(np.float64)
    return 0.5 * float((y64 ** 2).sum()), y64


def sum_loss(y):
    return float(y.astype(np.float64).sum()), np.ones_like(y, dtype=np.float64)


def test_relu_definition():
    out = ReLU().forward(np.array([-1.0, 0.0, 2.0], dtype=np.float32))
    np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])


def correlate(x, kernel, bias):
    """Direct same-padded correlation: out[n, o, i, j] = bias[o] + the sum
    of kernel[o, c, di, dj] * x[n, c, i + di - p, j + dj - p] over the
    taps that land inside the image."""
    n, c, h, w = x.shape
    o, _, k, _ = kernel.shape
    p = k // 2
    out = np.empty((n, o, h, w))
    for b, oc, i, j in np.ndindex(n, o, h, w):
        acc = float(bias[oc])
        for ci, di, dj in np.ndindex(c, k, k):
            ii, jj = i + di - p, j + dj - p
            if 0 <= ii < h and 0 <= jj < w:
                acc += float(kernel[oc, ci, di, dj]) * float(x[b, ci, ii, jj])
        out[b, oc, i, j] = acc
    return out


@pytest.mark.parametrize("cin,cout,k,h,w", [(2, 3, 3, 5, 7), (1, 2, 5, 6, 4),
                                            (3, 2, 1, 3, 3)])
def test_conv_is_a_same_padded_correlation(cin, cout, k, h, w):
    rng = np.random.default_rng(41)
    conv = Conv2D(cin, cout, k, rng=rng)
    bias = rng.normal(size=cout).astype(np.float32)
    # probe the kernel, whatever its storage layout: with no bias, an
    # impulse at the centre of a k x k plane returns the flipped taps
    conv.bias.value = np.zeros(cout, dtype=np.float32)
    p = k // 2
    kernel = np.empty((cout, cin, k, k))
    for c in range(cin):
        impulse = np.zeros((1, cin, k, k), dtype=np.float32)
        impulse[0, c, p, p] = 1.0
        kernel[:, c] = conv.forward(impulse)[0, :, ::-1, ::-1]
    conv.bias.value = bias
    x = rng.normal(size=(2, cin, h, w)).astype(np.float32)
    np.testing.assert_allclose(conv.forward(x), correlate(x, kernel, bias),
                               rtol=1e-5, atol=1e-6)


def test_dense_identity_passthrough():
    layer = Dense(3, 3, rng=np.random.default_rng(0))
    layer.weight.value = np.eye(3, dtype=np.float32)
    layer.bias.value = np.zeros(3, dtype=np.float32)
    v = np.array([[0.5, -2.0, 7.0]], dtype=np.float32)
    np.testing.assert_array_equal(layer.forward(v), v)


def test_channel_softmax_uniform_on_equal_logits():
    x = np.zeros((1, 4, 2, 2), dtype=np.float32)
    out = softmax(x)
    np.testing.assert_allclose(out, 0.25)


def test_channel_softmax_sums_to_one_per_pixel():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=5.0, size=(2, 5, 4, 4)).astype(np.float32)
    out = softmax(x)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-5)
    assert out.min() >= 0.0


def test_global_avg_pool_is_channel_mean():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 6, 5, 7)).astype(np.float32)
    out = GlobalAvgPool().forward(x)
    np.testing.assert_allclose(out, x.mean(axis=(2, 3)), atol=1e-6)


def test_zero_output_grad_gives_zero_param_grads():
    rng = np.random.default_rng(5)
    net = Network([Conv2D(1, 3, rng=rng), ReLU(), Conv2D(3, 2, rng=rng)])
    x = rng.normal(size=(2, 1, 4, 4)).astype(np.float32)
    net.forward(x, train=True)
    net.zero_grad()
    net.backward(np.zeros((2, 2, 4, 4), dtype=np.float32))
    for p in net.params():
        np.testing.assert_array_equal(p.grad, 0.0)


def test_dense_weight_grad_is_input_column_sums():
    # loss = sum of outputs, so dL/dW[i, o] = sum_b x[b, i]
    layer = Dense(2, 2, rng=np.random.default_rng(0))
    net = Network([layer])
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    out = net.forward(x, train=True)
    net.zero_grad()
    net.backward(np.ones_like(out))
    np.testing.assert_allclose(layer.weight.grad, [[4.0, 4.0], [6.0, 6.0]])
    np.testing.assert_allclose(layer.bias.grad, [2.0, 2.0])


def test_random_net_matches_finite_differences():
    rng = np.random.default_rng(9)
    net = Network([Conv2D(2, 4, rng=rng), ReLU(), Conv2D(4, 3, rng=rng),
                   GlobalAvgPool(), Dense(3, 2, rng=rng)])
    x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
    assert finite_diff_check(net, x, quad_loss, eps=1e-3) < 1e-3


@pytest.mark.parametrize("make_layer,shape", [
    (lambda rng: Conv2D(2, 3, rng=rng), (2, 2, 5, 5)),
    (lambda rng: Dense(4, 3, rng=rng), (3, 4)),
])
def test_param_layers_gradcheck(make_layer, shape):
    rng = np.random.default_rng(17)
    net = Network([make_layer(rng)])
    x = rng.normal(size=shape).astype(np.float32)
    assert finite_diff_check(net, x, quad_loss, eps=1e-3) < 1e-6


@pytest.mark.parametrize("tail,shape", [
    ([ReLU()], (2, 3, 4, 4)),
    ([Sigmoid()], (2, 3, 4, 4)),
    ([GlobalAvgPool()], (2, 3, 4, 4)),
])
def test_activation_layers_gradcheck(tail, shape):
    rng = np.random.default_rng(23)
    net = Network([Conv2D(shape[1], shape[1], rng=rng)] + tail)
    x = rng.normal(size=shape).astype(np.float32)
    assert finite_diff_check(net, x, quad_loss, eps=1e-4) < 1e-3


def test_linear_net_quadratic_loss_is_exact():
    rng = np.random.default_rng(29)
    net = Network([Dense(3, 4, rng=rng), Dense(4, 2, rng=rng)])
    x = rng.normal(size=(3, 3)).astype(np.float32)
    assert finite_diff_check(net, x, quad_loss, eps=1e-3) < 1e-6


def test_dead_relu_path_has_exactly_zero_grads():
    rng = np.random.default_rng(31)
    conv = Conv2D(1, 3, rng=rng)
    conv.bias.value[:] = -100.0  # relu kills every activation
    net = Network([conv, ReLU(), GlobalAvgPool(), Dense(3, 2, rng=rng)])
    x = rng.uniform(0, 1, size=(2, 1, 4, 4)).astype(np.float32)
    out = net.forward(x, train=True)
    net.zero_grad()
    net.backward(np.ones_like(out))
    np.testing.assert_array_equal(conv.weight.grad, 0.0)
    assert finite_diff_check(net, x, sum_loss, eps=1e-3) < 1e-6


def test_backward_is_bit_identical_across_runs():
    rng = np.random.default_rng(37)
    net = Network([Conv2D(1, 4, rng=rng), ReLU(), Conv2D(4, 2, rng=rng)])
    x = rng.normal(size=(3, 1, 5, 5)).astype(np.float32)
    grads = []
    for _ in range(2):
        out = net.forward(x, train=True)
        net.zero_grad()
        net.backward(np.ones_like(out))
        grads.append([p.grad.copy() for p in net.params()])
    for a, b in zip(*grads):
        assert a.tobytes() == b.tobytes()


def test_forward_shape_error_names_layer():
    net = Network([Conv2D(2, 3, rng=np.random.default_rng(0))])
    with pytest.raises(ShapeError, match="Conv2D"):
        net.forward(np.zeros((1, 5, 4, 4), dtype=np.float32))


def test_backward_without_forward_raises():
    net = Network([Dense(2, 2, rng=np.random.default_rng(0))])
    with pytest.raises(RuntimeError, match="without a cached forward"):
        net.backward(np.ones((1, 2), dtype=np.float32))


class TestAdamW:
    def test_zero_grad_no_decay_leaves_value(self):
        p = Param(np.array([1.5, -2.0], dtype=np.float32))
        adamw_step([p], lr=1e-3, weight_decay=0.0)
        np.testing.assert_array_equal(p.value, [1.5, -2.0])

    def test_zero_grad_decay_scales_value(self):
        p = Param(np.array([1.0, -4.0], dtype=np.float32))
        adamw_step([p], lr=1e-3, weight_decay=1e-4)
        np.testing.assert_allclose(p.value, np.array([1.0, -4.0]) * (1 - 1e-7),
                                   rtol=1e-6)

    def test_first_step_matches_update_rule(self):
        p = Param(np.array([1.0], dtype=np.float32))
        p.grad[:] = 1.0
        lr, eps, wd = 1e-3, 1e-8, 1e-4
        adamw_step([p], lr=lr, eps=eps, weight_decay=wd)
        # bias-corrected mhat = vhat = 1 at step 1
        expected = 1.0 - lr * 1.0 / (np.sqrt(1.0) + eps) - lr * wd * 1.0
        np.testing.assert_allclose(p.value, [expected], rtol=1e-6)

    def test_step_counter_and_grad_untouched(self):
        p = Param(np.array([1.0], dtype=np.float32))
        p.grad[:] = 0.5
        adamw_step([p], lr=1e-3)
        adamw_step([p], lr=1e-3)
        assert p.step == 2
        np.testing.assert_array_equal(p.grad, [0.5])

    def test_nonfinite_grad_raises(self):
        p = Param(np.array([1.0], dtype=np.float32))
        p.grad[:] = np.nan
        with pytest.raises(NumericalError):
            adamw_step([p], lr=1e-3)


class TestCosineLR:
    def test_warmup_end_hits_peak(self):
        assert cosine_lr(10, 100) == pytest.approx(1e-3)

    def test_final_epoch_hits_minimum(self):
        assert cosine_lr(100, 100) == pytest.approx(1e-6)

    def test_ramp_starts_at_zero(self):
        assert cosine_lr(0, 100) == 0.0

    def test_ramp_is_linear(self):
        assert cosine_lr(5, 100) == pytest.approx(0.5e-3)

    def test_decay_is_monotone(self):
        lrs = [cosine_lr(e, 60) for e in range(10, 61)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_total_not_exceeding_warmup_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(3, 10, warmup=10)
