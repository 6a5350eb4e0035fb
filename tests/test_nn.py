"""Layer-level forward/backward contracts and the optimizer/schedule math.

The finite-difference gradient checker lives here: only the tests run it.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from paal import nn
from paal.models import build_ap_model, build_seg_model, softmax
from paal.nn import (Conv2D, Dense, GlobalAvgPool, Network, NumericalError,
                     Param, ReLU, Sigmoid, adamw_step, cosine_lr)


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
    in float32 rounding noise. It backpropagates layer by layer, input
    gradients included, so the first layer need not be a conv, as
    ``Network.backward`` needs it to be.
    """
    net64 = astype(net, np.float64)
    x64 = x.astype(np.float64)

    _, gout = loss_fn(net64.forward(x64, train=True))
    grad = np.asarray(gout, dtype=np.float64)
    for layer in reversed(net64.layers):
        grad = layer.backward(grad)

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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_backward_is_the_input_mask_bit_for_bit(dtype):
    # backward masks by the cached output: max(x, 0) > 0 exactly when x > 0
    special = [0.0, -0.0, -1.0, -1e-40, 1e-40, 2.0, np.nan, -np.nan,
               np.inf, -np.inf]
    rng = np.random.default_rng(73)
    x = np.concatenate([special, rng.normal(size=54)]).astype(dtype)
    x = x.reshape(2, 2, 4, 4)
    g = rng.normal(size=x.shape).astype(dtype)
    g.flat[:4] = [np.nan, -0.0, np.inf, -np.inf]
    relu = ReLU()
    relu.forward(x.copy(), train=True)
    with np.errstate(invalid="ignore"):  # inf * 0
        want = g * (x > 0)
        got = relu.backward(g)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


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
    net.backward(np.zeros((2, 2, 4, 4), dtype=np.float32))
    for p in net.params():
        np.testing.assert_array_equal(p.grad, 0.0)


def test_dense_weight_grad_is_input_column_sums():
    # loss = sum of outputs, so dL/dW[i, o] = sum_b x[b, i]
    layer = Dense(2, 2, rng=np.random.default_rng(0))
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    out = layer.forward(x, train=True)
    layer.backward(np.ones_like(out))
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


def test_dead_relu_path_has_exactly_zero_weight_gradients():
    rng = np.random.default_rng(31)
    conv = Conv2D(1, 3, rng=rng)
    conv.bias.value[:] = -100.0  # relu kills every activation
    net = Network([conv, ReLU(), GlobalAvgPool(), Dense(3, 2, rng=rng)])
    x = rng.uniform(0, 1, size=(2, 1, 4, 4)).astype(np.float32)
    out = net.forward(x, train=True)
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
        net.backward(np.ones_like(out))
        grads.append([p.grad.copy() for p in net.params()])
    for a, b in zip(*grads):
        assert a.tobytes() == b.tobytes()


def gcols_backward(conv: Conv2D, grad_out: np.ndarray) -> np.ndarray:
    """``Conv2D.backward`` as first written, kept as the oracle for the
    blocked per-tap input gradient and the weight gradient's product: the
    whole batch padded at once, the whole (k*k*C, B*span) input-gradient
    patch matrix from one matmul, then scattered tap by tap into
    separate padded planes."""
    x = conv._take_cache()
    b, c, h, w = x.shape
    cols, wp = conv._im2col(x, b)
    k = conv.kernel
    p = k // 2
    span = h * wp
    gwide = np.zeros((conv.out_ch, b, h, wp), dtype=grad_out.dtype)
    gwide[:, :, :, :w] = grad_out.transpose(1, 0, 2, 3)
    g2d = gwide.reshape(conv.out_ch, b * span)
    conv.bias.grad += grad_out.sum(axis=(0, 2, 3))
    conv.weight.grad += (g2d @ cols.T).T
    gcols = (conv.weight.value @ g2d).reshape(k * k, c, b, span)
    gxt = np.zeros((c, b, (h + 2 * p) * wp + k), dtype=gcols.dtype)
    for di in range(k):
        for dj in range(k):
            off = di * wp + dj
            gxt[:, :, off:off + span] += gcols[di * k + dj]
    gx = gxt[:, :, :(h + 2 * p) * wp].reshape(c, b, h + 2 * p, wp)[
        :, :, p:p + h, p:p + w]
    return np.ascontiguousarray(gx.transpose(1, 0, 2, 3))


def backward_both_ways(cin, cout, b, h, w, k=3, seed=43):
    """(per-tap conv, oracle conv, per-tap input grad, oracle input grad)
    for twin convs run forward on the same input."""
    rng = np.random.default_rng([seed, cin, cout, b, h, w, k])
    conv = Conv2D(cin, cout, k, rng=rng)
    conv.bias.value = rng.normal(size=cout).astype(np.float32)
    twin = copy.deepcopy(conv)
    x = rng.normal(size=(b, cin, h, w)).astype(np.float32)
    g = rng.normal(size=(b, cout, h, w)).astype(np.float32)
    conv.forward(x, train=True)
    twin.forward(x, train=True)
    return conv, twin, conv.backward(g), gcols_backward(twin, g)


# the accumulator's plane stride, (h + p) * wp, moves with k and the width
@pytest.mark.parametrize("h,w,k", [(5, 7, 3), (16, 16, 3), (32, 32, 3),
                                   (12, 20, 3), (12, 20, 5), (32, 32, 5)],
                         ids=["5-7", "16-16", "32-32", "12-20", "12-20-k5",
                              "32-32-k5"])
@pytest.mark.parametrize("b", [1, 3, 16])
@pytest.mark.parametrize("cout", [2, 4, 16])
@pytest.mark.parametrize("cin", [2, 5, 8, 16])
def test_conv_backward_matches_the_gcols_oracle_bit_for_bit(cin, cout, b, h, w,
                                                            k):
    conv, twin, gx, want = backward_both_ways(cin, cout, b, h, w, k)
    assert gx.dtype == want.dtype and gx.shape == want.shape == (b, cin, h, w)
    assert gx.tobytes() == want.tobytes()
    assert conv.weight.grad.tobytes() == twin.weight.grad.tobytes()
    assert conv.bias.grad.tobytes() == twin.bias.grad.tobytes()


@pytest.mark.parametrize("cout,b", [(4, 3), (8, 16)])
def test_single_channel_conv_backward_matches_the_oracle_closely(cout, b):
    # with one input channel each tap's product is a (1, O) @ (O, N) vector
    # product, which BLAS may sum in another order than the matmul's rows;
    # no net asks a 1-channel conv for its input gradient
    conv, twin, gx, want = backward_both_ways(1, cout, b, 16, 16)
    np.testing.assert_allclose(gx, want, rtol=1e-5, atol=1e-6)
    assert conv.weight.grad.tobytes() == twin.weight.grad.tobytes()


def layer_grads(layer, x, g, input_grad):
    layer.forward(x, train=True)
    out = layer.backward(g, input_grad=input_grad)
    return out, [p.grad.copy() for p in layer.params()]


# only a conv can skip its input gradient: each net's first layer is one
@pytest.mark.parametrize("make_layer,shape", [
    (lambda rng: Conv2D(3, 4, rng=rng), (2, 3, 6, 5)),
])
def test_input_grad_stop_returns_none_and_keeps_param_grads(make_layer, shape):
    rng = np.random.default_rng(47)
    layer = make_layer(rng)
    x = rng.normal(size=shape).astype(np.float32)
    g = rng.normal(size=layer.forward(x).shape).astype(np.float32)
    gx, full = layer_grads(layer, x, g, input_grad=True)
    assert gx.shape == x.shape
    none, stopped = layer_grads(layer, x, g, input_grad=False)
    assert none is None
    assert len(full) == len(stopped) == len(layer.params())
    for a, b in zip(full, stopped):
        assert a.tobytes() == b.tobytes()


NETS = [
    (lambda: build_seg_model(4, seed=3), 1),
    (lambda: build_ap_model(4, seed=3), 5),
]


def net_batch(net: Network, channels: int):
    """An input batch for ``net`` and a gradient shaped like its output."""
    rng = np.random.default_rng(53)
    x = rng.uniform(size=(3, channels, 8, 8)).astype(np.float32)
    g = rng.normal(size=net.forward(x).shape).astype(np.float32)
    return x, g


@pytest.mark.parametrize("build,channels", NETS)
def test_input_grad_stop_reaches_the_first_conv_of_each_net(build, channels):
    net = build()
    x, g = net_batch(net, channels)
    first = net.layers[0]
    assert isinstance(first, Conv2D)
    seen = []
    backward = first.backward
    first.backward = lambda grad, **kw: seen.append(kw) or backward(grad, **kw)
    net.forward(x, train=True)
    assert net.backward(g) is None
    assert seen == [{"input_grad": False}]


@pytest.mark.parametrize("build,channels", NETS)
def test_a_second_backward_overwrites_the_first_s_gradients(build, channels):
    net = build()
    x, g = net_batch(net, channels)
    grads = []
    for _ in range(2):
        net.forward(x, train=True)
        net.backward(g)
        grads.append([p.grad.copy() for p in net.params()])
    assert any(np.any(p != 0) for p in grads[0])
    for a, b in zip(*grads):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cin,cout,b", [(8, 16, 16), (16, 4, 7), (2, 3, 5)])
def test_the_input_grad_does_not_depend_on_the_block_size(cin, cout, b,
                                                          monkeypatch):
    rng = np.random.default_rng([61, cin, cout, b])
    conv = Conv2D(cin, cout, rng=rng)
    x = rng.normal(size=(b, cin, 32, 32)).astype(np.float32)
    g = rng.normal(size=(b, cout, 32, 32)).astype(np.float32)
    blocks = (1, nn._GRAD_BLOCK, b)
    grads = []
    for block in blocks:
        # the block also sets how many images backward pads at once to
        # rebuild the patch matrix, which the weight gradient reads
        monkeypatch.setattr(nn, "_GRAD_BLOCK", block)
        conv.forward(x, train=True)
        gx = conv.backward(g)
        grads.append((gx.tobytes(), conv.weight.grad.tobytes()))
    assert blocks[1] < b
    assert grads[0] == grads[1] == grads[2]


def test_a_training_conv_caches_its_input():
    rng = np.random.default_rng(59)
    conv = Conv2D(16, 4, rng=rng)
    x = rng.normal(size=(16, 16, 32, 32)).astype(np.float32)
    conv.forward(x, train=True)
    assert isinstance(conv._cache, np.ndarray)
    assert conv._cache.nbytes == x.nbytes


def test_conv_backward_frees_the_patch_matrix_before_the_input_grad():
    # the 16->4 logits conv at a training batch: the 10.0 MB patch matrix
    # backward rebuilds is by far its largest buffer. Only one block's
    # padded input (0.3 MB) may join it, not the whole batch's (1.2 MB),
    # and the input-gradient buffers (one the size of x, the rest a
    # block's) come after it is freed
    rng = np.random.default_rng(59)
    conv = Conv2D(16, 4, rng=rng)
    x = rng.normal(size=(16, 16, 32, 32)).astype(np.float32)
    g = rng.normal(size=(16, 4, 32, 32)).astype(np.float32)
    conv.forward(x, train=True)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        conv.backward(g)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    cols_nbytes = 144 * 16 * 32 * 34 * 4
    assert cols_nbytes <= peak < cols_nbytes + x.nbytes / 2


def test_a_training_forward_leaves_no_patch_matrix_in_the_seg_net():
    # at B=16, 32x32 the three convs' patch matrices take 0.6 + 5.0 + 10.0 MB
    # and their inputs 0.06 + 0.5 + 1.0 MB; each ReLU caches its output,
    # the array the next conv already caches, so it costs nothing
    seg = build_seg_model(4, seed=3)
    x = np.random.default_rng(67).uniform(size=(16, 1, 32, 32)).astype(np.float32)
    seg.forward(x, train=True)
    layers = seg.layers
    convs = [layer for layer in layers if isinstance(layer, Conv2D)]
    assert len(convs) == 3
    for relu, conv in zip(layers[1::2], layers[2::2]):
        assert isinstance(relu, ReLU) and relu._cache is conv._cache
    caches = {id(layer._cache): layer._cache for layer in layers}
    cached = sum(cache.nbytes for cache in caches.values())
    assert cached == sum(conv._cache.nbytes for conv in convs)
    assert cached < 72 * 16 * 32 * 34 * 4  # the 8->16 conv's patch matrix


def whole_batch_forward(conv: Conv2D, x: np.ndarray) -> np.ndarray:
    """``Conv2D.forward`` as first written, the oracle for the per-image
    path: one matmul over the whole batch's patch matrix."""
    b, _, h, w = x.shape
    cols, wp = conv._im2col(x, b)
    wide = conv.weight.value.T @ cols
    out = wide.reshape(conv.out_ch, b, h, wp)[:, :, :, :w] \
        + conv.bias.value[:, None, None, None]
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3))


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("h,w", [(32, 32), (12, 20)])
@pytest.mark.parametrize("b", [1, 3, 8, 16])
@pytest.mark.parametrize("cin,cout", [(16, 4), (8, 16)],
                         ids=["narrowing", "widening"])
def test_conv_forward_matches_the_whole_batch_oracle_bit_for_bit(cin, cout, b,
                                                                 h, w, k):
    rng = np.random.default_rng([61, cin, cout, b, h, w, k])
    conv = Conv2D(cin, cout, k, rng=rng)
    conv.bias.value = rng.normal(size=cout).astype(np.float32)
    x = rng.normal(size=(b, cin, h, w)).astype(np.float32)
    out = conv.forward(x)
    want = whole_batch_forward(conv, x)
    assert out.dtype == want.dtype and out.shape == want.shape
    assert out.flags.c_contiguous
    assert out.tobytes() == want.tobytes()


def test_a_narrowing_conv_forward_builds_no_whole_batch_patch_matrix():
    # the 16->4 logits conv at a training batch: its whole-batch patch
    # matrix would be 10 MB, 40 times the output
    rng = np.random.default_rng(71)
    conv = Conv2D(16, 4, rng=rng)
    x = rng.normal(size=(16, 16, 32, 32)).astype(np.float32)
    conv.forward(x)  # warm up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = conv.forward(x, train=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    whole_batch_cols = 144 * 16 * 32 * 34 * 4
    assert peak < whole_batch_cols / 4
    assert peak >= out.nbytes + whole_batch_cols / 16  # one image's


@pytest.mark.parametrize("b", [8, 16])
@pytest.mark.parametrize("cin,cout", [(1, 8), (8, 16), (16, 4), (5, 8)])
def test_forward_padded_writes_into_the_given_buffers(cin, cout, b):
    # the nets' four convs at the eval chunk and the training batch; each
    # buffer is one element longer than buffer_sizes and starts as NaN, so
    # the kernel must overwrite exactly its front
    rng = np.random.default_rng([83, cin, cout, b])
    conv = Conv2D(cin, cout, rng=rng)
    conv.bias.value = rng.normal(size=cout).astype(np.float32)
    xp = nn.pad([rng.normal(size=(b, cin, 32, 32)).astype(np.float32)], 1)
    want = conv.forward_padded(xp, b, 32, 32)
    sizes = conv.buffer_sizes(b, 32, 32)
    cols, out = (np.full(size + 1, np.nan, dtype=np.float32) for size in sizes)
    got = conv.forward_padded(xp, b, 32, 32, cols=cols, out=out)
    assert np.shares_memory(got, out)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for buf, size in zip((cols, out), sizes):
        assert not np.isnan(buf[:size]).any() and np.isnan(buf[size])


def test_backward_without_forward_raises():
    with pytest.raises(RuntimeError, match="without a cached forward"):
        Dense(2, 2, rng=np.random.default_rng(0)).backward(
            np.ones((1, 2), dtype=np.float32))


class TestAdamW:
    def test_gradient_of_zero_without_decay_leaves_value(self):
        p = Param(np.array([1.5, -2.0], dtype=np.float32))
        adamw_step([p], lr=1e-3, weight_decay=0.0)
        np.testing.assert_array_equal(p.value, [1.5, -2.0])

    def test_gradient_of_zero_with_decay_scales_value(self):
        p = Param(np.array([1.0, -4.0], dtype=np.float32))
        adamw_step([p], lr=1e-3, weight_decay=1e-4)
        np.testing.assert_allclose(p.value, np.array([1.0, -4.0]) * (1 - 1e-7),
                                   rtol=1e-6)

    def test_first_step_matches_update_rule(self):
        p = Param(np.array([1.0], dtype=np.float32))
        p.grad[:] = 1.0
        lr, eps, wd = 1e-3, 1e-8, 1e-4  # eps: Adam's fixed guard
        adamw_step([p], lr=lr, weight_decay=wd)
        # bias-corrected mhat = vhat = 1 at step 1
        expected = 1.0 - lr * 1.0 / (np.sqrt(1.0) + eps) - lr * wd * 1.0
        np.testing.assert_allclose(p.value, [expected], rtol=1e-6)

    def test_step_counter_and_grad_untouched(self):
        p = Param(np.array([1.0], dtype=np.float32))
        p.grad[:] = 0.5
        adamw_step([p], lr=1e-3, weight_decay=1e-4)
        adamw_step([p], lr=1e-3, weight_decay=1e-4)
        assert p.step == 2
        np.testing.assert_array_equal(p.grad, [0.5])

    def test_nonfinite_grad_raises(self):
        p = Param(np.array([1.0], dtype=np.float32))
        p.grad[:] = np.nan
        with pytest.raises(NumericalError):
            adamw_step([p], lr=1e-3, weight_decay=1e-4)


LR = (10, 1e-3, 1e-6)  # warmup, lr0, lr_min: TrainConfig's defaults


class TestCosineLR:
    def test_warmup_end_hits_peak(self):
        assert cosine_lr(10, 100, *LR) == pytest.approx(1e-3)

    def test_final_epoch_hits_minimum(self):
        assert cosine_lr(100, 100, *LR) == pytest.approx(1e-6)

    def test_ramp_starts_at_zero(self):
        assert cosine_lr(0, 100, *LR) == 0.0

    def test_ramp_is_linear(self):
        assert cosine_lr(5, 100, *LR) == pytest.approx(0.5e-3)

    def test_decay_is_monotone(self):
        lrs = [cosine_lr(e, 60, *LR) for e in range(10, 61)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
