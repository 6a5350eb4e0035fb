"""Minimal differentiable layers on numpy arrays.

Everything the toy segmentation and accuracy-predictor networks need:
float32 tensors, the layers the two nets use with hand-written backward
passes, decoupled-weight-decay Adam and a warmup+cosine learning-rate
schedule. The segmentation net ends at its logits: its softmax lives in
``models.softmax``, because the Dice+CE loss folds the softmax Jacobian into
its logit gradient. Accumulation order is fixed, so repeated runs with the
same inputs are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and guard
# images per block of a conv's input gradient: fastest at the nets' training
# shapes (B=16, 32x32); the result does not depend on it
_GRAD_BLOCK = 4


class NumericalError(ArithmeticError):
    """A non-finite value (NaN/Inf) appeared where finite math is required."""


class Param:
    """A trainable array, its gradient (which each backward pass overwrites
    in place, so nothing zeroes it) and its Adam moment buffers."""

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self.step = 0


def glorot_uniform(shape, fan_in: int, fan_out: int,
                   rng: np.random.Generator) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class Layer:
    """Base layer: forward caches whatever backward needs when train=True."""

    _cache = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Write this pass's parameter gradients into each ``Param.grad``
        (overwriting the last pass's); return the input gradient."""
        raise NotImplementedError

    def _take_cache(self):
        """Return and clear the forward pass's cache; raise if there is none."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(
                f"{type(self).__name__}: backward called without "
                "a cached forward pass")
        return cache


class Conv2D(Layer):
    """Same-padded stride-1 correlation, implemented as im2col + matmul.

    Forward works on a zero-padded channel-first buffer (:func:`pad`),
    (C, B*(H+p)*Wp + 2*top) with p = k//2, Wp = W + 2p and top = p*(Wp+1):
    pixel (c, i, y, x) sits at column top + (i*(H+p) + y)*Wp + x, so each
    row ends in 2p zero lanes and images share p zero rows. Output column
    j reads tap (dy, dx) at input column j + dy*Wp + dx, so each tap's
    patch-matrix rows are one contiguous slice of the buffer.
    :meth:`forward_padded` writes its matmul straight into the output's
    buffer, adds the bias and zeroes the padding again, so the next conv
    reads it as is; :meth:`forward` is that kernel between one ``pad`` and
    one copy into a contiguous (B, O, H, W) output. A narrowing conv (the
    seg net's logits head) builds its patch matrix one image at a time:
    its matmul does few multiply-adds per element read, so a whole-batch
    matrix far larger than L2 is slower (16->4 at 16 images, 32x32: 2.7 ms
    whole, 1.3 ms per image), while wider convs lose with any block
    smaller than the batch. Each valid column is the same dot product, in
    the same order, with the same bias add, as in a patch matrix without
    shared rows; only the matmul's column count changes, which changes no
    output bit under OpenBLAS's SkylakeX kernel, as pool chunking relies
    on too. Its Haswell kernel changes last bits at some shapes.

    Training caches the input, not its patch matrix, which is k*k times as
    large. Backward rebuilds the patch matrix for the weight gradient,
    padding ``_GRAD_BLOCK`` images at a time into one reused buffer, and
    frees it before the input gradient. That gradient is built one tap at
    a time, ``_GRAD_BLOCK`` images at once, in forward's layout with the
    channel planes stacked too, so each tap's scatter is one contiguous
    add. The bits are those of one (k*k*C, B*H*Wp) product scattered into
    separate planes: each valid column is the same O-term dot product;
    each extra term landing on a valid position comes from a zero gradient
    row or lane, so it is +-0 and changes no bit of an accumulator that
    starts at +0; and each position adds its taps in tap order. The weight
    gradient sums over the pixel axis, whose order sets its bits, so it
    keeps :meth:`_im2col`'s (O, B*H*Wp) layout. The weight is kept as the
    (k*k*C, O) matrix the matmuls read, rows in the patch matrix's (tap,
    channel) order.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int = 3, *,
                 rng: np.random.Generator):
        if kernel % 2 != 1:
            raise ValueError("same padding requires an odd kernel size")
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.kernel = kernel
        fan = kernel * kernel
        w = glorot_uniform((out_ch, in_ch, kernel, kernel), in_ch * fan,
                           out_ch * fan, rng)
        self.weight = Param(w.transpose(2, 3, 1, 0).reshape(-1, out_ch))
        self.bias = Param(np.zeros(out_ch, dtype=np.float32))

    def params(self):
        return [self.weight, self.bias]

    def _im2col(self, x: np.ndarray, block: int) -> tuple[np.ndarray, int]:
        """Patch matrix (k*k*C, B*H*Wp) over the padded plane, channel-first.

        The spatial extent is flattened so each tap is one contiguous slice
        of the padded buffer; the padding columns ride along as junk lanes
        (width Wp instead of W) and are sliced away after the matmul. The
        input is padded ``block`` images at a time into one reused buffer,
        whose zero borders are never overwritten.
        """
        k = self.kernel
        p = k // 2
        b, c, h, w = x.shape
        wp = w + 2 * p
        plane = (h + 2 * p) * wp
        span = h * wp
        nb = min(block, b)
        xt = np.zeros((c, nb, plane + k), dtype=x.dtype)
        inner = xt[:, :, :plane].reshape(c, nb, h + 2 * p, wp)[
            :, :, p:p + h, p:p + w]
        cols = np.empty((k * k, c, b, span), dtype=x.dtype)
        for lo in range(0, b, nb):
            m = min(nb, b - lo)
            inner[:, :m] = x[lo:lo + m].transpose(1, 0, 2, 3)
            for tap in range(k * k):
                off = (tap // k) * wp + tap % k
                cols[tap, :, lo:lo + m] = xt[:, :m, off:off + span]
        return cols.reshape(k * k * c, b * span), wp

    def forward(self, x, train=False):
        b, _, h, w = x.shape
        p = self.kernel // 2
        # allocated before the kernel's buffers, so freeing them leaves one
        # hole for backward's patch matrix; allocated after, it split that
        # hole, and query_heavy's peak RSS rose 1.3 MB on some heap layouts
        out = np.empty((b, self.out_ch, h, w),
                       dtype=np.result_type(x, self.weight.value, self.bias.value))
        out.transpose(1, 0, 2, 3)[...] = _interior(
            self.forward_padded(pad([x], p), b, h, w), b, h, w, p)
        if train:
            self._cache = x
        return out

    def forward_padded(self, xp: np.ndarray, b: int, h: int,
                       w: int) -> np.ndarray:
        """The padded (O, ...) buffer of this conv's output on B HxW images,
        from its input's padded (C, ...) buffer (see the class docstring)."""
        k, c = self.kernel, self.in_ch
        p = k // 2
        wp = w + 2 * p
        top = p * (wp + 1)
        span = (h + p) * wp  # one image's columns
        n = b * span
        weight, bias = self.weight.value, self.bias.value
        outp = np.empty((self.out_ch, n + 2 * top),
                        dtype=np.result_type(xp, weight, bias))
        # a narrowing conv goes one image at a time (see the class docstring)
        step = span * (1 if self.out_ch < c else max(b, 1))
        cols = np.empty((k * k * c, step), dtype=xp.dtype)
        for lo in range(0, n, step):
            for tap in range(k * k):
                off = lo + (tap // k) * wp + tap % k
                cols[tap * c:(tap + 1) * c] = xp[:, off:off + step]
            np.matmul(weight.T, cols, out=outp[:, top + lo:top + lo + step])
        del cols
        outp[:, top:top + n] += bias[:, None]
        outp[:, :top] = 0
        outp[:, top + n:] = 0
        grid = outp[:, top:top + n].reshape(self.out_ch, b, h + p, wp)
        grid[:, :, h:] = 0
        grid[:, :, :h, w:] = 0
        return outp

    def backward(self, grad_out, input_grad=True):
        """As :meth:`Layer.backward`, but ``input_grad=False`` returns None
        uncomputed: a conv alone can skip it, as each net's first layer."""
        x = self._take_cache()
        b, c, h, w = x.shape
        k = self.kernel
        p = k // 2
        np.sum(grad_out, axis=(0, 2, 3), out=self.bias.grad)
        cols, wp = self._im2col(x, _GRAD_BLOCK)
        np.matmul(cols, _widen(grad_out, h, wp).T, out=self.weight.grad)
        del cols  # the patch matrix is the largest buffer: free it first
        if not input_grad:
            return None
        stride = (h + p) * wp  # between planes (see the class docstring)
        top = p * (wp + 1)  # the first pixel's offset in its padded plane
        g2d = _widen(grad_out, h + p, wp)
        dtype = np.result_type(self.weight.value, g2d)
        nb = min(_GRAD_BLOCK, b)
        gx = np.empty((b, c, h, w), dtype=dtype)
        prod = np.empty(c * nb * stride, dtype=dtype)
        gxt = np.empty(c * nb * stride + 2 * top, dtype=dtype)
        for lo in range(0, b, nb):
            m = min(nb, b - lo)
            n = c * m * stride
            tap_out, acc = prod[:n], gxt[:n + 2 * top]
            acc[...] = 0
            for tap in range(k * k):
                off = (tap // k) * wp + tap % k
                np.matmul(self.weight.value[tap * c:(tap + 1) * c],
                          g2d[:, lo * stride:(lo + m) * stride],
                          out=tap_out.reshape(c, m * stride))
                acc[off:off + n] += tap_out
            gx[lo:lo + m] = acc[top:top + n].reshape(c, m, h + p, wp)[
                :, :, :h, :w].transpose(1, 0, 2, 3)
        return gx


def pad(parts: list[np.ndarray], p: int) -> np.ndarray:
    """The (B, C_i, H, W) arrays, stacked along channels, as one buffer
    zero-padded by ``p`` in :class:`Conv2D`'s channel-first layout."""
    b, _, h, w = parts[0].shape
    wp = w + 2 * p
    channels = sum(x.shape[1] for x in parts)
    buf = np.zeros((channels, b * (h + p) * wp + 2 * p * (wp + 1)),
                   dtype=np.result_type(*parts))
    inner, lo = _interior(buf, b, h, w, p), 0
    for x in parts:
        inner[lo:lo + x.shape[1]] = x.transpose(1, 0, 2, 3)
        lo += x.shape[1]
    return buf


def _interior(buf: np.ndarray, b: int, h: int, w: int, p: int) -> np.ndarray:
    """The (C, B, H, W) pixels of a padded buffer, as a view."""
    wp = w + 2 * p
    top = p * (wp + 1)
    return buf[:, top:top + b * (h + p) * wp].reshape(
        len(buf), b, h + p, wp)[:, :, :h, :w]


def unpad(buf: np.ndarray, b: int, h: int, w: int, p: int) -> np.ndarray:
    """A padded buffer's pixels as a contiguous (B, C, H, W) array."""
    return np.ascontiguousarray(_interior(buf, b, h, w, p).transpose(1, 0, 2, 3))


def _widen(grad_out: np.ndarray, rows: int, wp: int) -> np.ndarray:
    """(B, O, H, W) gradient as (O, B*rows*wp): each image's plane
    zero-padded to ``rows`` rows of ``wp`` lanes, so padding adds nothing."""
    b, o, h, w = grad_out.shape
    wide = np.zeros((o, b, rows, wp), dtype=grad_out.dtype)
    wide[:, :, :h, :w] = grad_out.transpose(1, 0, 2, 3)
    return wide.reshape(o, b * rows * wp)


class Dense(Layer):
    """Fully connected layer on (B, in_dim) inputs."""

    def __init__(self, in_dim: int, out_dim: int, *, rng: np.random.Generator):
        self.weight = Param(glorot_uniform((in_dim, out_dim), in_dim, out_dim, rng))
        self.bias = Param(np.zeros(out_dim, dtype=np.float32))

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, train=False):
        if train:
            self._cache = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_out):
        x = self._take_cache()
        np.matmul(x.T, grad_out, out=self.weight.grad)
        np.sum(grad_out, axis=0, out=self.bias.grad)
        return grad_out @ self.weight.value.T


class ReLU(Layer):
    """Rectifier that overwrites its input: in both nets that input is a
    conv's fresh output, which nothing else holds.

    Training caches the output, and backward masks by ``out > 0``, the
    same mask as ``x > 0`` (NaN gives False both ways). In the seg net
    that output is the array the next conv caches, so it costs nothing.
    """

    def forward(self, x, train=False):
        out = np.maximum(x, 0, out=x)
        if train:
            self._cache = out
        return out

    def backward(self, grad_out):
        out = self._take_cache()
        return grad_out * (out > 0)


class Sigmoid(Layer):
    def forward(self, x, train=False):
        # split by sign for numerical stability
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        if train:
            self._cache = out
        return out

    def backward(self, grad_out):
        y = self._take_cache()
        return grad_out * y * (1.0 - y)


class GlobalAvgPool(Layer):
    """Spatial mean per channel: (B, C, H, W) -> (B, C)."""

    def forward(self, x, train=False):
        if train:
            self._cache = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out):
        b, c, h, w = self._take_cache()
        g = grad_out / (h * w)
        return np.broadcast_to(g[:, :, None, None], (b, c, h, w)).copy()


class Network:
    """A net: one flat, ordered list of layers."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad_out: np.ndarray) -> None:
        """Backpropagate from the last layer to the first, writing each
        ``Param.grad``. Nothing upstream of a net trains, so the first
        layer, a ``Conv2D``, computes no input gradient."""
        for layer in reversed(self.layers[1:]):
            grad_out = layer.backward(grad_out)
        self.layers[0].backward(grad_out, input_grad=False)


def adamw_step(params: list[Param], lr: float, weight_decay: float) -> None:
    """One decoupled-weight-decay Adam update; leaves gradients untouched."""
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise NumericalError("non-finite gradient in adamw_step")
        p.step += 1
        g = p.grad
        p.m += (1.0 - _BETA1) * (g - p.m)
        p.v += (1.0 - _BETA2) * (g * g - p.v)
        mhat = p.m / (1.0 - _BETA1 ** p.step)
        vhat = p.v / (1.0 - _BETA2 ** p.step)
        p.value -= (lr * mhat / (np.sqrt(vhat) + _EPS)
                    + lr * weight_decay * p.value).astype(p.value.dtype, copy=False)


def cosine_lr(epoch: int, total_epochs: int, warmup: int, lr0: float,
              lr_min: float) -> float:
    """Linear 0 -> lr0 ramp over ``warmup`` epochs, then cosine decay to lr_min."""
    if epoch < warmup:
        return lr0 * epoch / warmup
    progress = (epoch - warmup) / (total_epochs - warmup)
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * progress))
