"""Minimal differentiable layers on numpy arrays.

Everything the toy segmentation and accuracy-predictor networks need:
float32 tensors, a handful of layers with hand-written backward passes,
decoupled-weight-decay Adam, a warmup+cosine learning-rate schedule and a
finite-difference gradient checker. Accumulation order is fixed, so repeated
runs with the same inputs are bit-identical.
"""

from __future__ import annotations

import copy
import math

import numpy as np


class ShapeError(ValueError):
    """Input shape does not match what a layer expects."""


class NumericalError(ArithmeticError):
    """A non-finite value (NaN/Inf) appeared where finite math is required."""


class Param:
    """A trainable array with its gradient and Adam moment buffers."""

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self.step = 0

    @property
    def shape(self):
        return self.value.shape


def glorot_uniform(shape, fan_in: int, fan_out: int, rng: np.random.Generator,
                   dtype=np.float32) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Layer:
    """Base layer: forward caches whatever backward needs when train=True."""

    name = ""

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _require_cache(self, cache):
        if cache is None:
            raise RuntimeError(
                f"{self.name or type(self).__name__}: backward called without "
                "a cached forward pass")
        return cache

    def _shape_error(self, got, want: str):
        raise ShapeError(
            f"{self.name or type(self).__name__}: expected input {want}, "
            f"got shape {tuple(got)}")


class Conv2D(Layer):
    """Same-padded stride-1 correlation, implemented as im2col + one matmul."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int = 3,
                 rng: np.random.Generator | None = None):
        if rng is None:
            rng = np.random.default_rng(0)
        if kernel % 2 != 1:
            raise ValueError("same padding requires an odd kernel size")
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.kernel = kernel
        fan = kernel * kernel
        self.weight = Param(glorot_uniform(
            (out_ch, in_ch, kernel, kernel), in_ch * fan, out_ch * fan, rng))
        self.bias = Param(np.zeros(out_ch, dtype=np.float32))
        self._cache = None

    def params(self):
        return [self.weight, self.bias]

    def _im2col(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """Patch matrix (k*k*C, B*H*Wp) over the padded plane, channel-first.

        The spatial extent is flattened so each tap is one contiguous slice
        of the padded buffer; the padding columns ride along as junk lanes
        (width Wp instead of W) and are sliced away after the matmul.
        """
        k = self.kernel
        p = k // 2
        b, c, h, w = x.shape
        wp = w + 2 * p
        plane = (h + 2 * p) * wp
        xt = np.zeros((c, b, plane + k), dtype=x.dtype)
        xt[:, :, :plane].reshape(c, b, h + 2 * p, wp)[:, :, p:p + h, p:p + w] = \
            x.transpose(1, 0, 2, 3)
        span = h * wp
        cols = np.empty((k * k, c, b, span), dtype=x.dtype)
        for di in range(k):
            for dj in range(k):
                off = di * wp + dj
                cols[di * k + dj] = xt[:, :, off:off + span]
        return cols.reshape(k * k * c, b * span), wp

    def _w2d(self, dtype) -> np.ndarray:
        # (O, C, k, k) -> (O, k*k*C) matching the im2col row order
        return np.ascontiguousarray(
            self.weight.value.transpose(2, 3, 1, 0)).reshape(
                -1, self.out_ch).T.astype(dtype, copy=False)

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            self._shape_error(x.shape, f"(B, {self.in_ch}, H, W)")
        b, _, h, w = x.shape
        cols, wp = self._im2col(x)
        wide = self._w2d(x.dtype) @ cols
        out = wide.reshape(self.out_ch, b, h, wp)[:, :, :, :w] \
            + self.bias.value[:, None, None, None]
        if train:
            self._cache = (cols, x.shape, wp)
        return np.ascontiguousarray(out.transpose(1, 0, 2, 3))

    def backward(self, grad_out):
        cols, x_shape, wp = self._require_cache(self._cache)
        self._cache = None
        b, c, h, w = x_shape
        k = self.kernel
        p = k // 2
        span = h * wp
        # zero junk lanes so they contribute nothing to either gradient
        gwide = np.zeros((self.out_ch, b, h, wp), dtype=grad_out.dtype)
        gwide[:, :, :, :w] = grad_out.transpose(1, 0, 2, 3)
        g2d = gwide.reshape(self.out_ch, b * span)
        self.bias.grad += grad_out.sum(axis=(0, 2, 3))
        gw2d = (g2d @ cols.T).reshape(self.out_ch, k, k, c)
        self.weight.grad += gw2d.transpose(0, 3, 1, 2)
        gcols = (self._w2d(g2d.dtype).T @ g2d).reshape(k * k, c, b, span)
        gxt = np.zeros((c, b, (h + 2 * p) * wp + k), dtype=gcols.dtype)
        for di in range(k):
            for dj in range(k):
                off = di * wp + dj
                gxt[:, :, off:off + span] += gcols[di * k + dj]
        gx = gxt[:, :, :(h + 2 * p) * wp].reshape(c, b, h + 2 * p, wp)[
            :, :, p:p + h, p:p + w]
        return np.ascontiguousarray(gx.transpose(1, 0, 2, 3))


class Dense(Layer):
    """Fully connected layer on (B, in_dim) inputs."""

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator | None = None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Param(glorot_uniform((in_dim, out_dim), in_dim, out_dim, rng))
        self.bias = Param(np.zeros(out_dim, dtype=np.float32))
        self._cache = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            self._shape_error(x.shape, f"(B, {self.in_dim})")
        if train:
            self._cache = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_out):
        x = self._require_cache(self._cache)
        self._cache = None
        self.weight.grad += x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value.T


class ReLU(Layer):
    def __init__(self):
        self._cache = None

    def forward(self, x, train=False):
        if train:
            self._cache = x > 0
        return np.maximum(x, 0)

    def backward(self, grad_out):
        mask = self._require_cache(self._cache)
        self._cache = None
        return grad_out * mask


class Sigmoid(Layer):
    def __init__(self):
        self._cache = None

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
        y = self._require_cache(self._cache)
        self._cache = None
        return grad_out * y * (1.0 - y)


class ChannelSoftmax(Layer):
    """Softmax over axis 1 (the channel axis), independently per pixel."""

    def __init__(self):
        self._cache = None

    def forward(self, x, train=False):
        if x.ndim < 2:
            self._shape_error(x.shape, "(B, C, ...)")
        z = x - x.max(axis=1, keepdims=True)
        ez = np.exp(z)
        out = ez / ez.sum(axis=1, keepdims=True)
        if train:
            self._cache = out
        return out

    def backward(self, grad_out):
        p = self._require_cache(self._cache)
        self._cache = None
        return p * (grad_out - (grad_out * p).sum(axis=1, keepdims=True))


class GlobalAvgPool(Layer):
    """Spatial mean per channel: (B, C, H, W) -> (B, C)."""

    def __init__(self):
        self._cache = None

    def forward(self, x, train=False):
        if x.ndim != 4:
            self._shape_error(x.shape, "(B, C, H, W)")
        if train:
            self._cache = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out):
        b, c, h, w = self._require_cache(self._cache)
        self._cache = None
        g = grad_out / (h * w)
        return np.broadcast_to(g[:, :, None, None], (b, c, h, w)).copy()


class Network:
    """An ordered layer stack with named tap points.

    ``taps`` maps a name to a layer index; the activation produced by that
    layer can be fetched from a forward pass with :meth:`tapped`.
    """

    def __init__(self, layers: list[Layer], taps: dict[str, int] | None = None):
        self.layers = layers
        self.taps = dict(taps or {})
        for i, layer in enumerate(self.layers):
            if not layer.name:
                layer.name = f"layer{i}:{type(layer).__name__}"
        for name, idx in self.taps.items():
            if not 0 <= idx < len(layers):
                raise ValueError(f"tap {name!r} points at invalid layer index {idx}")

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: np.ndarray, train: bool = False) -> list[np.ndarray]:
        """Run the stack, returning [input, out_0, ..., out_last]."""
        activations = [x]
        for layer in self.layers:
            x = layer.forward(x, train=train)
            activations.append(x)
        return activations

    def tapped(self, activations: list[np.ndarray], name: str) -> np.ndarray:
        return activations[self.taps[name] + 1]

    def backward(self, grad_out: np.ndarray, start: int | None = None) -> np.ndarray:
        """Backpropagate from layer ``start`` (default: the last) down to the input.

        Accumulates into each Param.grad; the caller is responsible for
        zeroing gradients between steps.
        """
        if start is None:
            start = len(self.layers) - 1
        g = grad_out
        for layer in reversed(self.layers[:start + 1]):
            g = layer.backward(g)
        return g

    def zero_grad(self):
        for p in self.params():
            p.grad[...] = 0

    def astype(self, dtype) -> "Network":
        """Deep copy with parameters cast to ``dtype`` (used by the gradient checker)."""
        clone = copy.deepcopy(self)
        for p in clone.params():
            p.value = p.value.astype(dtype)
            p.grad = np.zeros_like(p.value)
            p.m = np.zeros_like(p.value)
            p.v = np.zeros_like(p.value)
        return clone


def adamw_step(params: list[Param], lr: float, beta1: float = 0.9,
               beta2: float = 0.999, eps: float = 1e-8,
               weight_decay: float = 1e-4) -> None:
    """One decoupled-weight-decay Adam update; leaves gradients untouched."""
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise NumericalError("non-finite gradient in adamw_step")
        p.step += 1
        g = p.grad
        p.m += (1.0 - beta1) * (g - p.m)
        p.v += (1.0 - beta2) * (g * g - p.v)
        mhat = p.m / (1.0 - beta1 ** p.step)
        vhat = p.v / (1.0 - beta2 ** p.step)
        p.value -= (lr * mhat / (np.sqrt(vhat) + eps)
                    + lr * weight_decay * p.value).astype(p.value.dtype, copy=False)


def cosine_lr(epoch: int, total_epochs: int, warmup: int = 10,
              lr0: float = 1e-3, lr_min: float = 1e-6) -> float:
    """Linear 0 -> lr0 ramp over ``warmup`` epochs, then cosine decay to lr_min."""
    if total_epochs <= warmup:
        raise ValueError(f"total_epochs ({total_epochs}) must exceed warmup ({warmup})")
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    if epoch < warmup:
        return lr0 * epoch / warmup
    progress = (epoch - warmup) / (total_epochs - warmup)
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * progress))


def finite_diff_check(net: Network, x: np.ndarray, loss_fn,
                      eps: float = 1e-3) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn(output) -> (loss, grad_wrt_output)``. The check runs on a
    float64 copy of the network so the difference quotients are not drowned
    in float32 rounding noise.
    """
    net64 = net.astype(np.float64)
    x64 = x.astype(np.float64)

    acts = net64.forward(x64, train=True)
    _, gout = loss_fn(acts[-1])
    net64.zero_grad()
    net64.backward(np.asarray(gout, dtype=np.float64))

    def loss_at():
        return float(loss_fn(net64.forward(x64)[-1])[0])

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
