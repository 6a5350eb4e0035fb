"""Segmentation metric, training losses and per-sample uncertainty scores."""

from __future__ import annotations

import math

import numpy as np

from .nn import NumericalError

DICE_SMOOTH = 1e-5

UNCERTAINTY_KINDS = ("max_entropy", "least_conf", "margin", "var_ratio")

# size of a block of whole samples widened to float64 by uncertainty scores
_F64_BLOCK_BYTES = 1 << 20


def dsc_per_class_batch(pred_labels: np.ndarray, true_labels: np.ndarray,
                        num_fg: int) -> np.ndarray:
    """Per-sample, per-class DSC for batches of label masks (B, H, W) -> (B, num_fg).

    A class absent from both masks scores 1.0.
    """
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {true.shape}")
    for name, arr in (("pred", pred), ("true", true)):
        if arr.size and (arr.min() < 0 or arr.max() > num_fg):
            raise ValueError(f"{name} labels outside 0..{num_fg}")
    b = pred.shape[0]
    flat_p = pred.reshape(b, -1)
    flat_t = true.reshape(b, -1)
    out = np.empty((b, num_fg), dtype=np.float64)
    for j in range(1, num_fg + 1):
        pj = flat_p == j
        tj = flat_t == j
        inter = np.sum(pj & tj, axis=1)
        total = pj.sum(axis=1) + tj.sum(axis=1)
        out[:, j - 1] = np.where(total > 0, 2.0 * inter / np.maximum(total, 1), 1.0)
    return out


def dice_ce_loss(probs: np.ndarray, true_labels: np.ndarray
                 ) -> tuple[float, np.ndarray]:
    """Mean-pixel cross-entropy plus (1 - soft Dice over foreground classes).

    ``probs`` are post-softmax per-pixel distributions (B, C, H, W); the
    returned gradient is with respect to the pre-softmax logits, with the
    softmax Jacobian folded in analytically.
    """
    b, c, h, w = probs.shape
    npix = b * h * w
    labels = np.asarray(true_labels)
    onehot = (labels[:, None] == np.arange(c)[:, None, None]).astype(probs.dtype)

    p64 = probs.astype(np.float64)
    p_true = np.take_along_axis(p64, labels[:, None].astype(np.int64), axis=1)[:, 0]
    ce = -np.log(np.maximum(p_true, 1e-30)).sum() / npix

    num_fg = c - 1
    inter = (p64[:, 1:] * onehot[:, 1:]).sum(axis=(0, 2, 3))
    sums = p64[:, 1:].sum(axis=(0, 2, 3)) + onehot[:, 1:].sum(axis=(0, 2, 3))
    dice = (2.0 * inter + DICE_SMOOTH) / (sums + DICE_SMOOTH)
    loss = float(ce + 1.0 - dice.mean())
    if not np.isfinite(loss):
        raise NumericalError("non-finite segmentation loss")

    # d(1 - mean dice)/d p_j = -(2*y_j - D_j) / (C_fg * (sums_j + smooth))
    gprobs = np.zeros_like(p64)
    coef = 1.0 / (num_fg * (sums + DICE_SMOOTH))
    gprobs[:, 1:] = -(2.0 * onehot[:, 1:] - dice[None, :, None, None]) * coef[None, :, None, None]
    # dice part through the softmax Jacobian, CE part in closed form
    glogits = p64 * (gprobs - (gprobs * p64).sum(axis=1, keepdims=True))
    glogits += (p64 - onehot) / npix
    return loss, glogits.astype(probs.dtype)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries, with gradient wrt ``pred``."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.astype(np.float64) - target.astype(np.float64)
    loss = float(np.mean(diff * diff))
    if not np.isfinite(loss):
        raise NumericalError("non-finite regression loss")
    grad = (2.0 / diff.size) * diff
    return loss, grad.astype(pred.dtype)


def uncertainty_scores(kind: str, probs: np.ndarray) -> np.ndarray:
    """Per-sample uncertainty from per-pixel posteriors (B, C, H, W) -> (B,).

    Scores are pixel averages; higher always means more uncertain. Every
    kind works one block of samples at a time, so no whole-pool temporary
    exists. Each score reduces only its own sample, so blocks keep the bits.
    """
    if kind not in UNCERTAINTY_KINDS:
        raise ValueError(f"unknown uncertainty kind {kind!r}")
    b = probs.shape[0]
    scores = np.empty(b)
    step = max(1, _F64_BLOCK_BYTES // (8 * max(1, math.prod(probs.shape[1:]))))
    for lo in range(0, b, step):
        scores[lo:lo + step] = _block_scores(kind, probs[lo:lo + step])
    return scores


def _block_scores(kind: str, block: np.ndarray) -> np.ndarray:
    """``uncertainty_scores`` of one block of samples."""
    n = len(block)
    if kind == "max_entropy":
        # p * log(p) in one buffer; a zero p gives -0.0, which adds as 0
        plogp = np.maximum(block, 1e-300, dtype=np.float64)
        np.log(plogp, out=plogp)
        plogp *= block
        return (-plogp.sum(axis=1)).reshape(n, -1).mean(axis=1)
    if kind == "least_conf":
        top = block.max(axis=1).astype(np.float64)
        return (1.0 - top).reshape(n, -1).mean(axis=1)
    if kind == "margin":
        top2 = np.partition(block, -2, axis=1)[:, -2:].astype(np.float64)
        return -(top2[:, 1] - top2[:, 0]).reshape(n, -1).mean(axis=1)
    # var_ratio: fraction of pixels whose winning probability lacks majority
    confident = block.max(axis=1) > 0.5
    return 1.0 - confident.reshape(n, -1).mean(axis=1)


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; 0.0 when either side is constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0:
        return 0.0
    return float((xc * yc).sum() / denom)
