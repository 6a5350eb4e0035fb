"""Toy segmentation network and accuracy predictor.

The segmentation model is a three-conv stack with a per-pixel channel
softmax; its second ReLU activation is tapped and average-pooled into a
16-dim feature embedding. The accuracy predictor consumes the input image
concatenated with the segmentation probabilities and regresses one value in
[0, 1] per foreground class. The two networks share no parameters, so
training one can never move the other.
"""

from __future__ import annotations

import numpy as np

from .nn import (ChannelSoftmax, Conv2D, Dense, GlobalAvgPool, Network, ReLU,
                 Sigmoid)

FEATURE_DIM = 16


def build_seg_model(in_channels: int = 1, num_classes: int = 4,
                    seed: int = 0) -> Network:
    """Segmentation net: conv(in->8)+ReLU, conv(8->16)+ReLU (tapped), conv(16->C), softmax."""
    rng = np.random.default_rng([seed, 0x5E6])
    layers = [
        Conv2D(in_channels, 8, rng=rng),
        ReLU(),
        Conv2D(8, FEATURE_DIM, rng=rng),
        ReLU(),
        Conv2D(FEATURE_DIM, num_classes, rng=rng),
        ChannelSoftmax(),
    ]
    return Network(layers, taps={"feature": 3})


def build_ap_model(in_channels: int = 1, num_classes: int = 4,
                   seed: int = 0) -> Network:
    """Accuracy predictor: conv((in+C)->8)+ReLU, global pool, dense(8->C-1), sigmoid."""
    rng = np.random.default_rng([seed, 0xA9])
    num_fg = num_classes - 1
    layers = [
        Conv2D(in_channels + num_classes, 8, rng=rng),
        ReLU(),
        GlobalAvgPool(),
        Dense(8, num_fg, rng=rng),
        Sigmoid(),
    ]
    return Network(layers)


def normalize_images(images: np.ndarray) -> np.ndarray:
    """u8 images (B, H, W) or (B, C, H, W) -> float32 in [0, 1] with a channel axis."""
    imgs = np.asarray(images)
    if imgs.ndim == 3:
        imgs = imgs[:, None, :, :]
    return imgs.astype(np.float32) / 255.0


def seg_forward(seg: Network, images: np.ndarray,
                train: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel class probabilities plus the pooled 16-dim feature embedding."""
    acts = seg.forward(images, train=train)
    probs = acts[-1]
    features = seg.tapped(acts, "feature").mean(axis=(2, 3))
    return probs, features


def concat_channels(images: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Stack image channels (scaled to [0,1]) in front of probability channels."""
    if images.ndim != 4 or probs.ndim != 4:
        raise ValueError("concat_channels expects (B, C, H, W) arrays")
    if images.shape[0] != probs.shape[0] or images.shape[2:] != probs.shape[2:]:
        raise ValueError(
            f"image batch/spatial dims {images.shape} do not match probs {probs.shape}")
    return np.concatenate([images, probs], axis=1)


def ap_forward(ap: Network, images: np.ndarray, probs: np.ndarray,
               train: bool = False) -> np.ndarray:
    """Predicted per-foreground-class accuracy in [0, 1].

    ``probs`` is consumed as a constant: no gradient path back into the
    segmentation model exists.
    """
    x = concat_channels(images, probs)
    return ap.forward(x, train=train)[-1]
