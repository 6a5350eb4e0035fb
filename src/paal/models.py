"""Toy segmentation network and accuracy predictor.

Each net is one flat layer list. The segmentation model is three convs
ending at the per-pixel class logits; :func:`softmax` turns them into
posteriors outside the network, because the training loss takes its
gradient with respect to the logits. Every layer but the last, the logits
conv (head), is the trunk, whose output is average-pooled into a 16-dim
feature embedding. Inference (:func:`seg_forward`) runs only the layers
the wanted outputs read. The accuracy predictor consumes the input image
concatenated with the segmentation probabilities and regresses one value
in [0, 1] per foreground class. The two networks share no parameters, so
training one can never move the other.

Training runs each net's ``forward``. Inference (:func:`seg_forward`,
:func:`ap_forward`) chains the convs on zero-padded channel-first buffers
(see ``nn.Conv2D``): each conv writes the next one's padded input, and a
contiguous array is made only where a reduction or the caller reads one.
The convs write into a :class:`Workspace`'s buffers, the caller's or one
made for the call. Its outputs are bit-identical to the layer-by-layer
``forward``'s.
"""

from __future__ import annotations

import numpy as np

from .nn import (Conv2D, Dense, GlobalAvgPool, Network, ReLU, Sigmoid, pad,
                 unpad)

FEATURE_DIM = 16


def build_seg_model(num_classes: int, seed: int) -> Network:
    """Segmentation net conv(1->8), ReLU, conv(8->16), ReLU, conv(16->C):
    the layers before the last are the trunk (pooled into the features),
    the last the logits head."""
    rng = np.random.default_rng([seed, 0x5E6])
    return Network([
        Conv2D(1, 8, rng=rng),
        ReLU(),
        Conv2D(8, FEATURE_DIM, rng=rng),
        ReLU(),
        Conv2D(FEATURE_DIM, num_classes, rng=rng),
    ])


def build_ap_model(num_classes: int, seed: int) -> Network:
    """Accuracy predictor: conv((1+C)->8)+ReLU, global pool, dense(8->C-1), sigmoid."""
    rng = np.random.default_rng([seed, 0xA9])
    layers = [
        Conv2D(1 + num_classes, 8, rng=rng),
        ReLU(),
        GlobalAvgPool(),
        Dense(8, num_classes - 1, rng=rng),
        Sigmoid(),
    ]
    return Network(layers)


def normalize_images(images: np.ndarray) -> np.ndarray:
    """u8 images (B, H, W) -> float32 (B, 1, H, W) in [0, 1]."""
    return images[:, None].astype(np.float32) / 255.0


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over axis 1 (the channel axis), independently per pixel."""
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def channel_argmax(probs: np.ndarray) -> np.ndarray:
    """Per-pixel label of the largest channel, (B, C, H, W) -> (B, H, W) uint8.

    Equal to ``probs.argmax(axis=1)`` on NaN-free input (the first maximum
    wins), but one contiguous pass per channel instead of a strided scan.
    Labels come out in the masks' dtype, so C is at most 256.
    """
    best = probs[:, 0].copy()
    labels = np.zeros(best.shape, dtype=np.uint8)
    for j in range(1, probs.shape[1]):
        labels[probs[:, j] > best] = j
        np.maximum(best, probs[:, j], out=best)
    return labels


class Workspace:
    """One inference pass's conv buffers, flat: a patch matrix and two
    padded activation buffers, each as large as the largest that the
    given nets' convs use on B HxW images (``Conv2D.buffer_sizes``).

    The convs write the two activation buffers in turn, so none writes
    the buffer it reads: a conv reads a fresh ``pad`` buffer or the last
    conv's output. Every output a forward returns is a copy, never a view
    of the workspace, so the next chunk may overwrite it.
    """

    def __init__(self, nets: list[Network], b: int, h: int, w: int):
        cols, act = map(max, zip(*(
            layer.buffer_sizes(b, h, w) for net in nets
            for layer in net.layers if isinstance(layer, Conv2D))))
        self.cols = np.empty(cols, dtype=np.float32)
        self.acts = [np.empty(act, dtype=np.float32) for _ in range(2)]

    def conv(self, layer: Conv2D, buf: np.ndarray, b: int, h: int,
             w: int) -> np.ndarray:
        """``layer.forward_padded`` into this workspace's buffers."""
        self.acts.reverse()
        return layer.forward_padded(buf, b, h, w, cols=self.cols,
                                    out=self.acts[0])


def _chain(layers: list, buf: np.ndarray, b: int, h: int, w: int,
           workspace: Workspace) -> np.ndarray:
    """Run conv and ReLU layers on padded buffers (see ``nn.Conv2D``): each
    conv writes the next one's padded input in the workspace, and each ReLU
    rectifies the whole buffer in place, its zero padding staying zero."""
    for layer in layers:
        buf = (workspace.conv(layer, buf, b, h, w) if isinstance(layer, Conv2D)
               else layer.forward(buf))
    return buf


def seg_forward(seg: Network, images: np.ndarray, *, probs: bool = True,
                features: bool = True, workspace: Workspace | None = None
                ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-pixel class probabilities and the pooled 16-dim feature embedding.

    An output not asked for comes back as None. Without ``probs`` only the
    trunk runs: the head, the dearest conv, and the softmax are skipped.
    The convs run in ``workspace``'s buffers, or in a new workspace sized
    for these images. Every output is bit-identical to that of a full
    ``seg.forward`` on the same images.
    """
    *trunk, head = seg.layers
    b, _, h, w = images.shape
    if workspace is None:
        workspace = Workspace([seg], b, h, w)
    p = head.kernel // 2  # the nets' convs share one kernel size
    buf = _chain(trunk, pad([images], p), b, h, w, workspace)
    pooled = unpad(buf, b, h, w, p).mean(axis=(2, 3)) if features else None
    if not probs:
        return None, pooled
    logits = workspace.conv(head, buf, b, h, w)
    return softmax(unpad(logits, b, h, w, p)), pooled


def ap_forward(ap: Network, images: np.ndarray, probs: np.ndarray, *,
               workspace: Workspace | None = None) -> np.ndarray:
    """Predicted per-foreground-class accuracy in [0, 1].

    ``probs`` is consumed as a constant: no gradient path back into the
    segmentation model exists. Bit-identical to ``ap.forward`` on the two
    concatenated along channels, which is never built: both are padded
    straight into the conv's input buffer. The conv runs in
    ``workspace``'s buffers, or in a new workspace sized for these images.
    """
    b, _, h, w = images.shape
    if workspace is None:
        workspace = Workspace([ap], b, h, w)
    trunk, tail = ap.layers[:2], ap.layers[2:]  # conv, ReLU | pool, dense, sigmoid
    p = trunk[0].kernel // 2
    x = unpad(_chain(trunk, pad([images, probs], p), b, h, w, workspace),
              b, h, w, p)
    for layer in tail:
        x = layer.forward(x)
    return x
