"""Synthetic segmentation data: seeded generation, binary on-disk format, folds.

Images are u8 grayscale with a noisy dark background; each foreground class
appears (with its configured occurrence probability) as one filled ellipse in
a class-specific intensity band. Ellipses avoid already-placed foreground so
each class region stays a single connected blob; if no free placement is
found after many attempts the first overlapping candidate is placed anyway
and overwrites earlier classes where they overlap, and if every draw
degenerates (too thin after clamping to the frame) the class is skipped.

File format ``PAALDS2``: a 24-byte header (magic ``b"PAALDS2\\0"``, then
little-endian u32 ``n``, ``h``, ``w``, ``num_fg``) and ``n`` records, each a
u8 ``h x w`` image followed by its u8 mask (labels 0 .. ``num_fg``), row-major.
The older ``PAALDS1`` files, which lack ``num_fg``, are rejected.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

DATASET_MAGIC = b"PAALDS2\x00"
_HEADER = struct.Struct("<8sIIII")  # magic, n, h, w, num_fg

NUM_FOLDS = 5

BACKGROUND_BASE = 40.0
NOISE_SIGMA = 10.0
_PLACEMENT_ATTEMPTS = 100


class DatasetFormatError(ValueError):
    """Malformed dataset file."""


@dataclass(frozen=True)
class ClassSpec:
    """One foreground class: how often it appears, how big, how bright."""
    occurrence: float
    axis_range: tuple[float, float] = (3.0, 8.0)
    intensity_range: tuple[float, float] = (105.0, 135.0)


def default_profile() -> tuple[ClassSpec, ...]:
    """Three classes with a pronounced minority (class 3 in ~15% of images)."""
    return (ClassSpec(0.9, (3.0, 8.0), (105.0, 135.0)),
            ClassSpec(0.6, (3.0, 8.0), (165.0, 195.0)),
            ClassSpec(0.15, (3.0, 8.0), (205.0, 235.0)))


@dataclass(eq=False)
class Dataset:
    images: np.ndarray  # (n, h, w) u8
    masks: np.ndarray   # (n, h, w) u8
    num_fg: int

    def __len__(self):
        return len(self.images)


def generate(seed: int, n: int, h: int = 32, w: int = 32,
             profile: tuple[ClassSpec, ...] | None = None) -> Dataset:
    """Deterministic synthetic dataset; identical seeds give identical bytes."""
    if profile is None:
        profile = default_profile()
    rng = np.random.default_rng(seed)
    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)[None, :]
    images = np.empty((n, h, w), dtype=np.uint8)
    masks = np.zeros((n, h, w), dtype=np.uint8)
    for i in range(n):
        noise = rng.normal(0.0, NOISE_SIGMA, size=(h, w))
        img = BACKGROUND_BASE + noise
        mask = masks[i]
        for label, cls in enumerate(profile, start=1):
            if rng.random() >= cls.occurrence:
                continue
            ell = _place_ellipse(rng, mask, yy, xx, h, w, cls.axis_range)
            if ell is None:
                continue
            intensity = rng.uniform(*cls.intensity_range)
            img[ell] = intensity + noise[ell]
            mask[ell] = label
        images[i] = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return Dataset(images, masks, num_fg=len(profile))


def _place_ellipse(rng, mask, yy, xx, h, w, axis_range):
    """Draw a filled ellipse fully inside the frame, preferring empty ground."""
    fallback = None
    for _ in range(_PLACEMENT_ATTEMPTS):
        ay = rng.uniform(*axis_range)
        ax = rng.uniform(*axis_range)
        cy = rng.uniform(0, h - 1)
        cx = rng.uniform(0, w - 1)
        ay = min(ay, cy, h - 1 - cy)
        ax = min(ax, cx, w - 1 - cx)
        if ay < 1.0 or ax < 1.0:
            continue  # degenerate after clamping; redraw
        ell = ((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2 <= 1.0
        if not mask[ell].any():
            return ell
        if fallback is None:
            fallback = ell
    return fallback


def write_dataset(path, ds: Dataset) -> None:
    n, h, w = ds.images.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(DATASET_MAGIC, n, h, w, ds.num_fg))
        fh.write(np.stack((ds.images, ds.masks), axis=1).tobytes())


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != DATASET_MAGIC:
        raise DatasetFormatError(
            f"bad magic {data[:8]!r}, expected {DATASET_MAGIC!r} (older format "
            "or not a dataset file); regenerate it with `paal generate`")
    if len(data) < _HEADER.size:
        raise DatasetFormatError("truncated file: missing header")
    _, n, h, w, num_fg = _HEADER.unpack_from(data)
    expected = _HEADER.size + n * 2 * h * w
    if n and h * w == 0:
        raise DatasetFormatError("extent overflow: zero-sized records")
    if len(data) < expected:
        raise DatasetFormatError("truncated file")
    if len(data) > expected:
        raise DatasetFormatError("trailing bytes after records")
    if not 1 <= num_fg <= 255:
        raise DatasetFormatError(f"num_fg must be in 1..255 (u8 masks), got {num_fg}")
    records = np.frombuffer(data, np.uint8, offset=_HEADER.size).reshape(n, 2, h, w)
    images, masks = records[:, 0], records[:, 1]
    if n and masks.max() > num_fg:
        raise DatasetFormatError(
            f"mask label {masks.max()} above num_fg = {num_fg}")
    return Dataset(images, masks, num_fg=num_fg)


def split_folds(n: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (train, val) pair per fold; the ``NUM_FOLDS`` validation chunks
    are disjoint and together cover every id (20% each)."""
    if n < NUM_FOLDS:
        raise ValueError(f"need at least {NUM_FOLDS} samples, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    chunks = np.array_split(perm, NUM_FOLDS)
    folds = []
    for k in range(NUM_FOLDS):
        val = np.sort(chunks[k])
        train = np.sort(np.concatenate([chunks[j] for j in range(NUM_FOLDS) if j != k]))
        folds.append((train.astype(np.int64), val.astype(np.int64)))
    return folds
