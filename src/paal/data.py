"""Synthetic segmentation data: seeded generation, binary on-disk format, folds.

Images are u8 grayscale with a noisy dark background; each foreground class
appears (with its configured occurrence probability) as one filled ellipse in
a class-specific intensity band. Ellipses avoid already-placed foreground so
each class region stays a single connected blob; if no free placement is
found after many attempts the last candidate is placed anyway and overwrites
earlier classes where they overlap.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

DATASET_MAGIC = b"PAALDS1\x00"

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

    def __post_init__(self):
        if not 0.0 < self.occurrence <= 1.0:
            raise ValueError(f"occurrence must be in (0, 1], got {self.occurrence}")


@dataclass(frozen=True)
class ClassProfile:
    classes: tuple[ClassSpec, ...]

    @property
    def num_fg(self) -> int:
        return len(self.classes)


def default_profile() -> ClassProfile:
    """Three classes with a pronounced minority (class 3 in ~15% of images)."""
    return ClassProfile((
        ClassSpec(0.9, (3.0, 8.0), (105.0, 135.0)),
        ClassSpec(0.6, (3.0, 8.0), (165.0, 195.0)),
        ClassSpec(0.15, (3.0, 8.0), (205.0, 235.0)),
    ))


@dataclass
class Dataset:
    images: np.ndarray  # (n, h, w) u8
    masks: np.ndarray   # (n, h, w) u8
    num_fg: int = 3

    def __post_init__(self):
        if self.images.shape != self.masks.shape:
            raise ValueError("images and masks must have identical shapes")

    def __len__(self):
        return len(self.images)

    def __eq__(self, other):
        return (isinstance(other, Dataset)
                and self.images.shape == other.images.shape
                and np.array_equal(self.images, other.images)
                and np.array_equal(self.masks, other.masks))


def generate(seed: int, n: int, h: int = 32, w: int = 32,
             profile: ClassProfile | None = None) -> Dataset:
    """Deterministic synthetic dataset; identical seeds give identical bytes."""
    if n < 0:
        raise ValueError("n must be >= 0")
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
        for label, cls in enumerate(profile.classes, start=1):
            if rng.random() >= cls.occurrence:
                continue
            ell = _place_ellipse(rng, mask, yy, xx, h, w, cls.axis_range)
            if ell is None:
                continue
            intensity = rng.uniform(*cls.intensity_range)
            img[ell] = intensity + noise[ell]
            mask[ell] = label
        images[i] = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return Dataset(images, masks, num_fg=profile.num_fg)


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
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<III", n, h, w))
        for i in range(n):
            fh.write(ds.images[i].tobytes())
            fh.write(ds.masks[i].tobytes())


def read_dataset(path, num_fg: int = 3) -> Dataset:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 20:
        raise DatasetFormatError("truncated file: missing header")
    if data[:8] != DATASET_MAGIC:
        raise DatasetFormatError("bad magic")
    n, h, w = struct.unpack_from("<III", data, 8)
    record = 2 * h * w
    expected = 20 + n * record
    if n and record == 0:
        raise DatasetFormatError("extent overflow: zero-sized records")
    if len(data) < expected:
        raise DatasetFormatError("truncated file")
    if len(data) > expected:
        raise DatasetFormatError("trailing bytes after records")
    images = np.empty((n, h, w), dtype=np.uint8)
    masks = np.empty((n, h, w), dtype=np.uint8)
    off = 20
    for i in range(n):
        images[i] = np.frombuffer(data, np.uint8, h * w, off).reshape(h, w)
        off += h * w
        masks[i] = np.frombuffer(data, np.uint8, h * w, off).reshape(h, w)
        off += h * w
    return Dataset(images, masks, num_fg=num_fg)


def split_folds(n: int, seed: int, num_folds: int = 5
                ) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (train, val) pair per fold; the validation chunks are disjoint and
    together cover every id (20% each at the default five folds)."""
    if n < num_folds:
        raise ValueError(f"need at least {num_folds} samples, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    chunks = np.array_split(perm, num_folds)
    folds = []
    for k in range(num_folds):
        val = np.sort(chunks[k])
        train = np.sort(np.concatenate([chunks[j] for j in range(num_folds) if j != k]))
        folds.append((train.astype(np.int64), val.astype(np.int64)))
    return folds
