"""Seeded k-means with k-means++ initialization.

Built by hand rather than borrowed so the contracts the query pipeline
relies on are exact: bit-for-bit determinism under a fixed seed, lowest-index
tie-breaking, and re-seeding of emptied clusters from the point farthest from
its assigned centroid. :func:`sq_dists` is the package's one squared-distance
kernel, for clustering and for the selection strategies alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_ITER, _TOL = 100, 1e-6  # Lloyd step cap; converged below this shift


@dataclass
class ClusterModel:
    assignments: np.ndarray   # (n,) int, nearest centroid per point
    own_sq_dists: np.ndarray  # (n,) squared distance to that centroid
    inertia_history: tuple[float, ...] = ()  # the last entry is the fit's


def sq_dists(points: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Exact (n, m) squared Euclidean distances, chunked to bound memory.

    Computed as elementwise difference-square-sums so ties resolve the same
    way a naive per-pair scan would.
    """
    n = points.shape[0]
    m = refs.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    step = max(1, 2_000_000 // max(1, m * points.shape[1]))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        diff = points[lo:hi, None, :] - refs[None, :, :]
        out[lo:hi] = np.einsum("nkd,nkd->nk", diff, diff)
    return out


def kmeans_fit(points: np.ndarray, k: int, seed: int) -> ClusterModel:
    """Assign each point to the nearest of the fit's ``k`` centroids."""
    pts = np.asarray(points, dtype=np.float64)
    centroids, history = _lloyd(pts, k, seed)
    d2 = sq_dists(pts, centroids)
    assign = d2.argmin(axis=1)
    own = d2[np.arange(len(pts)), assign]
    return ClusterModel(assign.astype(np.int64), own,
                        (*history, float(own.sum())))


def _lloyd(pts: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, list[float]]:
    """The fit's (k, dim) centroids, and the inertia before each Lloyd step."""
    n = pts.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k ({k}) exceeds number of points ({n})")
    rng = np.random.default_rng(seed)

    centroids = _plus_plus_init(pts, k, rng)
    history = []
    for _ in range(_MAX_ITER):
        d2 = sq_dists(pts, centroids)
        assign = d2.argmin(axis=1)
        own = d2[np.arange(n), assign]
        history.append(float(own.sum()))
        new_centroids = centroids.copy()
        counts = np.bincount(assign, minlength=k)
        for c in range(k):
            if counts[c] > 0:
                new_centroids[c] = pts[assign == c].mean(axis=0)
        empties = np.flatnonzero(counts == 0)
        if empties.size:  # in index order, each takes the point worst served
            new_centroids[empties] = pts[np.argsort(-own, kind="stable")[:empties.size]]
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < _TOL:
            break
    return centroids, history


def _plus_plus_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centroids = np.empty((k, pts.shape[1]), dtype=np.float64)
    centroids[0] = pts[rng.integers(n)]
    d2 = sq_dists(pts, centroids[:1])[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            cum = np.cumsum(d2 / total)
            pick = int(np.searchsorted(cum, rng.random(), side="right"))
            pick = min(pick, n - 1)
        else:
            pick = int(rng.integers(n))  # all remaining mass at chosen points
        centroids[i] = pts[pick]
        d2 = np.minimum(d2, sq_dists(pts, centroids[i:i + 1])[:, 0])
    return centroids

