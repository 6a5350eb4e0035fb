"""Seeded k-means with k-means++ initialization.

Built by hand rather than borrowed so the contracts the query pipeline
relies on are exact: bit-for-bit determinism under a fixed seed, lowest-index
tie-breaking, and re-seeding of emptied clusters from the point farthest from
its assigned centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ClusterModel:
    centroids: np.ndarray    # (k, dim)
    assignments: np.ndarray  # (n,) int, nearest centroid per point
    inertia: float
    inertia_history: tuple[float, ...] = ()


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Exact (n, k) squared Euclidean distances, chunked to bound memory.

    Computed as elementwise difference-square-sums so ties resolve the same
    way a naive per-pair scan would.
    """
    n = points.shape[0]
    k = centroids.shape[0]
    out = np.empty((n, k), dtype=np.float64)
    step = max(1, 2_000_000 // max(1, k * points.shape[1]))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        diff = points[lo:hi, None, :] - centroids[None, :, :]
        out[lo:hi] = np.einsum("nkd,nkd->nk", diff, diff)
    return out


def kmeans_fit(points: np.ndarray, k: int, seed: int, max_iter: int = 100,
               tol: float = 1e-6) -> ClusterModel:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be (n, dim)")
    n = pts.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k ({k}) exceeds number of points ({n})")
    rng = np.random.default_rng(seed)

    centroids = _plus_plus_init(pts, k, rng)
    history = []
    for _ in range(max_iter):
        d2 = _sq_dists(pts, centroids)
        assign = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), assign].sum()))
        new_centroids = centroids.copy()
        counts = np.bincount(assign, minlength=k)
        for c in range(k):
            if counts[c] > 0:
                new_centroids[c] = pts[assign == c].mean(axis=0)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # hand each empty cluster the point currently worst served
            dist_own = d2[np.arange(n), assign].copy()
            for c in empties:
                far = int(dist_own.argmax())
                new_centroids[c] = pts[far]
                dist_own[far] = -1.0
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < tol:
            break
    d2 = _sq_dists(pts, centroids)
    assign = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), assign].sum())
    history.append(inertia)
    return ClusterModel(centroids, assign.astype(np.int64), inertia,
                        tuple(history))


def _plus_plus_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centroids = np.empty((k, pts.shape[1]), dtype=np.float64)
    centroids[0] = pts[rng.integers(n)]
    if k == 1:
        return centroids
    diff = pts - centroids[0]
    d2 = np.einsum("nd,nd->n", diff, diff)
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            cum = np.cumsum(d2 / total)
            pick = int(np.searchsorted(cum, rng.random(), side="right"))
            pick = min(pick, n - 1)
        else:
            pick = int(rng.integers(n))  # all remaining mass at chosen points
        centroids[i] = pts[pick]
        diff = pts - centroids[i]
        d2 = np.minimum(d2, np.einsum("nd,nd->n", diff, diff))
    return centroids

