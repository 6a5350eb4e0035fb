"""Clustering invariants: nearest-centroid assignments, monotone inertia, determinism."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paal.kmeans import _lloyd, kmeans_fit, sq_dists


def fit_centroids(points, k, seed):
    """The centroids ``kmeans_fit(points, k, seed)`` assigns to."""
    return _lloyd(np.asarray(points, dtype=np.float64), k, seed)[0]


def brute_nearest(centroids, point):
    dists = [float(((c - point) ** 2).sum()) for c in centroids]
    best = min(dists)
    return dists.index(best)


def test_single_cluster_centroid_is_mean():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 4))
    np.testing.assert_allclose(fit_centroids(pts, 1, seed=1)[0], pts.mean(axis=0),
                               atol=1e-12)


def test_two_well_separated_blobs_split_cleanly():
    rng = np.random.default_rng(1)
    a = rng.normal(loc=0.0, size=(30, 2))
    b = rng.normal(loc=100.0, size=(30, 2))
    model = kmeans_fit(np.vstack([a, b]), 2, seed=2)
    first, second = model.assignments[:30], model.assignments[30:]
    assert len(set(first)) == 1 and len(set(second)) == 1
    assert first[0] != second[0]


def test_k_equals_n_gives_zero_inertia():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(12, 3))
    model = kmeans_fit(pts, 12, seed=3)
    assert model.inertia_history[-1] == pytest.approx(0.0, abs=1e-20)


@pytest.mark.parametrize("n,k,dim", [(80, 5, 6), (452, 14, 16), (30, 30, 2),
                                     (40, 3, 1)])
def test_own_distances_are_a_fresh_sq_dists_bit_for_bit(n, k, dim):
    rng = np.random.default_rng([13, n, k, dim])
    pts = rng.normal(size=(n, dim)).astype(np.float32)
    model = kmeans_fit(pts, k, seed=17)
    fresh = sq_dists(pts.astype(np.float64), fit_centroids(pts, k, seed=17))[
        np.arange(n), model.assignments]
    assert model.own_sq_dists.dtype == fresh.dtype
    assert model.own_sq_dists.tobytes() == fresh.tobytes()
    assert model.inertia_history[-1] == float(fresh.sum())


def test_invalid_k_rejected():
    pts = np.zeros((5, 2))
    with pytest.raises(ValueError):
        kmeans_fit(pts, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans_fit(pts, 6, seed=0)


def test_deterministic_bit_for_bit():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(80, 6))
    a = kmeans_fit(pts, 5, seed=11)
    b = kmeans_fit(pts, 5, seed=11)
    assert fit_centroids(pts, 5, seed=11).tobytes() == \
        fit_centroids(pts, 5, seed=11).tobytes()
    assert a.own_sq_dists.tobytes() == b.own_sq_dists.tobytes()
    np.testing.assert_array_equal(a.assignments, b.assignments)
    assert a.inertia_history == b.inertia_history


def test_a_fit_with_duplicate_points_keeps_its_recorded_bits():
    # three copies of each of 12 grid points plus 24 distinct ones; the
    # hashes were recorded before the distance code was shared
    rng = np.random.default_rng(5)
    pts = np.repeat(rng.integers(-2, 3, size=(12, 3)).astype(np.float64), 3, axis=0)
    pts = np.vstack([pts, rng.normal(size=(24, 3))])
    model = kmeans_fit(pts, 7, seed=13)
    assert hashlib.sha256(fit_centroids(pts, 7, seed=13).tobytes()).hexdigest() == (
        "d2f378aaf20228f85580f01a28b4f6fdd0a286c9d516071165156f763c196d43")
    assert hashlib.sha256(model.assignments.tobytes()).hexdigest() == (
        "806d415726d751374e4ec370a8ed302cee46edd378a2a8509561a09a08838ce6")


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8))
@settings(max_examples=50, deadline=None)
def test_invariants_on_random_problems(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 40))
    pts = rng.normal(size=(n, 3))
    model = kmeans_fit(pts, k, seed=seed)

    # inertia never increases across recorded Lloyd iterations
    hist = model.inertia_history
    assert all(a >= b - 1e-9 * max(1.0, abs(a)) for a, b in zip(hist, hist[1:]))

    # every assignment is exactly the nearest centroid
    centroids = fit_centroids(pts, k, seed=seed)
    for i, point in enumerate(pts):
        assert model.assignments[i] == brute_nearest(centroids, point)


def test_duplicate_points_still_fit():
    pts = np.zeros((10, 2))
    pts[5:] = 1.0
    model = kmeans_fit(pts, 2, seed=0)
    assert model.inertia_history[-1] == pytest.approx(0.0, abs=1e-20)
