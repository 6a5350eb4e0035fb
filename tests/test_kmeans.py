"""Clustering invariants: nearest-centroid assignments, monotone inertia, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paal.kmeans import kmeans_fit


def brute_nearest(centroids, point):
    dists = [float(((c - point) ** 2).sum()) for c in centroids]
    best = min(dists)
    return dists.index(best)


def test_single_cluster_centroid_is_mean():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 4))
    model = kmeans_fit(pts, 1, seed=1)
    np.testing.assert_allclose(model.centroids[0], pts.mean(axis=0), atol=1e-12)


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
    assert model.inertia == pytest.approx(0.0, abs=1e-20)


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
    assert a.centroids.tobytes() == b.centroids.tobytes()
    np.testing.assert_array_equal(a.assignments, b.assignments)
    assert a.inertia == b.inertia


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
    for i, point in enumerate(pts):
        assert model.assignments[i] == brute_nearest(model.centroids, point)


def test_duplicate_points_still_fit():
    pts = np.zeros((10, 2))
    pts[5:] = 1.0
    model = kmeans_fit(pts, 2, seed=0)
    assert model.inertia == pytest.approx(0.0, abs=1e-20)
