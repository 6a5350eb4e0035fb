"""Synthetic generation determinism, the binary format, and fold splitting."""

import numpy as np
import pytest

from paal.data import (ClassProfile, ClassSpec, DatasetFormatError, Dataset,
                       default_profile, generate, read_dataset, split_folds,
                       write_dataset)


def connected_components(mask: np.ndarray) -> int:
    """8-connectivity component count via flood fill (independent oracle)."""
    todo = {tuple(ix) for ix in np.argwhere(mask)}
    comps = 0
    while todo:
        comps += 1
        stack = [todo.pop()]
        while stack:
            i, j = stack.pop()
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    nb = (i + di, j + dj)
                    if nb in todo:
                        todo.remove(nb)
                        stack.append(nb)
    return comps


def test_same_seed_is_byte_identical():
    a = generate(123, 40)
    b = generate(123, 40)
    assert a.images.tobytes() == b.images.tobytes()
    assert a.masks.tobytes() == b.masks.tobytes()


def test_different_seeds_differ():
    assert generate(1, 10) != generate(2, 10)


def test_certain_occurrence_places_every_mask():
    profile = ClassProfile((ClassSpec(1.0),))
    ds = generate(5, 200, profile=profile)
    assert all((m == 1).any() for m in ds.masks)


def test_empirical_occurrence_tracks_profile():
    ds = generate(11, 10000)
    rates = [float(np.mean([(m == c).any() for m in ds.masks]))
             for c in (1, 2, 3)]
    for rate, target in zip(rates, (0.9, 0.6, 0.15)):
        assert abs(rate - target) < 0.02


def test_minority_class_is_rare_but_present():
    ds = generate(3, 2000)
    rate = float(np.mean([(m == 3).any() for m in ds.masks]))
    assert 0.10 < rate < 0.20


def test_each_class_region_is_single_connected_blob():
    ds = generate(17, 300)
    for mask in ds.masks:
        for c in (1, 2, 3):
            assert connected_components(mask == c) <= 1


def test_foreground_intensity_bands_are_distinct():
    ds = generate(29, 500)
    means = {}
    for c in (1, 2, 3):
        sel = ds.masks == c
        if sel.any():
            means[c] = ds.images[sel].astype(float).mean()
    assert means[1] < means[2] < means[3]
    assert means[1] > 80  # well above the dark background


class TestDatasetFile:
    def test_round_trip_is_exact(self, tmp_path):
        ds = generate(7, 25)
        path = tmp_path / "ds.bin"
        write_dataset(path, ds)
        assert read_dataset(path) == ds

    def test_empty_dataset_is_header_only(self, tmp_path):
        ds = generate(7, 0)
        path = tmp_path / "empty.bin"
        write_dataset(path, ds)
        assert path.stat().st_size == 20
        assert len(read_dataset(path)) == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 12)
        with pytest.raises(DatasetFormatError, match="bad magic"):
            read_dataset(path)

    def test_truncated_file_rejected(self, tmp_path):
        ds = generate(7, 4)
        path = tmp_path / "trunc.bin"
        write_dataset(path, ds)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DatasetFormatError, match="truncated"):
            read_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        ds = generate(7, 4)
        path = tmp_path / "extra.bin"
        write_dataset(path, ds)
        path.write_bytes(path.read_bytes() + b"\x01")
        with pytest.raises(DatasetFormatError, match="trailing"):
            read_dataset(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"PAALDS1\x00\x01")
        with pytest.raises(DatasetFormatError, match="truncated"):
            read_dataset(path)


class TestFolds:
    def test_val_sizes_are_twenty_percent(self):
        split = split_folds(10, seed=0)
        assert all(len(val) == 2 for _, val in split)

    def test_val_folds_partition_all_ids(self):
        split = split_folds(103, seed=5)
        union = np.sort(np.concatenate([val for _, val in split]))
        np.testing.assert_array_equal(union, np.arange(103))

    def test_train_val_disjoint_and_complete(self):
        split = split_folds(50, seed=9)
        for train, val in split:
            assert np.intersect1d(train, val).size == 0
            np.testing.assert_array_equal(np.sort(np.concatenate([train, val])),
                                          np.arange(50))

    def test_same_seed_same_split(self):
        a = split_folds(40, seed=3)
        b = split_folds(40, seed=3)
        for (ta, va), (tb, vb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(va, vb)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            split_folds(4, seed=0)


def test_profile_validation():
    with pytest.raises(ValueError, match="occurrence"):
        ClassSpec(0.0)
    assert default_profile().num_fg == 3
