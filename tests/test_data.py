"""Data-module tests: synthetic oracles, format fixtures, augmentation
properties."""

import re
import struct

import numpy as np
import pytest

from hebblab import data as D


class TestSynthetic:
    def test_same_seed_bit_identical(self):
        spec = D.SyntheticSpec(num_classes=4, samples_per_class=10, seed=5)
        a, b = D.generate_synthetic(spec), D.generate_synthetic(spec)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_exactly_balanced(self):
        ds = D.generate_synthetic(D.SyntheticSpec(num_classes=3,
                                                  samples_per_class=7, seed=1))
        assert np.array_equal(np.bincount(ds.labels), [7, 7, 7])

    def test_values_in_unit_range(self):
        ds = D.generate_synthetic(D.SyntheticSpec(samples_per_class=5, seed=2))
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_nearest_centroid_oracle_noise_zero(self):
        # two maximally distinct classes (grating vs blob) at zero noise:
        # a 1-nearest-centroid pixel classifier must be perfect
        spec = D.SyntheticSpec(num_classes=2, samples_per_class=50, noise=0.0,
                               seed=3)
        train = D.generate_synthetic(spec)
        test = D.generate_synthetic(D.SyntheticSpec(num_classes=2,
                                                    samples_per_class=30,
                                                    noise=0.0, seed=4))
        centroids = np.stack([train.images[train.labels == c].mean(axis=0)
                              for c in range(2)])
        flat = test.images.reshape(len(test), -1)
        cflat = centroids.reshape(2, -1)
        d2 = ((flat[:, None, :] - cflat[None, :, :]) ** 2).sum(axis=2)
        predicted = d2.argmin(axis=1)
        assert np.array_equal(predicted, test.labels)


def write_idx_images(path, arrays):
    arrays = np.asarray(arrays, dtype=np.uint8)
    n, h, w = arrays.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, h, w))
        fh.write(arrays.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, labels.size))
        fh.write(labels.tobytes())


class TestIdx:
    def test_handcrafted_pair(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(2, 28, 28))
        write_idx_images(tmp_path / "img", imgs)
        write_idx_labels(tmp_path / "lbl", [1, 0])
        ds = D.load_idx(str(tmp_path / "img"), str(tmp_path / "lbl"),
                        num_classes=10)
        assert ds.images.shape == (2, 1, 28, 28)
        assert np.allclose(ds.images[:, 0] * 255.0, imgs)
        assert np.array_equal(ds.labels, [1, 0])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 0x12340803, 1, 2, 2) + b"\0" * 4)
        with pytest.raises(D.DataError, match="magic"):
            D.load_idx(str(path), str(path), num_classes=10)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 28, 28) + b"\0" * 100)
        with pytest.raises(D.DataError, match="byte"):
            D.load_idx(str(path), str(path), num_classes=10)

    def test_record_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "img", np.zeros((2, 4, 4)))
        write_idx_labels(tmp_path / "lbl", [1, 0, 1])
        with pytest.raises(D.DataError, match="record-count mismatch"):
            D.load_idx(str(tmp_path / "img"), str(tmp_path / "lbl"),
                       num_classes=10)

    @pytest.mark.parametrize("labels", [[0, 2], [3, 3]])
    def test_class_count_from_caller_not_labels(self, tmp_path, labels):
        # a split may skip classes (even the top one); the head size must
        # still be the configured class count
        write_idx_images(tmp_path / "img", np.zeros((2, 4, 4)))
        write_idx_labels(tmp_path / "lbl", labels)
        ds = D.load_idx(str(tmp_path / "img"), str(tmp_path / "lbl"),
                        num_classes=5)
        assert ds.num_classes == 5
        assert ds.labels.tolist() == labels

    def test_label_out_of_range(self, tmp_path):
        write_idx_images(tmp_path / "img", np.zeros((3, 4, 4)))
        write_idx_labels(tmp_path / "lbl", [1, 4, 5])
        message = re.escape(f"{tmp_path / 'lbl'}: record 1 has label 4 outside [0, 4)")
        with pytest.raises(D.DataError, match=message):
            D.load_idx(str(tmp_path / "img"), str(tmp_path / "lbl"),
                       num_classes=4)


class TestCifar:
    def test_handcrafted_cifar10_record(self, tmp_path):
        pixels = np.arange(3072, dtype=np.uint8)
        record = bytes([7]) + pixels.tobytes()
        path = tmp_path / "batch.bin"
        path.write_bytes(record)
        ds = D.load_cifar_binary(str(path), "cifar10")
        assert ds.labels.tolist() == [7]
        assert ds.images.shape == (1, 3, 32, 32)
        expected = pixels.reshape(3, 32, 32).astype(np.float32) / 255.0
        assert np.array_equal(ds.images[0], expected)

    def test_handcrafted_cifar100_record_uses_fine_label(self, tmp_path):
        record = bytes([3, 42]) + bytes(3072)
        path = tmp_path / "train.bin"
        path.write_bytes(record * 2)
        ds = D.load_cifar_binary(str(path), "cifar100")
        assert ds.labels.tolist() == [42, 42]

    @pytest.mark.parametrize("paths", [[], ()])
    def test_no_files(self, paths):
        with pytest.raises(D.DataError, match="^no CIFAR record files given$"):
            D.load_cifar_binary(paths, "cifar10")

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "trunc.bin"
        path.write_bytes(bytes(3073 + 10))
        with pytest.raises(D.DataError, match="3073-byte record"):
            D.load_cifar_binary(str(path), "cifar10")

    def test_label_out_of_range(self, tmp_path):
        good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
        good.write_bytes(bytes([3]) + bytes(3072))
        bad.write_bytes(b"".join(bytes([label]) + bytes(3072) for label in (2, 10, 11)))
        # the first bad record is named, counted within its file
        message = re.escape(f"{bad}: record 1 has label 10 outside [0, 10)")
        with pytest.raises(D.DataError, match=message):
            D.load_cifar_binary([str(good), str(bad)], "cifar10")

    def test_loader_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        blob = rng.integers(0, 256, size=3073 * 3, dtype=np.uint8)
        blob.reshape(-1, 3073)[:, 0] %= 10
        path = tmp_path / "b.bin"
        path.write_bytes(blob.tobytes())
        a = D.load_cifar_binary(str(path), "cifar10")
        b = D.load_cifar_binary(str(path), "cifar10")
        assert np.array_equal(a.images, b.images)


class TestAugment:
    def test_double_flip_identity(self):
        rng = np.random.default_rng(2)
        batch = rng.random((3, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(D.flip_horizontal(D.flip_horizontal(batch)), batch)

    def test_center_crop_identity(self):
        rng = np.random.default_rng(3)
        batch = rng.random((2, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(D.pad_crop(batch, 4, 4, pad=4), batch)

    def test_seeded_determinism_and_range(self):
        rng_a = np.random.default_rng(4)
        rng_b = np.random.default_rng(4)
        batch = np.random.default_rng(5).random((4, 3, 16, 16)).astype(np.float32)
        out_a = D.augment_batch(batch, rng_a)
        out_b = D.augment_batch(batch, rng_b)
        assert np.array_equal(out_a, out_b)
        assert out_a.shape == batch.shape
        assert out_a.min() >= 0.0 and out_a.max() <= 1.0


class TestNormalization:
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(6)
        images = rng.random((10, 3, 8, 8)).astype(np.float32)
        mean, std = D.channel_stats(images)
        back = D.denormalize_images(D.normalize_images(images, mean, std),
                                    mean, std)
        assert np.allclose(back, images, atol=1e-6)


class TestStratifiedSplit:
    def test_exact_proportions(self):
        ds = D.generate_synthetic(D.SyntheticSpec(num_classes=2,
                                                  samples_per_class=100, seed=7))
        train, val = D.stratified_split(ds, 0.8, seed=0)
        for c in range(2):
            assert (train.labels == c).sum() == 80
            assert (val.labels == c).sum() == 20

    def test_union_and_disjointness(self):
        ds = D.generate_synthetic(D.SyntheticSpec(num_classes=3,
                                                  samples_per_class=20, seed=8))
        train, val = D.stratified_split(ds, 0.75, seed=1)
        combined = np.concatenate([train.images, val.images]).reshape(len(ds), -1)
        original = ds.images.reshape(len(ds), -1)
        # equality as multisets via lexicographic row sort
        lexsort_rows = lambda a: a[np.lexsort(a.T[::-1])]  # noqa: E731
        assert np.array_equal(lexsort_rows(combined), lexsort_rows(original))
        assert len(train) + len(val) == len(ds)

    def test_deterministic_under_seed(self):
        ds = D.generate_synthetic(D.SyntheticSpec(num_classes=2,
                                                  samples_per_class=10, seed=9))
        a_train, _ = D.stratified_split(ds, 0.8, seed=2)
        b_train, _ = D.stratified_split(ds, 0.8, seed=2)
        assert np.array_equal(a_train.images, b_train.images)

    def test_pairable_check(self):
        for labels in ([0, 0, 1], [0, 0, 0]):  # a singleton, an empty class
            ds = D.Dataset(images=np.zeros((3, 1, 2, 2), dtype=np.float32),
                           labels=np.array(labels), num_classes=2)
            with pytest.raises(D.DataError, match="fewer than 2"):
                D.check_pairable(ds)
