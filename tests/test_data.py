"""Data-module tests: synthetic oracles, format fixtures, augmentation
properties."""

import re

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

    # the first grating at image_size / 2 cycles per image is class 40 at
    # 16x16 (8 cycles) and class 104 at 32x32 (16 cycles); past it a grating
    # aliases onto a lower one
    @pytest.mark.parametrize("size,limit", [(16, 40), (32, 104)])
    def test_class_count_stays_below_nyquist(self, size, limit):
        assert D.max_synthetic_classes(size) == limit
        spec = D.SyntheticSpec(num_classes=limit, image_size=size, samples_per_class=1)
        assert D.generate_synthetic(spec).num_classes == limit
        with pytest.raises(D.DataError, match=f"class {limit} would be a grating of "
                                              f"{size // 2}.0 cycles"):
            D.generate_synthetic(D.SyntheticSpec(num_classes=limit + 1, image_size=size,
                                                 samples_per_class=1))


    # noise is the pixel noise's standard deviation: a negative or NaN one
    # would silently give noise-free images
    @pytest.mark.parametrize("field,value", [
        ("noise", -0.5), ("noise", np.nan), ("noise", np.inf),
        ("num_classes", 0), ("samples_per_class", 0)])
    def test_invalid_spec_field_is_rejected(self, field, value):
        spec = D.SyntheticSpec(**{"num_classes": 2, "samples_per_class": 2, field: value})
        with pytest.raises(D.DataError, match=f"^SyntheticSpec.{field} must be "):
            D.generate_synthetic(spec)


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

    def test_one_path_object_is_one_file(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes([4]) + bytes(3072))
        ds = D.load_cifar_binary(path, "cifar10")
        assert ds.labels.tolist() == [4] and ds.images.shape == (1, 3, 32, 32)
        assert D.load_cifar_binary([path, path], "cifar10").labels.tolist() == [4, 4]

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
    def test_center_crop_identity(self):
        rng = np.random.default_rng(3)
        batch = rng.random((2, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(D.pad_crop(batch, 4, 4), batch)

    @pytest.mark.parametrize("offset_y,offset_x,message", [
        (-12, 4, "image 1 has y offset -12 outside [0, 8]"),
        (4, 9, "image 1 has x offset 9 outside [0, 8]"),
        (-1, 4, "image 1 has y offset -1 outside [0, 8]")])
    def test_offset_outside_the_padding_is_rejected(self, offset_y, offset_x, message):
        batch = np.ones((3, 2, 8, 8), dtype=np.float32)
        offsets_y, offsets_x = np.full(3, 4), np.full(3, 4)
        offsets_y[1], offsets_x[1] = offset_y, offset_x
        with pytest.raises(D.DataError, match=re.escape(message)):
            D.pad_crop(batch, offsets_y, offsets_x)

    @pytest.mark.parametrize("offsets_y,shape", [
        ([4, 4], (2,)), (np.full((3, 1), 4), (3, 1))])
    def test_offsets_of_the_wrong_shape_are_rejected(self, offsets_y, shape):
        batch = np.ones((3, 2, 8, 8), dtype=np.float32)
        message = f"pad_crop: y offsets of shape {shape} for images of shape (3, 2, 8, 8)"
        with pytest.raises(D.DataError, match=re.escape(message)):
            D.pad_crop(batch, offsets_y, 4)

    # a fractional offset would be truncated and a bool read as 0 or 1
    @pytest.mark.parametrize("offsets_y,offsets_x,axis,dtype", [
        (1.5, 2, "y", "float64"), (4, np.array([True, False, True]), "x", "bool")])
    def test_offsets_that_are_not_integers_are_rejected(self, offsets_y, offsets_x,
                                                         axis, dtype):
        batch = np.ones((3, 2, 8, 8), dtype=np.float32)
        message = f"pad_crop: {axis} offsets must be integers, got dtype {dtype}"
        with pytest.raises(D.DataError, match=re.escape(message)):
            D.pad_crop(batch, offsets_y, offsets_x)

    def test_extreme_offsets_crop_a_corner(self):
        batch = np.ones((2, 1, 8, 8), dtype=np.float32)
        out = D.pad_crop(batch, [0, 8], [0, 8])
        # offset 0 shows the top-left padding, offset 2 * pad the bottom-right
        assert out[0, 0, 4:, 4:].all() and not out[0, 0, :4].any()
        assert out[1, 0, :4, :4].all() and not out[1, 0, 4:].any()

    def test_seeded_determinism_and_range(self):
        rng_a = np.random.default_rng(4)
        rng_b = np.random.default_rng(4)
        batch = np.random.default_rng(5).random((4, 3, 16, 16)).astype(np.float32)
        out_a = D.augment_batch(batch, rng_a)
        out_b = D.augment_batch(batch, rng_b)
        assert np.array_equal(out_a, out_b)
        assert out_a.shape == batch.shape
        assert out_a.min() >= 0.0 and out_a.max() <= 1.0

    def test_flips_then_crops_in_draw_order(self):
        batch = np.random.default_rng(6).random((8, 3, 8, 8)).astype(np.float32)
        rng = np.random.default_rng(7)
        flip = rng.random(len(batch)) < 0.5
        offsets = rng.integers(0, 9, size=(len(batch), 2))
        flipped = np.where(flip[:, None, None, None], batch[..., ::-1], batch)
        want = D.pad_crop(flipped, offsets[:, 0], offsets[:, 1])
        assert np.array_equal(D.augment_batch(batch, np.random.default_rng(7)), want)


class TestNormalization:
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(6)
        images = rng.random((10, 3, 8, 8)).astype(np.float32)
        mean, std = D.channel_stats(images)
        back = D.denormalize_images(D.normalize_images(images, mean, std),
                                    mean, std)
        assert np.allclose(back, images, atol=1e-6)


    def test_bit_equal_to_subtract_then_divide(self):
        images = np.random.default_rng(7).random((6, 3, 5, 5)).astype(np.float32)
        before = images.copy()
        mean, std = D.channel_stats(images)
        out = D.normalize_images(images, mean, std)
        want = (images - mean[None, :, None, None]) / std[None, :, None, None]
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
        assert np.array_equal(images, before)


@pytest.mark.parametrize("name,call", [
    ("pad_crop", lambda images: D.pad_crop(images, D.CROP_PAD, D.CROP_PAD)),
    ("augment_batch", lambda images: D.augment_batch(images, np.random.default_rng(0))),
    ("channel_stats", D.channel_stats),
    ("normalize_images", lambda images: D.normalize_images(
        images, np.zeros(3, np.float32), np.ones(3, np.float32))),
    ("denormalize_images", lambda images: D.denormalize_images(
        images, np.zeros(3, np.float32), np.ones(3, np.float32))),
])
@pytest.mark.parametrize("shape", [(3, 8, 8), (2, 3, 8, 8, 1)])
def test_a_batch_that_is_not_nchw_is_rejected(name, call, shape):
    with pytest.raises(D.DataError, match=re.escape(
            f"{name}: expected a batch of images [N, C, H, W], got shape {shape}")):
        call(np.zeros(shape, np.float32))


@pytest.mark.parametrize("name", ["normalize_images", "denormalize_images"])
@pytest.mark.parametrize("arg", ["mean", "std"])
def test_channel_stats_need_one_entry_per_channel(name, arg):
    stats = {"mean": np.zeros(3), "std": np.ones(3), arg: np.ones(4)}
    with pytest.raises(D.DataError, match=re.escape(
            f"{name}: {arg} of shape (4,) does not have one entry per channel "
            f"of images of shape (2, 3, 8, 8)")):
        getattr(D, name)(np.zeros((2, 3, 8, 8)), stats["mean"], stats["std"])


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
