"""Dataset provision: parametric synthetic image classes, the CIFAR-binary
loader, augmentation, per-channel normalization, splits."""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace

import numpy as np


class DataError(ValueError):
    """Raised for malformed dataset files or invalid dataset state."""


@dataclass
class Dataset:
    images: np.ndarray            # [M, C, H, W] float32 in [0, 1]
    labels: np.ndarray            # [M] int64
    num_classes: int

    def __len__(self) -> int:
        return int(self.images.shape[0])


def _check_labels(labels: np.ndarray, num_classes: int, where: str) -> None:
    """Reject the first label outside ``[0, num_classes)``, naming the file
    ``where`` it came from and its record index."""
    bad = np.flatnonzero((labels < 0) | (labels >= num_classes))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{where}: record {i} has label {labels[i]} "
                        f"outside [0, {num_classes})")


def _check_batch(images: np.ndarray, where: str) -> None:
    """Reject ``images`` unless it is a batch of images, [N, C, H, W]."""
    if np.ndim(images) != 4:
        raise DataError(f"{where}: expected a batch of images [N, C, H, W], "
                        f"got shape {np.shape(images)}")


@dataclass
class SyntheticSpec:
    """Parametric class generators: oriented gratings and Gaussian blobs.

    Even class ids are gratings (angle and frequency stepped per class),
    odd ids are blobs (position and scale stepped per class), so distinct
    classes have distinct generator parameters up to
    ``max_synthetic_classes(image_size)``, past which a grating would alias
    at the Nyquist limit ``image_size / 2``.  ``noise`` is the additive
    pixel-noise standard deviation; per-image phase/position jitter is
    always on, giving intra-class variability even at noise 0.
    """

    num_classes: int = 4
    image_size: int = 16
    channels: int = 3
    samples_per_class: int = 625
    noise: float = 0.25
    seed: int = 0


_BLOB_CENTERS = ((0.30, 0.30), (0.70, 0.70), (0.30, 0.70), (0.70, 0.30))
_PATTERN_AMPLITUDE = 0.35


def _grating_frequency(kind_index: int) -> float:
    return 3.0 + (kind_index // 4)  # cycles per image


def max_synthetic_classes(image_size: int) -> int:
    """The largest class count whose gratings all stay below ``image_size
    / 2`` cycles per image: 40 at 16x16, 104 at 32x32."""
    return next(n for n in itertools.count() if _grating_frequency(n // 2) >= image_size / 2)


def _class_pattern(kind_index: int, is_blob: bool, u: np.ndarray, v: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """One image's pattern on the pixel grid ``u`` (rows), ``v`` (columns)."""
    if is_blob:
        cy, cx = _BLOB_CENTERS[kind_index % len(_BLOB_CENTERS)]
        sigma = 0.11 + 0.05 * (kind_index // len(_BLOB_CENTERS))
        cy += rng.uniform(-0.06, 0.06)
        cx += rng.uniform(-0.06, 0.06)
        g = np.exp(-((u - cy) ** 2 + (v - cx) ** 2) / (2.0 * sigma ** 2))
        return 2.0 * g - 1.0
    angle = (kind_index % 4) * np.pi / 4.0
    freq = _grating_frequency(kind_index)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return np.sin(2.0 * np.pi * freq * (u * np.cos(angle) + v * np.sin(angle))
                  + phase)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic under seed; labels exactly balanced per class."""
    if not 0 <= spec.noise < np.inf:  # also False for NaN
        raise DataError(f"SyntheticSpec.noise must be finite and >= 0, got {spec.noise}")
    for name in ("num_classes", "samples_per_class"):
        if getattr(spec, name) < 1:
            raise DataError(f"SyntheticSpec.{name} must be >= 1, got {getattr(spec, name)}")
    limit = max_synthetic_classes(spec.image_size)
    if spec.num_classes > limit:
        raise DataError(f"class {limit} would be a grating of {_grating_frequency(limit // 2)} "
                        f"cycles, at or past the Nyquist limit of image_size {spec.image_size}")
    rng = np.random.default_rng(spec.seed)
    size, channels = spec.image_size, spec.channels
    total = spec.num_classes * spec.samples_per_class
    images = np.empty((total, channels, size, size), dtype=np.float32)
    labels = np.empty(total, dtype=np.int64)
    u, v = np.meshgrid(np.linspace(0.0, 1.0, size, endpoint=False),
                       np.linspace(0.0, 1.0, size, endpoint=False),
                       indexing="ij")
    row = 0
    for cls in range(spec.num_classes):
        is_blob = cls % 2 == 1
        kind_index = cls // 2
        for _ in range(spec.samples_per_class):
            pattern = _class_pattern(kind_index, is_blob, u, v, rng)
            gains = 1.0 + 0.1 * rng.standard_normal(channels)
            img = 0.5 + _PATTERN_AMPLITUDE * gains[:, None, None] * pattern[None]
            if spec.noise > 0:
                img = img + spec.noise * rng.standard_normal(img.shape)
            images[row] = np.clip(img, 0.0, 1.0)
            labels[row] = cls
            row += 1
    return Dataset(images=images, labels=labels, num_classes=spec.num_classes)


# ---------------------------------------------------------------------------
# CIFAR binary record formats
# ---------------------------------------------------------------------------

CIFAR_SIZE = 32
# each variant's (label bytes ahead of a record's RGB planes, offset of the
# label used, class count); cifar100's fine label follows its coarse one
CIFAR_VARIANTS = {"cifar10": (1, 0, 10), "cifar100": (2, 1, 100)}


def load_cifar_binary(paths, variant: str = "cifar10") -> Dataset:
    """Load CIFAR binary record files: one path (``str`` or path-like), or
    an iterable of several, in order.

    Each record is the variant's label bytes then the RGB planes
    (``CIFAR_VARIANTS``).  ``num_classes`` is fixed by the variant; a file
    need not hold every class, but a label outside that range is rejected.
    """
    if variant not in CIFAR_VARIANTS:
        raise DataError(f"unknown cifar variant {variant!r}")
    label_bytes, label_offset, num_classes = CIFAR_VARIANTS[variant]
    record = label_bytes + 3 * CIFAR_SIZE * CIFAR_SIZE
    paths = [paths] if isinstance(paths, (str, os.PathLike)) else list(paths)
    if not paths:
        raise DataError("no CIFAR record files given")

    all_images, all_labels = [], []
    for path in paths:
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from None
        if len(blob) == 0 or len(blob) % record:
            raise DataError(f"{path}: file ends at byte {len(blob)}, not a "
                            f"multiple of the {record}-byte record")
        rows = np.frombuffer(blob, dtype=np.uint8).reshape(-1, record)
        labels = rows[:, label_offset].astype(np.int64)
        _check_labels(labels, num_classes, path)
        all_labels.append(labels)
        pixels = rows[:, label_bytes:]
        images = pixels.reshape(-1, 3, CIFAR_SIZE, CIFAR_SIZE).astype(np.float32)
        images /= 255.0  # in place: no second full-size array
        all_images.append(images)

    return Dataset(images=np.concatenate(all_images), labels=np.concatenate(all_labels),
                   num_classes=num_classes)


# ---------------------------------------------------------------------------
# augmentation (training path only; eval applies none)
# ---------------------------------------------------------------------------


# zero padding of the random crop: a crop offset lies in [0, 2 * CROP_PAD]
CROP_PAD = 4


def pad_crop(images: np.ndarray, offsets_y, offsets_x) -> np.ndarray:
    """Zero-pad by ``CROP_PAD`` and crop back at the given per-image offsets.

    Each offset is one integer for every image or one per image.  Offset
    ``(CROP_PAD, CROP_PAD)`` is the identity crop; an offset that is not an
    integer raises ``DataError`` naming its axis, and one outside ``[0, 2 *
    CROP_PAD]`` names the first such image.
    """
    _check_batch(images, "pad_crop")
    n, _, h, w = images.shape
    per_image = []
    for axis, offsets in (("y", offsets_y), ("x", offsets_x)):
        offsets = np.asarray(offsets)
        if offsets.shape not in ((), (n,)):
            raise DataError(f"pad_crop: {axis} offsets of shape {offsets.shape} "
                            f"for images of shape {images.shape}; expected () or ({n},)")
        if offsets.dtype.kind not in "iu":
            raise DataError(f"pad_crop: {axis} offsets must be integers, "
                            f"got dtype {offsets.dtype}")
        offsets = np.broadcast_to(offsets, (n,))
        outside = np.flatnonzero((offsets < 0) | (offsets > 2 * CROP_PAD))
        if outside.size:
            i = int(outside[0])
            raise DataError(f"pad_crop: image {i} has {axis} offset {offsets[i]} "
                            f"outside [0, {2 * CROP_PAD}]")
        per_image.append(offsets)
    offsets_y, offsets_x = per_image
    padded = np.pad(images, ((0, 0), (0, 0), (CROP_PAD, CROP_PAD), (CROP_PAD, CROP_PAD)))
    out = np.empty_like(images)
    for i in range(n):
        oy, ox = int(offsets_y[i]), int(offsets_x[i])
        out[i] = padded[i, :, oy:oy + h, ox:ox + w]
    return out


def augment_batch(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-image independent horizontal flip (p = 0.5), then a zero-pad by
    ``CROP_PAD`` and a crop at one of the (2 * CROP_PAD + 1)^2 offsets, drawn
    uniformly.

    Draw order is fixed (flips, then crop offsets) so a seeded generator
    reproduces the exact augmentation stream.
    """
    _check_batch(images, "augment_batch")
    out = images.copy()
    mask = rng.random(images.shape[0]) < 0.5
    out[mask] = out[mask, :, :, ::-1]
    offs = rng.integers(0, 2 * CROP_PAD + 1, size=(images.shape[0], 2))
    return pad_crop(out, offs[:, 0], offs[:, 1])


# ---------------------------------------------------------------------------
# normalization and splits
# ---------------------------------------------------------------------------


def channel_stats(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    _check_batch(images, "channel_stats")
    mean = images.mean(axis=(0, 2, 3))
    std = np.maximum(images.std(axis=(0, 2, 3)), 1e-6)
    return mean.astype(np.float32), std.astype(np.float32)


def _check_channel_stats(images: np.ndarray, mean, std, where: str) -> None:
    """Reject ``images`` unless it is a batch of images, and ``mean`` or
    ``std`` unless it has one entry per channel of that batch."""
    _check_batch(images, where)
    for name, stat in (("mean", mean), ("std", std)):
        if np.shape(stat) != (images.shape[1],):
            raise DataError(f"{where}: {name} of shape {np.shape(stat)} does not have "
                            f"one entry per channel of images of shape {images.shape}")


def normalize_images(images: np.ndarray, mean: np.ndarray,
                     std: np.ndarray) -> np.ndarray:
    """(images - mean) / std per channel, divided in place in the difference,
    so only one new array is made."""
    _check_channel_stats(images, mean, std, "normalize_images")
    out = images - mean[None, :, None, None]
    out /= std[None, :, None, None]
    return out


def denormalize_images(images: np.ndarray, mean: np.ndarray,
                       std: np.ndarray) -> np.ndarray:
    _check_channel_stats(images, mean, std, "denormalize_images")
    return images * std[None, :, None, None] + mean[None, :, None, None]


def stratified_split(dataset: Dataset, fraction: float,
                     seed: int) -> tuple[Dataset, Dataset]:
    """Per-class proportional split, deterministic under seed."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"split fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    first_idx, second_idx = [], []
    for cls in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == cls)
        perm = rng.permutation(idx)
        take = int(round(fraction * idx.size))
        first_idx.append(perm[:take])
        second_idx.append(perm[take:])
    first = np.sort(np.concatenate(first_idx))
    second = np.sort(np.concatenate(second_idx))
    make = lambda sel: replace(  # noqa: E731
        dataset, images=dataset.images[sel], labels=dataset.labels[sel])
    return make(first), make(second)


def check_pairable(dataset: Dataset) -> None:
    """Coverage check for a training split: pair sampling needs every
    class to hold at least two samples, so an empty class fails too."""
    counts = np.bincount(dataset.labels, minlength=dataset.num_classes)
    lacking = np.flatnonzero(counts < 2)
    if lacking.size:
        raise DataError(f"classes {lacking.tolist()} have fewer than 2 samples; "
                        "pair sampling is impossible")
