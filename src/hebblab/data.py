"""Dataset provision: parametric synthetic image classes, IDX and
CIFAR-binary loaders, augmentation, per-channel normalization, splits."""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np


class DataError(ValueError):
    """Raised for malformed dataset files or invalid dataset state."""


@dataclass
class Dataset:
    images: np.ndarray            # [M, C, H, W] float32 in [0, 1]
    labels: np.ndarray            # [M] int64
    num_classes: int
    split: str = ""

    def __len__(self) -> int:
        return int(self.images.shape[0])

    def validate(self) -> None:
        """Format check: image and label counts agree and every label lies
        in ``[0, num_classes)``.  Class coverage is not checked here; a
        training split is held to that by :func:`check_pairable`."""
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataError("image/label count mismatch")
        _check_labels(self.labels, self.num_classes)


def _check_labels(labels: np.ndarray, num_classes: int, where: str = "") -> None:
    """Reject the first label outside ``[0, num_classes)``, naming its record
    index and, when ``where`` is given, the file it came from."""
    bad = np.flatnonzero((labels < 0) | (labels >= num_classes))
    if bad.size:
        i = int(bad[0])
        prefix = f"{where}: " if where else ""
        raise DataError(f"{prefix}record {i} has label {labels[i]} "
                        f"outside [0, {num_classes})")


@dataclass
class SyntheticSpec:
    """Parametric class generators: oriented gratings and Gaussian blobs.

    Even class ids are gratings (angle and frequency stepped per class),
    odd ids are blobs (position and scale stepped per class), so distinct
    classes always have distinct generator parameters.  ``noise`` is the
    additive pixel-noise standard deviation; per-image phase/position
    jitter is always on, giving intra-class variability even at noise 0.
    """

    num_classes: int = 4
    image_size: int = 16
    channels: int = 3
    samples_per_class: int = 625
    noise: float = 0.25
    seed: int = 0
    split: str = ""


_BLOB_CENTERS = ((0.30, 0.30), (0.70, 0.70), (0.30, 0.70), (0.70, 0.30))
_PATTERN_AMPLITUDE = 0.35


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
    freq = 3.0 + (kind_index // 4)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return np.sin(2.0 * np.pi * freq * (u * np.cos(angle) + v * np.sin(angle))
                  + phase)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic under seed; labels exactly balanced per class."""
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
    ds = Dataset(images=images, labels=labels, num_classes=spec.num_classes,
                 split=spec.split)
    ds.validate()
    return ds


# ---------------------------------------------------------------------------
# IDX format (big-endian dims, magic 0x0000080x)
# ---------------------------------------------------------------------------


def _read_idx_array(path: str, expect_ndim: int) -> np.ndarray:
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if len(blob) < 4:
        raise DataError(f"{path}: truncated header at byte {len(blob)}")
    magic = struct.unpack(">I", blob[:4])[0]
    if magic >> 16 != 0 or (magic >> 8) & 0xFF != 0x08:
        raise DataError(f"{path}: bad magic number 0x{magic:08x} at byte 0")
    ndim = magic & 0xFF
    if ndim != expect_ndim:
        raise DataError(f"{path}: expected {expect_ndim} dimensions, "
                        f"magic declares {ndim} at byte 3")
    header_end = 4 + 4 * ndim
    if len(blob) < header_end:
        raise DataError(f"{path}: truncated dimension header at byte {len(blob)}")
    dims = struct.unpack(f">{ndim}I", blob[4:header_end])
    expected = header_end + int(np.prod(dims))
    if len(blob) != expected:
        raise DataError(f"{path}: expected {expected} bytes, file ends at "
                        f"byte {len(blob)}")
    return np.frombuffer(blob, dtype=np.uint8, offset=header_end).reshape(dims)


def load_idx(images_path: str, labels_path: str, num_classes: int,
             split: str = "") -> Dataset:
    """Load an IDX ubyte image/label pair (images magic 0x00000803).

    ``num_classes`` comes from the caller (the config), not from the
    labels, so every split of one dataset gets the same class count.  A
    file need not hold every class; a label outside ``[0, num_classes)``
    is rejected.
    """
    raw = _read_idx_array(images_path, expect_ndim=3)
    labels = _read_idx_array(labels_path, expect_ndim=1)
    if raw.shape[0] != labels.shape[0]:
        raise DataError(f"record-count mismatch: {raw.shape[0]} images vs "
                        f"{labels.shape[0]} labels")
    _check_labels(labels, num_classes, labels_path)
    images = (raw.astype(np.float32) / 255.0)[:, None, :, :]
    ds = Dataset(images=images, labels=labels.astype(np.int64),
                 num_classes=num_classes, split=split)
    ds.validate()
    return ds


# ---------------------------------------------------------------------------
# CIFAR binary record formats
# ---------------------------------------------------------------------------

_CIFAR_PIXELS = 3 * 32 * 32


def load_cifar_binary(paths, variant: str = "cifar10", split: str = "") -> Dataset:
    """Load CIFAR binary record files: one path, or several, in order.

    cifar10: 3073-byte records (label + RGB planes); cifar100: 3074-byte
    records (coarse + fine + RGB planes), the fine label is used.
    ``num_classes`` is fixed by the variant (10 or 100); a file need not
    hold every class, but a label outside that range is rejected.
    """
    if variant == "cifar10":
        record, label_offset, num_classes = _CIFAR_PIXELS + 1, 0, 10
    elif variant == "cifar100":
        record, label_offset, num_classes = _CIFAR_PIXELS + 2, 1, 100
    else:
        raise DataError(f"unknown cifar variant {variant!r}")
    paths = [paths] if isinstance(paths, str) else list(paths)
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
        pixels = rows[:, record - _CIFAR_PIXELS:]
        all_images.append(pixels.reshape(-1, 3, 32, 32).astype(np.float32) / 255.0)

    labels = np.concatenate(all_labels)
    ds = Dataset(images=np.concatenate(all_images), labels=labels,
                 num_classes=num_classes, split=split)
    ds.validate()
    return ds


# ---------------------------------------------------------------------------
# augmentation (training path only; eval applies none)
# ---------------------------------------------------------------------------


def flip_horizontal(images: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(images[..., ::-1])


def pad_crop(images: np.ndarray, offsets_y, offsets_x, pad: int = 4) -> np.ndarray:
    """Zero-pad by ``pad`` and crop back at the given per-image offsets.

    Offset ``(pad, pad)`` is the identity crop.
    """
    n, _, h, w = images.shape
    offsets_y = np.broadcast_to(np.asarray(offsets_y), (n,))
    offsets_x = np.broadcast_to(np.asarray(offsets_x), (n,))
    padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty_like(images)
    for i in range(n):
        oy, ox = int(offsets_y[i]), int(offsets_x[i])
        out[i] = padded[i, :, oy:oy + h, ox:ox + w]
    return out


def augment_batch(images: np.ndarray, rng: np.random.Generator,
                  flip: bool = True, crop: bool = True, pad: int = 4) -> np.ndarray:
    """Per-image independent horizontal flip (p = 0.5) and pad-then-crop.

    Draw order is fixed (flips, then crop offsets) so a seeded generator
    reproduces the exact augmentation stream.
    """
    out = images
    if flip:
        mask = rng.random(images.shape[0]) < 0.5
        out = out.copy()
        out[mask] = out[mask, :, :, ::-1]
    if crop:
        offs = rng.integers(0, 2 * pad + 1, size=(images.shape[0], 2))
        out = pad_crop(out, offs[:, 0], offs[:, 1], pad=pad)
    return out


# ---------------------------------------------------------------------------
# normalization and splits
# ---------------------------------------------------------------------------


def channel_stats(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = images.mean(axis=(0, 2, 3))
    std = np.maximum(images.std(axis=(0, 2, 3)), 1e-6)
    return mean.astype(np.float32), std.astype(np.float32)


def normalize_images(images: np.ndarray, mean: np.ndarray,
                     std: np.ndarray) -> np.ndarray:
    return (images - mean[None, :, None, None]) / std[None, :, None, None]


def denormalize_images(images: np.ndarray, mean: np.ndarray,
                       std: np.ndarray) -> np.ndarray:
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
    make = lambda sel, tag: replace(  # noqa: E731
        dataset, images=dataset.images[sel], labels=dataset.labels[sel], split=tag)
    return make(first, "train"), make(second, "val")


def check_pairable(dataset: Dataset) -> None:
    """Coverage check for a training split: pair sampling needs every
    class to hold at least two samples, so an empty class fails too."""
    counts = np.bincount(dataset.labels, minlength=dataset.num_classes)
    lacking = np.flatnonzero(counts < 2)
    if lacking.size:
        raise DataError(f"classes {lacking.tolist()} have fewer than 2 samples; "
                        "pair sampling is impossible")
