"""Run configuration: dataclasses, the line-oriented config-file parser, and
the canonical effective-config rendering.

File format: ``[section]`` headers and ``key = value`` lines; ``#`` comments
and blank lines are ignored.  Unknown sections or keys are rejected with the
offending line number.  Missing keys take the documented defaults, so an
empty file is a valid configuration.

Images come from the synthetic generator or from CIFAR-10/100 record files,
and both are RGB, so the channel count is fixed at 3 and is not a field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .data import CIFAR_SIZE, CIFAR_VARIANTS, max_synthetic_classes
from .models import ARCHES, SUPPORTED_INPUT_SIZES as IMAGE_SIZES
from .tensor import PRECISIONS

DATA_SOURCES = ("synthetic", *CIFAR_VARIANTS)
# Data fields a CIFAR source fixes: its records' class count and image size
_SOURCE_FIXES = {name: {"num_classes": classes, "image_size": CIFAR_SIZE}
                 for name, (_, _, classes) in CIFAR_VARIANTS.items()}


class ConfigError(ValueError):
    """Raised for unparseable or constraint-violating configuration."""


@dataclass
class TrainConfig:
    """Every hyperparameter of both training phases."""

    epochs_phase1: int = 30
    epochs_phase2: int = 30
    batch_size: int = 64
    lr_phase1: float = 1e-3
    lr_phase2: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 1e-5
    swa_start_epoch: int = 24
    early_stop_patience: int = 15
    augment: bool = True
    seed: int = 0
    precision: str = "float32"
    # loss coefficients (defaults are starting points, not published values)
    lambda_hebb1: float = 0.1
    lambda_hebb2: float = 0.1
    lambda_metric: float = 0.5
    lambda_cons: float = 1e-3
    margin: float = 1.0


@dataclass
class DataConfig:
    source: str = "synthetic"
    num_classes: int = 4
    image_size: int = 16
    train_per_class: int = 500
    val_per_class: int = 125
    test_per_class: int = 125
    noise: float = 0.25
    # CIFAR record files, each a comma-separated list
    train_images: str = ""
    test_images: str = ""


@dataclass
class FullConfig:
    arch: str = "tiny_vgg"
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


# TrainConfig fields go in [loss] if named here and in [train] otherwise,
# each section in field order
_LOSS_FIELDS = ("lambda_hebb1", "lambda_hebb2", "lambda_metric", "lambda_cons", "margin")
_TRAIN_FIELDS = tuple(f.name for f in fields(TrainConfig) if f.name not in _LOSS_FIELDS)


def _sections(cfg: FullConfig) -> dict[str, tuple[object, tuple[str, ...]]]:
    """Each section's keys, in rendering order, and the object they set."""
    return {
        "model": (cfg, ("arch",)),
        "data": (cfg.data, tuple(f.name for f in fields(DataConfig))),
        "train": (cfg.train, _TRAIN_FIELDS),
        "loss": (cfg.train, _LOSS_FIELDS),
    }


_CASTS = {"int": int, "float": _parse_float, "bool": _parse_bool, "str": str}


def parse_config_text(text: str, origin: str = "<config>") -> FullConfig:
    cfg = FullConfig()
    sections = _sections(cfg)
    lines_of: dict[tuple[str, str], int] = {}
    section = None
    seen: set[tuple[str, str]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in sections:
                raise ConfigError(f"{origin}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        target, keys = sections[section]
        if key not in keys:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in seen:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        seen.add((section, key))
        lines_of[(section, key)] = lineno
        cast = _CASTS[next(f.type for f in fields(target) if f.name == key)]
        try:
            setattr(target, key, cast(value))
        except ValueError as exc:
            raise ConfigError(f"{origin}:{lineno}: bad value for {key}: {exc}") from None

    _validate(cfg, lines_of, origin)
    return cfg


def parse_config(path: str) -> FullConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, origin=path)


def _validate(cfg: FullConfig, lines_of: dict[tuple[str, str], int],
              origin: str) -> None:
    def fail(section: str, key: str, message: str, also: str = "") -> None:
        # a check on two keys names the line of ``key``, or of ``also`` when
        # only that one was written
        lineno = lines_of.get((section, key)) or lines_of.get((section, also))
        where = f"{origin}:{lineno}: " if lineno else f"{origin}: "
        raise ConfigError(f"{where}{key} {message}")

    t, d = cfg.train, cfg.data
    if cfg.arch not in ARCHES:
        fail("model", "arch", f"must be one of {ARCHES}, got {cfg.arch!r}")
    if t.epochs_phase1 < 1:
        fail("train", "epochs_phase1", "must be >= 1")
    if t.epochs_phase2 < 1:
        fail("train", "epochs_phase2", "must be >= 1")
    if t.batch_size < 2:
        fail("train", "batch_size", "must be >= 2 (batch norm needs N >= 2)")
    if not t.lr_phase1 > 0:
        fail("train", "lr_phase1", "must be > 0")
    if not t.lr_phase2 > 0:
        fail("train", "lr_phase2", "must be > 0")
    if not 0.0 <= t.momentum < 1.0:
        fail("train", "momentum", "must be in [0, 1)")
    if t.weight_decay < 0:
        fail("train", "weight_decay", "must be >= 0")
    if not 1 <= t.swa_start_epoch <= t.epochs_phase1:
        fail("train", "swa_start_epoch", f"must be in [1, epochs_phase1], got "
             f"{t.swa_start_epoch} with epochs_phase1 = {t.epochs_phase1}",
             also="epochs_phase1")
    if t.early_stop_patience < 1:
        fail("train", "early_stop_patience", "must be >= 1")
    if t.seed < 0:
        fail("train", "seed", "must be >= 0")
    if t.precision not in PRECISIONS:
        fail("train", "precision", f"must be one of {PRECISIONS}")
    for name in ("lambda_hebb1", "lambda_hebb2", "lambda_metric", "lambda_cons"):
        if getattr(t, name) < 0:
            fail("loss", name, "must be >= 0")
    if not t.margin > 0:
        fail("loss", "margin", "must be > 0")
    if d.source not in DATA_SOURCES:
        fail("data", "source", f"must be one of {DATA_SOURCES}")
    if d.num_classes < 2:
        fail("data", "num_classes", "must be >= 2")
    if d.image_size not in IMAGE_SIZES:
        fail("data", "image_size", f"must be one of {IMAGE_SIZES}")
    if d.noise < 0:
        fail("data", "noise", "must be >= 0")
    for name, want in _SOURCE_FIXES.get(d.source, {}).items():
        if getattr(d, name) != want:
            fail("data", name, f"must be {want} for {d.source} data, got "
                 f"{getattr(d, name)}", also="source")
    if d.source == "synthetic":
        if d.num_classes > (limit := max_synthetic_classes(d.image_size)):
            fail("data", "num_classes", f"must be <= {limit} for synthetic data at "
                 f"image_size {d.image_size}, got {d.num_classes}", also="image_size")
        for name in ("train_per_class", "val_per_class", "test_per_class"):
            if getattr(d, name) < 2:
                fail("data", name, "must be >= 2")
    else:  # cifar10 / cifar100 records hold their labels
        for name in ("train_images", "test_images"):
            if not getattr(d, name):
                fail("data", name, "is required for cifar data", also="source")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_effective(cfg: FullConfig) -> str:
    """Canonical text of the fully-defaulted configuration (round-trips)."""
    out = []
    for section, (target, keys) in _sections(cfg).items():
        out.append(f"[{section}]")
        out.extend(f"{key} = {_format_value(getattr(target, key))}" for key in keys)
        out.append("")
    return "\n".join(out)
