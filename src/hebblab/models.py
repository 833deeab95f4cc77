"""Two small CNN backbones with a designated regularized conv layer and an
embedding tap.

Parameter iteration order is the construction order listed in the builders
below (dicts preserve insertion order); consolidation penalties and
checkpoints rely on it.  Weight init is Kaiming-uniform fan-in, biases zero,
batch-norm gamma/beta one/zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import BatchNormStats, Tensor

SUPPORTED_INPUT_SIZES = (16, 32)
EMBED_DIM = 128


@dataclass
class ForwardTaps:
    """Everything one forward pass exposes to the losses and analyses."""

    logits: Tensor                # [N, K]
    embedding: Tensor             # [N, EMBED_DIM]
    hebbian_activation: Tensor    # [N, C_out, H, W], post-ReLU
    hebbian_weight: Tensor        # [C_out, C_in, K, K]


@dataclass
class ParamSet:
    """Named leaf tensors in a fixed order (a model's theta, the gate's phi)."""

    params: dict[str, Tensor]

    def snapshot_params(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_params(self, arrays: dict[str, np.ndarray]) -> None:
        """Replace every parameter; a name or shape mismatch changes none."""
        if set(arrays) != set(self.params):
            raise ValueError("parameter-set mismatch when loading arrays")
        for name, p in self.params.items():
            if arrays[name].shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{arrays[name].shape} vs {p.data.shape}")
        for name, p in self.params.items():
            p.data = arrays[name].astype(p.data.dtype)
            p.grad = None

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None


@dataclass(kw_only=True)
class ModelState(ParamSet):
    arch: str
    input_channels: int
    input_size: int
    bn: dict[str, BatchNormStats] = field(default_factory=dict)
    hebbian_layer: str = ""

    def snapshot_bn(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        return {name: s.snapshot() for name, s in self.bn.items()}

    def restore_bn(self, snap: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
        for name, s in self.bn.items():
            s.restore(snap[name])


def _kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                     fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _conv_param(params, rng, name, c_out, c_in, k, bias=True):
    fan_in = c_in * k * k
    params[f"{name}_w"] = T.Tensor(
        _kaiming_uniform(rng, (c_out, c_in, k, k), fan_in), requires_grad=True)
    if bias:
        params[f"{name}_b"] = T.Tensor(np.zeros(c_out), requires_grad=True)


def _dense_param(params, rng, name, d_in, d_out):
    params[f"{name}_w"] = T.Tensor(
        _kaiming_uniform(rng, (d_in, d_out), d_in), requires_grad=True)
    params[f"{name}_b"] = T.Tensor(np.zeros(d_out), requires_grad=True)


def _bn_param(params, bn, name, channels):
    params[f"{name}_gamma"] = T.Tensor(np.ones(channels), requires_grad=True)
    params[f"{name}_beta"] = T.Tensor(np.zeros(channels), requires_grad=True)
    bn[name] = BatchNormStats(channels)


def _res_block_params(params, bn, rng, block, c_in, c_out):
    """The parameters ``_res_block`` reads, in its order: conv1, bn1, conv2,
    bn2, then, for a block that widens its channels, the 1x1 projection
    shortcut and its batch norm.  Convs feeding batch norm carry no bias:
    the normalization would cancel it, leaving parameters with an
    exactly-zero gradient."""
    _conv_param(params, rng, f"{block}_conv1", c_out, c_in, 3, bias=False)
    _bn_param(params, bn, f"{block}_bn1", c_out)
    _conv_param(params, rng, f"{block}_conv2", c_out, c_out, 3, bias=False)
    _bn_param(params, bn, f"{block}_bn2", c_out)
    if c_in != c_out:
        _conv_param(params, rng, f"{block}_proj", c_out, c_in, 1, bias=False)
        _bn_param(params, bn, f"{block}_bnp", c_out)


def _check_input_size(input_size: int, num_classes: int) -> None:
    if input_size not in SUPPORTED_INPUT_SIZES:
        raise ValueError(f"unsupported input size {input_size}; "
                         f"choose from {SUPPORTED_INPUT_SIZES}")
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")


def build_tiny_vgg(num_classes: int, input_channels: int = 3,
                   input_size: int = 32, seed: int = 0) -> ModelState:
    """Plain conv stack; the second conv carries the Hebbian regularizer.

    conv(3x3,32) - conv(3x3,32) - pool - conv(3x3,64) - pool - conv(3x3,128)
    - global pool - dense(128 embedding) - dense(classes)
    """
    _check_input_size(input_size, num_classes)
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    _conv_param(params, rng, "conv1", 32, input_channels, 3)
    _conv_param(params, rng, "conv2", 32, 32, 3)
    _conv_param(params, rng, "conv3", 64, 32, 3)
    _conv_param(params, rng, "conv4", 128, 64, 3)
    _dense_param(params, rng, "embed", 128, EMBED_DIM)
    _dense_param(params, rng, "head", EMBED_DIM, num_classes)
    return ModelState(arch="tiny_vgg", input_channels=input_channels,
                      input_size=input_size, params=params, hebbian_layer="conv2")


def build_mini_resnet(num_classes: int, input_channels: int = 3,
                      input_size: int = 32, seed: int = 0) -> ModelState:
    """Stem conv + two stages of two residual blocks (16 -> 32 channels).

    The stage boundary downsamples with a 2x2 max pool (every conv runs at
    stride 1) and the first stage-2 block widens channels through a 1x1
    projection shortcut.  The final 3x3 conv of stage 2 (s2b2_conv2)
    carries the Hebbian regularizer; its tap is the post-ReLU block output.
    """
    _check_input_size(input_size, num_classes)
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    bn: dict[str, BatchNormStats] = {}
    # the stem conv feeds batch norm too, so it has no bias either
    _conv_param(params, rng, "stem", 16, input_channels, 3, bias=False)
    _bn_param(params, bn, "stem_bn", 16)
    for block, c_in, c_out in (("s1b1", 16, 16), ("s1b2", 16, 16),
                               ("s2b1", 16, 32), ("s2b2", 32, 32)):
        _res_block_params(params, bn, rng, block, c_in, c_out)
    _dense_param(params, rng, "embed", 32, EMBED_DIM)
    _dense_param(params, rng, "head", EMBED_DIM, num_classes)
    return ModelState(arch="mini_resnet", input_channels=input_channels,
                      input_size=input_size, params=params, bn=bn,
                      hebbian_layer="s2b2_conv2")


def build_model(arch: str, num_classes: int, input_channels: int = 3,
                input_size: int = 32, seed: int = 0) -> ModelState:
    if arch not in _ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}; choose from {sorted(ARCHES)}")
    return _ARCHITECTURES[arch][0](num_classes, input_channels, input_size, seed)


def _as_batch_tensor(model: ModelState, batch) -> Tensor:
    x = batch if isinstance(batch, Tensor) else T.Tensor(batch)
    if x.data.ndim != 4 or x.data.shape[1] != model.input_channels \
            or x.data.shape[2] != model.input_size or x.data.shape[3] != model.input_size:
        raise ValueError(
            f"batch shape {x.data.shape} does not match architecture input "
            f"[N, {model.input_channels}, {model.input_size}, {model.input_size}]")
    return x


# Images per block of an eval forward.  A block's largest activation is then
# no bigger than a training step's at the config's default batch_size: 64
# images at 32x32, whose conv1 output is [64, 32, 32, 32].
EVAL_BLOCK_IMAGES = 64


def forward(model: ModelState, batch, mode: str = "eval") -> ForwardTaps:
    """Single pass yielding logits, embedding, and the regularizer taps.

    An eval-mode pass runs under ``no_grad``: its taps carry no graph.  An
    eval batch of more than ``EVAL_BLOCK_IMAGES`` images runs as balanced
    blocks of at most that many, each block's taps copied into whole-batch
    arrays, so no two whole-batch activations are live at once: a 256-image
    ``tiny_vgg`` eval at 32x32 held conv1's and conv2's outputs, 33.5 MB
    each, together.  Every value an eval forward computes is per image (the
    convs run one GEMM per image, and batch norm uses its running
    statistics), so the taps equal those of one pass over the whole batch.
    The blocks are balanced because a block of one image would not: its
    ``dense`` GEMM of one row rounds differently.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = _as_batch_tensor(model, batch)
    run = _ARCHITECTURES[model.arch][1]
    if mode == "train":
        return run(model, x, True)
    n = len(x.data)
    blocks = -(-n // EVAL_BLOCK_IMAGES)
    with T.no_grad():
        if blocks <= 1:
            return run(model, x, False)
        taps = None
        for j in range(blocks):
            lo, hi = n * j // blocks, n * (j + 1) // blocks
            block = run(model, T.Tensor(x.data[lo:hi]), False)
            if taps is None:
                # the first block's tap tensors take the whole-batch arrays
                taps = block
                for tap in (taps.logits, taps.embedding, taps.hebbian_activation):
                    whole = np.empty((n, *tap.shape[1:]), dtype=tap.data.dtype)
                    whole[:hi] = tap.data
                    tap.data = whole
            else:
                taps.logits.data[lo:hi] = block.logits.data
                taps.embedding.data[lo:hi] = block.embedding.data
                taps.hebbian_activation.data[lo:hi] = block.hebbian_activation.data
            del block  # so the next block runs without this one's taps
        return taps


def _forward_tiny_vgg(model: ModelState, x: Tensor, training: bool) -> ForwardTaps:
    p = model.params
    h = T.conv2d(x, p["conv1_w"], p["conv1_b"], padding=1, relu=True)
    hebb = T.conv2d(h, p["conv2_w"], p["conv2_b"], padding=1, relu=True)
    h = T.max_pool2d(hebb)
    h = T.conv2d(h, p["conv3_w"], p["conv3_b"], padding=1, relu=True)
    h = T.max_pool2d(h)
    h = T.conv2d(h, p["conv4_w"], p["conv4_b"], padding=1, relu=True)
    return _taps(model, h, hebb)


def _taps(model: ModelState, features: Tensor, hebb: Tensor) -> ForwardTaps:
    """The end of every backbone: global pool of the last feature map, the
    ReLU embedding, the head, and the taps of the Hebbian layer."""
    p = model.params
    pooled = T.global_avg_pool(features)
    embedding = T.relu(T.dense(pooled, p["embed_w"], p["embed_b"]))
    logits = T.dense(embedding, p["head_w"], p["head_b"])
    return ForwardTaps(logits=logits, embedding=embedding, hebbian_activation=hebb,
                       hebbian_weight=p[f"{model.hebbian_layer}_w"])


def _res_block(model: ModelState, x: Tensor, block: str, training: bool) -> Tensor:
    """Two conv-bn stages and the shortcut, projected when the block has a
    projection (``_res_block_params``)."""
    p, bn = model.params, model.bn
    h = T.conv2d(x, p[f"{block}_conv1_w"], padding=1)
    h = T.relu(T.batch_norm2d(h, p[f"{block}_bn1_gamma"], p[f"{block}_bn1_beta"],
                              bn[f"{block}_bn1"], training))
    h = T.conv2d(h, p[f"{block}_conv2_w"], padding=1)
    h = T.batch_norm2d(h, p[f"{block}_bn2_gamma"], p[f"{block}_bn2_beta"],
                       bn[f"{block}_bn2"], training)
    if f"{block}_proj_w" in p:
        skip = T.conv2d(x, p[f"{block}_proj_w"])
        skip = T.batch_norm2d(skip, p[f"{block}_bnp_gamma"], p[f"{block}_bnp_beta"],
                              bn[f"{block}_bnp"], training)
    else:
        skip = x
    return T.relu(T.add(h, skip))


def _forward_mini_resnet(model: ModelState, x: Tensor, training: bool) -> ForwardTaps:
    p, bn = model.params, model.bn
    h = T.conv2d(x, p["stem_w"], padding=1)
    h = T.relu(T.batch_norm2d(h, p["stem_bn_gamma"], p["stem_bn_beta"],
                              bn["stem_bn"], training))
    h = _res_block(model, h, "s1b1", training)
    h = _res_block(model, h, "s1b2", training)
    h = T.max_pool2d(h)
    h = _res_block(model, h, "s2b1", training)
    hebb = _res_block(model, h, "s2b2", training)
    return _taps(model, hebb, hebb)


# each architecture's builder and forward; ARCHES lists the names
_ARCHITECTURES = {"tiny_vgg": (build_tiny_vgg, _forward_tiny_vgg),
                  "mini_resnet": (build_mini_resnet, _forward_mini_resnet)}
ARCHES = tuple(_ARCHITECTURES)
