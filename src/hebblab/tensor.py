"""Reverse-mode automatic differentiation on numpy arrays.

The graph is implicit: every operation makes its output :class:`Tensor`
in ``_node``, and nowhere else.  The node holds the op's parent tensors, a
closure mapping the output gradient to one gradient per parent (``None``
where none is needed), and the op's name, which the debug checks report
(``set_debug_checks``).  ``Tensor.backward`` walks the graph once in reverse
topological order (parent order is fixed at op construction, so the visit
order is deterministic) and is the only code that checks, keeps or adds a
gradient into ``.grad``.

Precision is a run-level switch (float32 unless a ``default_dtype`` block
says otherwise), not a per-tensor property, so a graph stays homogeneous.
Gradient verification always runs at 64 bit.

Inside a ``with no_grad():`` block ops record no graph: every output has
``requires_grad == False`` and no parents, so nothing a backward pass would
need (masks, closures, kept inputs) outlives the op.  Eval-mode forwards
run this way.

Layout: every op takes and returns NCHW arrays, and works on them in NCHW.
``conv2d`` zero-pads a block of images at a time into one reused buffer and
builds im2col columns from it by one copy from a strided view.  Its forward
is one GEMM per image, ``W [C_out, C_in * K * K] @ columns [C_in * K * K,
Ho * Wo]``, whose product already is that image's NCHW output, so it is
written there directly.  Only its input gradient gathers in NHWC, from the
output gradient padded by K - 1, also a block at a time.  Every convolution
runs at stride 1 and every pooling window is 2x2 at stride 2, the only
geometry the backbones use.

Per-call cost: the FD gradient check runs thousands of forwards of tiny
batches, where an op's fixed cost outweighs its arithmetic.  So the
reductions and batch norm call ``np.add.reduce`` and ``np.true_divide``
themselves, with the arithmetic of ``np.sum``, ``np.mean`` and ``np.var``
and every value bit for bit (``_mean``), and an input check formats its
message only when it fails (``_require``).

Memory: ``Tensor.backward`` releases each interior node once its closure has
run, dropping the node's gradient, its parents and its closure with what the
closure kept (masks, inputs).  So an interior gradient lives only until the
ops that read it have passed it on, and an activation only until the last
closure that kept it has run, unless the caller holds it.  Leaves keep their
``.grad``; a second backward through a released graph raises.  A closure
owns the gradient array it is handed (``Tensor.backward``) and may overwrite
it: the gradients it returns are kept as its parents' ``.grad`` when it
has just made them, and copied when they share the handed array's memory.
``conv2d(..., relu=True)`` fuses bias and ReLU into its output blocks, so no
pre-activation array is made or kept: its backward takes the ReLU mask from
the output (``out > 0`` is ``pre > 0``, also at NaN and at -0.0) and applies
it to its own gradient in place, a block at a time.

A training step allocates the same arrays every time and frees them during
its backward or when the caller drops its outputs.  glibc returns freed
memory to the kernel by two dynamic thresholds: an array above the mmap
threshold gets its own mapping, unmapped on free, and the heap top is
trimmed once its free space exceeds the trim threshold.  The next step then
faults every page in again.  At import this module fixes both thresholds far
above any array a step or an eval batch frees (``_retain_freed_memory``), so
freed arrays stay in the heap and the next step reuses them.  The price is
that the process's resident set stays at its high-water mark instead of
shrinking between steps.  It also caps glibc at one malloc arena: each
thread would otherwise get an arena of its own, and memory freed in one
arena is not reused by another.  Where glibc's ``mallopt`` is missing
(macOS, Windows, musl) nothing changes.  Because recycled heap memory is not
zeroed, no op may read an array from ``np.empty`` before writing it.

Threads: ``conv2d`` runs the image blocks of each of its loops on a pool of
W worker threads, so the copies of one block overlap the GEMM of another.
The split is static: worker w runs blocks w, w + W, ..., and the calling
thread waits for all W, then takes their results in block order
(``_map_blocks``).  W is the BLAS thread count: the first loop with more
than one block sets OpenBLAS to one thread and takes the count it had as W,
then makes the pool (``_block_pool``).  From then on every GEMM in the
process runs on one BLAS thread, so the W workers and BLAS do not compete
for the same cores.  W = 1 (``OPENBLAS_NUM_THREADS=1``, say), or a BLAS
without OpenBLAS's ``openblas_set_num_threads_local``, means no pool: the
blocks run inline and BLAS is left as it is.  A loop with one block always
runs inline.  The calling thread makes every worker's zero frame and
scratch arrays, in worker order, so the heap's layout does not depend on how
the threads interleave and a warmed step still takes no page faults.  A
forked child makes a new pool of the same width on first use.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import numbers
import os
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
# Must exceed the largest array a step or an eval batch frees, or that array
# is unmapped on free and faulted in again next time.  The largest today is
# the Hebbian tap of a batch-256 eval (tiny_vgg's conv2 output, 32 MiB),
# which glibc maps even at the 32 MiB ceiling of its dynamic mmap threshold.
_MALLOC_KEEP_BYTES = 1 << 30


def _retain_freed_memory() -> bool:
    """Fix glibc's mmap and trim thresholds at ``_MALLOC_KEEP_BYTES`` and
    cap it at one malloc arena (see the module docstring); True when all
    three took.  Where glibc's ``mallopt`` is missing this does nothing and
    returns False.

    The mmap threshold goes first and the trim threshold only if it took:
    fixing the trim threshold alone also freezes the mmap threshold at its
    128 kB default, which maps (and faults in) nearly every array anew.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library symbols, or no mallopt
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # glibc returns 1 on success; musl's mallopt is a no-op that returns 0
    return (mallopt(_M_MMAP_THRESHOLD, _MALLOC_KEEP_BYTES) == 1
            and mallopt(_M_TRIM_THRESHOLD, _MALLOC_KEEP_BYTES) == 1
            and mallopt(_M_ARENA_MAX, 1) == 1)


_retain_freed_memory()

_DTYPES = {"float32": np.float32, "float64": np.float64}
PRECISIONS = tuple(_DTYPES)

_default_dtype = np.float32
_debug_checks = False
_grad_enabled = True


@contextlib.contextmanager
def default_dtype(name: str):
    """Switch the run-level precision ("float32" or "float64") for the block."""
    global _default_dtype
    if name not in _DTYPES:
        raise ValueError(f"unsupported dtype {name!r}; choose from {sorted(_DTYPES)}")
    saved, _default_dtype = _default_dtype, _DTYPES[name]
    try:
        yield
    finally:
        _default_dtype = saved


def set_debug_checks(enabled: bool) -> None:
    """When enabled, ``_node`` asserts every op's forward output is finite,
    and ``Tensor.backward`` each gradient an op's closure returns; either
    error names the op."""
    global _debug_checks
    _debug_checks = bool(enabled)


class no_grad:
    """Context manager: ops inside it record no graph (see module docstring).

    The previous setting is restored on exit, also when the block raises.
    """

    def __enter__(self) -> None:
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._saved


def _checked(data: np.ndarray, op: str) -> None:
    """The debug check (see ``set_debug_checks``); its callers test the
    flag, so a run without checks pays no call."""
    if not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by {op}")


class Tensor:
    """A numpy array plus an optional position in the differentiation graph.

    Leaf tensors are created directly (``Tensor(data, requires_grad=True)``
    for parameters) and record the op name ``"leaf"``; interior nodes are
    made by ``_node`` for the ops in this module.
    Tensors are treated as immutable once produced; the only in-place
    mutations are gradient accumulation and the release of interior nodes
    during ``backward``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_default_dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Backpropagate from a scalar output through the recorded graph.

        Leaves accumulate into ``.grad`` and keep it.  Every interior node,
        this one included, is released as soon as its closure has run: its
        ``.grad``, its parents and its closure (with the masks and inputs
        the closure kept) are dropped, so a gradient lives only until the
        ops that read it have passed it on.  A second ``backward()`` through
        a released node raises ``RuntimeError``; build the forward again.

        A closure is handed the node's ``.grad`` and returns one gradient
        per parent, in parent order, or ``None`` for a parent it computed
        none for.  Each is an array the closure has just made, or the
        handed array or a view of it.  Only this loop puts gradients into
        ``.grad``, and it skips parents that need none.  A parent's first
        gradient becomes its ``.grad`` when it is a writeable array of the
        parent's dtype that shares no memory with the handed array, so one
        just made; anything else (the handed array passed through, a view
        or broadcast of it, a numpy scalar) is copied.  Later gradients are
        added in place.  So a closure is the only holder of the array it is
        handed and may overwrite it, as ``conv2d`` applies its ReLU mask in
        place.

        With debug checks on, each gradient a closure returns must be
        finite, or ``FloatingPointError`` names the node's op.  The check
        reads what the closure made, not the sum in ``.grad``: a ``.grad``
        already non-finite is not blamed on the op that adds to it, and a
        sum that overflows only when two finite gradients are added is not
        reported at a leaf; at an interior node it shows up as the
        non-finite output of the next closure that reads it.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar output, got shape {self.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while order:
            # popped, so a released node is freed once nothing else holds it
            node = order.pop()
            closure, grad, parents = node._backward, node.grad, node._parents
            if closure is None:
                continue
            node.grad, node._parents, node._backward = None, (), _released
            for parent, g in zip(parents, closure(grad), strict=True):
                if g is None or not parent.requires_grad:
                    continue
                if _debug_checks:
                    _checked(g, node._op + " backward")
                if parent.grad is not None:
                    parent.grad += g
                elif (isinstance(g, np.ndarray) and g.dtype == parent.data.dtype
                      and g.flags.writeable and not np.may_share_memory(g, grad)):
                    parent.grad = g
                else:
                    parent.grad = np.array(g, dtype=parent.data.dtype)
            del g  # an added gradient is freed before the next closure runs

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative postorder over parent edges; inputs precede consumers."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _released(g: np.ndarray) -> None:
    """The closure of an interior node that ``backward`` has released."""
    raise RuntimeError("backward() through a graph that was already backpropagated; "
                       "its interior nodes were released, so build the forward again")


def _records(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``parents`` records a graph.  Constant subgraphs are
    pruned, and no_grad prunes everything, so eval-mode forwards build no
    graph."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], op: str,
          backward: Callable[[np.ndarray], tuple]) -> Tensor:
    """The output of the op named ``op``, the only place one is made.

    ``data`` is checked under ``op`` when debug checks are on.  The parents
    and ``backward``, which maps the output gradient to a tuple of one
    gradient per parent (see ``Tensor.backward``), are kept only when the
    node records a graph (``_records``); the name is kept either way.
    """
    if _debug_checks:
        _checked(data, op)
    out = object.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _records(parents)
    if out.requires_grad:
        out._parents, out._backward = parents, backward
    else:
        out._parents, out._backward = (), None
    out._op = op
    return out


def _unary(a: Tensor, data: np.ndarray, op: str,
           grad: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """The node of a one-parent op whose parent's gradient is ``grad(g)``."""
    return _node(data, (a,), op, lambda g: (grad(g),))


def _require(condition: bool, message: str, *args) -> None:
    """Raise ValueError(message.format(*args)) unless ``condition``; the
    message is formatted only then, since every op call checks its inputs."""
    if not condition:
        raise ValueError(message.format(*args))


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    _require(a.shape == b.shape, "{}: shape mismatch {} vs {}", op, a.shape, b.shape)


# ---------------------------------------------------------------------------
# elementwise and scalar ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _node(a.data + b.data, (a, b), "add", lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _node(a.data - b.data, (a, b), "sub",
                 lambda g: (g, -g if b.requires_grad else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    a_data, b_data = a.data, b.data
    return _node(a_data * b_data, (a, b), "mul",
                 lambda g: (g * b_data if a.requires_grad else None,
                            g * a_data if b.requires_grad else None))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _unary(a, a.data * s, "scale", lambda g: g * s)


def shift(a: Tensor, c: float) -> Tensor:
    return _unary(a, a.data + float(c), "shift", lambda g: g)


def mul_const(a: Tensor, c: np.ndarray) -> Tensor:
    """a * c elementwise for a non-differentiable constant array."""
    _require(a.shape == np.shape(c), "mul_const: shape mismatch {} vs {}", a.shape, np.shape(c))
    return _unary(a, a.data * c, "mul_const", lambda g: g * c)


def square(a: Tensor) -> Tensor:
    a_data = a.data
    return _unary(a, a_data * a_data, "square", lambda g: 2.0 * a_data * g)


def squared_distance(a: Tensor, c: np.ndarray) -> Tensor:
    """Scalar sum((a - c)^2) for a non-differentiable constant array of the
    same shape, as one node; ``sum_all(square(a - c))`` bit for bit."""
    _require(a.shape == np.shape(c), "squared_distance: shape mismatch {} vs {}",
             a.shape, np.shape(c))
    d = a.data - c
    return _unary(a, np.add.reduce(d * d, axis=None), "squared_distance",
                  lambda g: 2.0 * d * g)


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        root = np.sqrt(a.data)

    def grad(g):
        # Subgradient 0 at the origin, mirroring the relu convention.
        denom = 2.0 * root
        return np.divide(g, denom, out=np.zeros_like(g), where=denom > 0)
    return _unary(a, root, "sqrt", grad)


def relu(a: Tensor) -> Tensor:
    x = a.data
    # subgradient at exactly 0 is 0; the mask is made in the backward, so
    # none is held from the forward
    return _unary(a, np.maximum(x, 0), "relu", lambda g: g * (x > 0))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)
    return _unary(a, out_data, "sigmoid", lambda g: g * out_data * (1.0 - out_data))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return _unary(a, a.data.reshape(shape), "reshape",
                  lambda g: g.reshape(a.data.shape))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _mean(data: np.ndarray, axes: tuple[int, ...] | None,
          keepdims: bool = False):
    """``np.mean(data, axes, keepdims=keepdims)`` of a float array, bit for
    bit, without its Python wrapper: the ``np.add.reduce`` sum divided by
    the count as an ``intp``, so a float32 sum is divided at float64 and
    rounded once, as numpy divides it.  A full reduction is a numpy scalar,
    as there."""
    total = np.add.reduce(data, axis=axes, keepdims=keepdims)
    count = np.intp(data.size if axes is None else math.prod(data.shape[ax] for ax in axes))
    if isinstance(total, np.ndarray):
        return np.true_divide(total, count, out=total, casting="unsafe")
    return total.dtype.type(total / count)


def sum_all(a: Tensor) -> Tensor:
    return _unary(a, np.add.reduce(a.data, axis=None), "sum_all",
                  lambda g: np.full(a.data.shape, g, dtype=a.data.dtype))


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    return _unary(a, _mean(a.data, None), "mean_all",
                  lambda g: np.full(a.data.shape, g / n, dtype=a.data.dtype))


def _unreduce(g: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    return np.broadcast_to(np.expand_dims(g, axes), shape)


def sum_axes(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    return _unary(a, np.add.reduce(a.data, axis=axes), "sum_axes",
                  lambda g: _unreduce(g, a.data.shape, axes))


def mean_axes(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    def grad(g):
        count = math.prod(a.data.shape[ax] for ax in axes)
        return _unreduce(g / count, a.data.shape, axes)
    return _unary(a, _mean(a.data, axes), "mean_axes", grad)


# ---------------------------------------------------------------------------
# affine / convolutional layers
# ---------------------------------------------------------------------------


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    _require(x.data.ndim == 2 and w.data.ndim == 2,
             "dense: expected rank-2 input/weight, got {} / {}", x.shape, w.shape)
    _require(x.shape[1] == w.shape[0],
             "dense: inner extents disagree, input {} vs weight {}", x.shape, w.shape)
    _require(b.shape == (w.shape[1],),
             "dense: bias shape {} does not match output extent {}", b.shape, w.shape[1])
    x_data, w_data = x.data, w.data

    return _node(x_data @ w_data + b.data, (x, w, b), "dense",
                 lambda g: (g @ w_data.T if x.requires_grad else None,
                            x_data.T @ g if w.requires_grad else None,
                            g.sum(axis=0) if b.requires_grad else None))


# Bytes of im2col columns gathered per GEMM: a block this size is still in
# the core's cache when the GEMM reads it back.
_COLUMN_BLOCK_BYTES = 4 << 20


def _images_per_block(per_image: int, itemsize: int) -> int:
    """Images per block when each image has ``per_image`` column elements."""
    return max(1, _COLUMN_BLOCK_BYTES // (per_image * itemsize))


def _leading(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading elements of the 1-d array ``flat`` as an array of ``shape``."""
    return flat[:math.prod(shape)].reshape(shape)


def _columns(xp: np.ndarray, k: int, h_out: int, w_out: int, out: np.ndarray,
             image_major: bool = False) -> np.ndarray:
    """im2col columns of a block of padded NCHW images as a
    [C_in * K * K, nb * Ho * Wo] matrix, rows in (C_in, K, K) order, written
    into the leading elements of the 1-d array ``out``; ``image_major``
    writes them as nb matrices of [C_in * K * K, Ho * Wo], one per image.

    One copy from a strided view of ``xp``, which must be C-contiguous, that
    reads element (c, i, j, n, y, x), or (n, c, i, j, y, x) when
    ``image_major``, at ``xp[n, c, i + y, j + x]``; its inner runs lie along
    W, and no window is copied on its own.
    (``np.ndarray`` over ``xp``'s buffer makes the view in a tenth of
    ``as_strided``'s time, and checks that it stays inside the buffer.)
    """
    nb, c_in = xp.shape[:2]
    s_n, s_c, s_h, s_w = xp.strides
    if image_major:
        shape, strides = (nb, c_in, k, k, h_out, w_out), (s_n, s_c, s_h, s_w, s_h, s_w)
    else:
        shape, strides = (c_in, k, k, nb, h_out, w_out), (s_c, s_h, s_w, s_n, s_h, s_w)
    cols = _leading(out, shape)
    np.copyto(cols, np.ndarray(shape, xp.dtype, xp, 0, strides))
    if image_major:
        return cols.reshape(nb, c_in * k * k, h_out * w_out)
    return cols.reshape(c_in * k * k, nb * h_out * w_out)


_pool_width: int | None = None  # W; decided by the first _block_pool call
_pool: ThreadPoolExecutor | None = None


def _single_threaded_blas() -> int:
    """Set OpenBLAS to one thread and return the count it had; 1 where
    ``openblas_set_num_threads_local`` is missing (another BLAS, an older
    OpenBLAS).  The setting holds for the whole process, whichever thread
    makes the call, so it is made once."""
    try:
        # numpy's extension modules load OpenBLAS privately; a handle on one
        # of them resolves the library's symbols
        set_threads = ctypes.CDLL(
            np.linalg._umath_linalg.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError, TypeError):  # no such library or symbol
        return 1
    set_threads.argtypes = (ctypes.c_int,)
    set_threads.restype = ctypes.c_int
    return max(1, set_threads(1))


def _block_pool() -> ThreadPoolExecutor | None:
    """The pool of ``_pool_width`` workers, or None when W = 1 (see the
    module docstring)."""
    global _pool_width, _pool
    if _pool_width is None:
        _pool_width = _single_threaded_blas()
    if _pool is None and _pool_width > 1:
        # imported here: the module costs about 1 MB of resident memory,
        # which a process that never makes a pool does not pay
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(_pool_width, thread_name_prefix="hebblab-blocks")
    return _pool


def _forget_pool() -> None:
    """Run in a forked child, which has none of its parent's threads."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _map_blocks(src: np.ndarray, col_elems: int, row_elems: int,
                frame: tuple[int, ...], inner: tuple[slice, ...],
                body: Callable[[int, np.ndarray, np.ndarray, np.ndarray], object]):
    """Yield ``body(i, block, cols, rows)`` for each block of ``src`` (first
    axis), in block order.

    A block holds ``_images_per_block(col_elems, src.itemsize)`` images and
    starts at image ``i``; ``block`` is those images written at ``inner``
    into a zero frame of per-image shape ``frame``.  ``cols`` and ``rows``
    are 1-d scratch arrays of ``col_elems`` and ``row_elems`` elements per
    image of a block, which ``body`` may overwrite.  A frame and its scratch
    arrays serve one block after another, so the frame's zeros are written
    once.

    With a pool of W workers, worker w runs blocks w, w + W, ... in turn,
    each in a frame and scratch arrays of its own.  Once every worker has
    finished, their results are yielded in block order, or the first
    failed worker's exception is raised.  A single block, or W = 1, runs
    inline, one block per result.
    """
    n = len(src)
    step = _images_per_block(col_elems, src.itemsize)
    n_blocks = -(-n // step)
    pool = _block_pool() if n_blocks > 1 else None
    width = 1 if pool is None else min(_pool_width, n_blocks)
    # Every array a worker needs is made here, in worker order, and the
    # workers allocate only their results.  Arrays that workers allocated
    # themselves, in whatever order their threads ran, would leave the heap
    # laid out differently from step to step, so that now and then it would
    # grow and fault in new pages.
    images = min(step, n)
    scratch = [(np.zeros((images, *frame), dtype=src.dtype),
                np.empty(images * col_elems, dtype=src.dtype),
                np.empty(images * row_elems, dtype=src.dtype)) for _ in range(width)]

    def blocks(worker):
        buf, cols, rows = scratch[worker]
        for i in range(worker * step, n, width * step):
            block = buf[:min(step, n - i)]
            block[(slice(None), *inner)] = src[i:i + step]
            yield body(i, block, cols, rows)

    if pool is None:
        yield from blocks(0)
        return
    from concurrent.futures import wait
    workers = [pool.submit(list, blocks(worker)) for worker in range(width)]
    wait(workers)
    results = [worker.result() for worker in workers]
    for j in range(n_blocks):
        yield results[j % width][j // width]


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, *, padding: int = 0,
           relu: bool = False) -> Tensor:
    """Cross-correlation at stride 1 of [N, C_in, H, W] with [C_out, C_in, K,
    K] filters, zero-padded by ``padding``.

    im2col, a block of images at a time: the forward and the weight gradient
    zero-pad each block into a reused NCHW buffer (``_map_blocks``) and
    build (C_in, K, K)-ordered columns from it by one copy from a strided
    view (``_columns``).  The backward closure keeps the input itself, not a
    padded copy.  The forward gathers the columns image by image, [nb,
    C_in * K * K, Ho * Wo], and runs one stacked GEMM, ``W @ cols`` with W
    as [C_out, C_in * K * K], whose nb products are written straight into
    the block's slice of the NCHW output; the bias is added to that slice in
    place.  Each output value is then one GEMM's reduction over one image's
    window, so no forward value depends on how the images are cut into
    blocks or on the pool's width.  On every backbone shape this is bit for
    bit the ``np.tensordot`` contraction over NCHW windows, but that is a
    property of the BLAS kernels, not of the formula: at (N, C_in, H,
    C_out) = (3, 5, 7, 6), K = 3, padding 2, a few outputs differ from it by
    one rounding (2.6e-8 of the largest output at float32, 2.5e-17 at
    float64).  The weight gradient sums ``cols @ g`` over the blocks, with
    the columns of a block side by side, [C_in * K * K, nb * Ho * Wo].  The
    input gradient is the full correlation of the output gradient with the
    flipped kernel, gathered in NHWC (the only NHWC arrays here), so no K x
    K scatter is needed; it too runs a block of images at a time.  No
    whole-batch array is made besides the output and the input gradient.  A
    GEMM reduces each output element in an order that does not depend on
    its row count, so the blocks change no input gradient either (the tests
    pin this).  ``b=None`` adds no bias.

    ``relu=True`` is ``relu(conv2d(...))`` bit for bit, in the output and in
    all three gradients, as one op: each forward block clamps its own slice
    of the output in place after the bias, so no pre-activation is made and
    no separate ReLU node is recorded.  The backward needs no mask of its
    own, since ``out > 0`` equals ``pre > 0`` (NaN and ±0 give False either
    way).  Each weight-gradient block multiplies its slice of ``g`` by that
    mask in place before it reads it, so the bias and input gradients that
    follow read the masked ``g``; this relies on the closure owning ``g``
    (``Tensor.backward``).  Without a weight gradient the calling thread
    masks all of ``g`` in place first.

    Each of the three block loops runs on the worker pool, worker w taking
    blocks w, w + W, ... (``_map_blocks``, module docstring).  The block
    partition does not depend on the pool: forward and input-gradient
    blocks write disjoint slices of their output, and the calling thread
    adds the weight-gradient parts in block order, so every value is the
    same for any W.
    """
    _require(x.data.ndim == 4, "conv2d: expected rank-4 input, got {}", x.shape)
    _require(w.data.ndim == 4, "conv2d: expected rank-4 weight, got {}", w.shape)
    n, c_in, h, wdt = x.data.shape
    c_out, wc_in, k, k2 = w.data.shape
    _require(k == k2 and k >= 1, "conv2d: kernel must be square and K >= 1, got {}", w.shape)
    _require(padding >= 0, "conv2d: padding must be >= 0, got {}", padding)
    _require(wc_in == c_in, "conv2d: input has {} channels but weight expects {}",
             c_in, wc_in)
    _require(b is None or b.shape == (c_out,),
             "conv2d: bias shape {} does not match {} output channels",
             None if b is None else b.shape, c_out)
    h_out, w_out = h + 2 * padding - k + 1, wdt + 2 * padding - k + 1
    _require(h_out >= 1 and w_out >= 1,
             "conv2d: kernel {} exceeds input {} padded by {}", w.shape, x.shape, padding)
    x_data, w_data = x.data, w.data
    # the blocks of the forward and the weight gradient: the input,
    # zero-padded, with room for its columns; the weight gradient's blocks
    # also have room for one [Ho * Wo, C_out] matrix of g per image
    padded = ((c_in, h + 2 * padding, wdt + 2 * padding),
              (slice(None), slice(padding, padding + h), slice(padding, padding + wdt)))
    col_elems = c_in * k * k * h_out * w_out

    w_rows = w_data.reshape(c_out, -1)
    out_data = np.empty((n, c_out, h_out, w_out), dtype=x_data.dtype)

    def forward_block(i, xp, cols, _rows):
        dst = out_data[i:i + len(xp)]
        np.matmul(w_rows, _columns(xp, k, h_out, w_out, cols, True),
                  out=dst.reshape(len(xp), c_out, h_out * w_out))
        if b is not None:
            dst += b.data[:, None, None]
        if relu:
            np.maximum(dst, 0, out=dst)

    for _ in _map_blocks(x_data, col_elems, 0, *padded, forward_block):
        pass

    def bwd(g):
        # g is this closure's own array (see Tensor.backward), so the
        # ReLU mask is applied to it in place
        if relu and not w.requires_grad:
            np.multiply(g, out_data > 0, out=g)
        g_nhwc = g.transpose(0, 2, 3, 1)
        dx = dw = db = None
        if w.requires_grad:
            def dw_part(i, xp, cols, rows):
                if relu:
                    g_block = g[i:i + len(xp)]
                    np.multiply(g_block, out_data[i:i + len(xp)] > 0, out=g_block)
                g_rows = _leading(rows, (len(xp), h_out, w_out, c_out))
                np.copyto(g_rows, g_nhwc[i:i + len(xp)])
                return _columns(xp, k, h_out, w_out, cols) @ g_rows.reshape(-1, c_out)

            # summed over the blocks in block order, as [C_in * K * K,
            # C_out]: that GEMM layout runs faster than its transpose
            dw = sum(_map_blocks(x_data, col_elems, h_out * w_out * c_out, *padded,
                                 dw_part),
                     np.zeros((c_in * k * k, c_out), dtype=g.dtype))
            dw = np.ascontiguousarray(dw.T).reshape(w_data.shape)
        if b is not None and b.requires_grad:
            db = g.sum(axis=(0, 2, 3))
        if x.requires_grad:
            # dx is the full correlation of the gradient with the flipped
            # kernel.  gd is g padded by K - 1, so it holds output o at
            # (K-1) + o in padded-input coordinates, and the window
            # starting at y covers every output that read input row y;
            # only windows starting inside the unpadded input are gathered.
            w_flip = w_data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c_in)
            framed = (h_out + 2 * k - 2, w_out + 2 * k - 2, c_out)
            at_outputs = (slice(k - 1, k - 1 + h_out), slice(k - 1, k - 1 + w_out))
            dx = np.empty((n, c_in, h, wdt), dtype=g.dtype)

            def dx_block(i, gd, cols, rows):
                # the K x K windows starting at each padded-input pixel,
                # as two trailing axes
                win = np.lib.stride_tricks.sliding_window_view(
                    gd, (k, k), axis=(1, 2))[:, padding:padding + h, padding:padding + wdt]
                win_rows = _leading(cols, (len(gd), h, wdt, k, k, c_out))
                np.copyto(win_rows, win.transpose(0, 1, 2, 4, 5, 3))
                rows = np.matmul(win_rows.reshape(-1, k * k * c_out), w_flip,
                                 out=_leading(rows, (len(gd) * h * wdt, c_in)))
                dx[i:i + len(gd)] = rows.reshape(-1, h, wdt, c_in).transpose(0, 3, 1, 2)

            for _ in _map_blocks(g_nhwc, h * wdt * k * k * c_out, h * wdt * c_in,
                                 framed, at_outputs, dx_block):
                pass
        return (dx, dw) if b is None else (dx, dw, db)
    return _node(out_data, (x, w) if b is None else (x, w, b), "conv2d", bwd)


def max_pool2d(x: Tensor) -> Tensor:
    """Max over 2x2 windows at stride 2; NaN propagates.

    The forward is a running ``np.maximum`` over the four offset views
    ``x[..., i::2, j::2]``, so no window is copied and no index is kept.
    The backward gives each window's gradient to its first maximum in
    row-major order; a window whose maximum is NaN passes none.
    """
    _require(x.data.ndim == 4, "max_pool2d: expected rank-4 input, got {}", x.shape)
    n, c, h, w = x.data.shape
    _require(h % 2 == 0 and w % 2 == 0 and h >= 2 and w >= 2,
             "max_pool2d: H and W must be even and at least 2, got {}", x.shape)
    offsets = ((0, 0), (0, 1), (1, 0), (1, 1))
    x_data = x.data
    out_data = x_data[..., ::2, ::2].copy()
    for i, j in offsets[1:]:
        # on a tie np.maximum returns its second operand, so the earlier
        # offset keeps its bits (+0.0 against -0.0)
        np.maximum(x_data[..., i::2, j::2], out_data, out=out_data)

    def bwd(g):
        # the windows tile the input, so the offsets write all of gx
        gx = np.empty((n, c, h, w), dtype=g.dtype)
        # an offset takes the windows where it holds the maximum and no
        # earlier offset did: ``free`` marks the windows not yet taken,
        # and a hit lies inside it, so xor removes it
        free = np.ones(out_data.shape, dtype=bool)
        hit = np.empty_like(free)
        for i, j in offsets:
            np.equal(x_data[..., i::2, j::2], out_data, out=hit)
            hit &= free
            free ^= hit
            np.multiply(g, hit, out=gx[..., i::2, j::2])
        return (gx,)
    return _node(out_data, (x,), "max_pool2d", bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """[N, C, H, W] -> [N, C] spatial mean."""
    _require(x.data.ndim == 4, "global_avg_pool: expected rank-4 input, got {}", x.shape)
    return mean_axes(x, (2, 3))


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class BatchNormStats:
    """Running mean/variance of one batch-norm layer (not graph parameters)."""

    __slots__ = ("running_mean", "running_var")

    def __init__(self, channels: int, dtype=None):
        dtype = dtype or _default_dtype
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        return self.running_mean.copy(), self.running_var.copy()

    def restore(self, snap: tuple[np.ndarray, np.ndarray]) -> None:
        self.running_mean = snap[0].copy()
        self.running_var = snap[1].copy()


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor, stats: BatchNormStats,
                 training: bool) -> Tensor:
    """Per-channel batch norm over (N, H, W); biased variance throughout.

    Training mode updates the running statistics in place with EMA momentum
    ``BN_MOMENTUM`` and requires N >= 2.  Its statistics are ``np.mean`` and
    ``np.var`` bit for bit, with the mean taken once: the centred array
    ``np.var`` squares is also the one scaled in place into x-hat.  Without
    a graph x-hat is not kept, so gamma and beta are applied to it in place
    and it becomes the output.
    """
    _require(x.data.ndim == 4, "batch_norm2d: expected rank-4 input, got {}", x.shape)
    n, c, h, w = x.data.shape
    _require(gamma.shape == (c,) and beta.shape == (c,),
             "batch_norm2d: gamma/beta must have shape ({},)", c)
    # checked before training mode writes to them
    _require(stats.running_mean.shape == stats.running_var.shape == (c,),
             "batch_norm2d: running mean/var have shapes {} / {}, input has {} channels",
             stats.running_mean.shape, stats.running_var.shape, c)
    axes, per_channel = (0, 2, 3), (1, c, 1, 1)
    if training:
        if n < 2:
            raise ValueError("batch_norm2d: training mode requires a batch of N >= 2")
        mean = _mean(x.data, axes, keepdims=True)
        xhat = x.data - mean
        var = _mean(xhat * xhat, axes, keepdims=True)
        m = BN_MOMENTUM
        stats.running_mean *= 1.0 - m
        stats.running_mean += m * mean.reshape(c).astype(stats.running_mean.dtype)
        stats.running_var *= 1.0 - m
        stats.running_var += m * var.reshape(c).astype(stats.running_var.dtype)
    else:
        xhat = x.data - stats.running_mean.astype(x.data.dtype).reshape(per_channel)
        var = stats.running_var.astype(x.data.dtype).reshape(per_channel)

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std
    parents = (x, gamma, beta)
    keep = _records(parents)
    out_data = np.multiply(xhat, gamma.data.reshape(per_channel), out=None if keep else xhat)
    out_data += beta.data.reshape(per_channel)
    gamma_data = gamma.data
    count = n * h * w

    def bwd(g):
        gsum = g.sum(axis=(0, 2, 3))
        gx_sum = (g * xhat).sum(axis=(0, 2, 3))
        gx = None
        if x.requires_grad:
            coeff = gamma_data.reshape(1, c, 1, 1) * inv_std
            if training:
                gx = coeff * (g - gsum[None, :, None, None] / count
                              - xhat * gx_sum[None, :, None, None] / count)
            else:
                gx = coeff * g
        return gx, gx_sum, gsum
    return _node(out_data, parents, "batch_norm2d", bwd)


# ---------------------------------------------------------------------------
# classification head helpers
# ---------------------------------------------------------------------------


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-softmax of [N, K] logits, stabilized by max subtraction."""
    _require(logits.data.ndim == 2, "log_softmax: expected rank-2 input, got {}", logits.shape)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    out_data = z - lse
    # Made in the forward, not the backward (same values): made in the
    # backward, among the arrays it frees, it raised p1_vgg32's peak RSS
    # from 133 MB to 143-157 MB in more checkout directories (heap layout).
    softmax = np.exp(out_data) if _records((logits,)) else None
    return _unary(logits, out_data, "log_softmax",
                  lambda g: g - softmax * g.sum(axis=1, keepdims=True))


def pick(a: Tensor, indices: np.ndarray) -> Tensor:
    """Select a[i, indices[i]] for each row i of an [N, K] tensor."""
    _require(a.data.ndim == 2, "pick: expected rank-2 input, got {}", a.shape)
    n, k = a.data.shape
    idx = np.asarray(indices)
    _require(idx.shape == (n,), "pick: expected {} indices, got shape {}", n, idx.shape)
    _require(idx.dtype.kind in "iu", "pick: indices must be integers, got dtype {}", idx.dtype)
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise ValueError(f"pick: index out of range [0, {k})")
    rows = np.arange(n)

    def grad(g):
        ga = np.zeros_like(a.data)
        ga[rows, idx] = g
        return ga
    return _unary(a, a.data[rows, idx], "pick", grad)


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def check_gradients(f: Callable[[], Tensor], params: Iterable[Tensor],
                    eps: float | Sequence[float] = 1e-5,
                    max_elements_per_param: int | None = None,
                    seed: int = 0) -> float:
    """Compare reverse-mode gradients of ``f()`` against central differences.

    ``f`` must rebuild the forward graph on every call and return a scalar;
    its output is perturbed through the ``params`` leaf tensors in place.
    Only the first call is differentiated; the probe calls run under
    ``no_grad``.
    Returns the maximum relative error max |a - n| / max(|a|, |n|, 1e-8).

    ``eps`` may be a sequence of step sizes: each element then only needs to
    match at one of them (central differences have a per-magnitude validity
    window; a large step can straddle a relu kink while a small one drowns
    tiny gradients in rounding noise).  A genuinely wrong gradient mismatches
    at every step.  A NaN error, from a NaN gradient or objective, matches at
    no step, so an element with no finite error at any step counts as inf.
    When ``max_elements_per_param`` is set, a deterministic subsample of
    elements is probed per parameter tensor.  A check that would probe
    nothing, or divide by a zero or non-finite step, raises ``ValueError``.
    """
    eps_values = tuple(map(float, [eps] if isinstance(eps, numbers.Real) else eps))
    if max_elements_per_param is not None and max_elements_per_param < 1:
        raise ValueError(f"check_gradients: max_elements_per_param must be >= 1, "
                         f"got {max_elements_per_param}")
    if not eps_values or 0.0 in eps_values or not all(map(math.isfinite, eps_values)):
        raise ValueError(f"check_gradients: eps must be nonzero finite steps, got {eps!r}")
    params = list(params)
    out = f()
    if out.data.size != 1:
        raise ValueError("check_gradients: f() must return a scalar output")
    for p in params:
        p.grad = None
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    rng = np.random.default_rng(seed)
    max_err = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        n = flat.size
        if max_elements_per_param is not None and n > max_elements_per_param:
            probe = np.sort(rng.choice(n, size=max_elements_per_param, replace=False))
        else:
            probe = np.arange(n)
        for i in probe:
            orig = flat[i]
            err = math.inf
            for step in eps_values:
                with no_grad():
                    flat[i] = orig + step
                    f_plus = float(f().data)
                    flat[i] = orig - step
                    f_minus = float(f().data)
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * step)
                this = abs(float(gflat[i]) - numeric) / max(abs(float(gflat[i])),
                                                            abs(numeric), 1e-8)
                err = min(err, this)  # a NaN ``this`` is never less, so never kept
                if err < 1e-7:
                    break
            flat[i] = orig
            max_err = max(max_err, err)
    return max_err
