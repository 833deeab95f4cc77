"""Reverse-mode automatic differentiation on numpy arrays.

The graph is implicit: every operation returns a new :class:`Tensor` that
holds references to its parent tensors plus a closure mapping the output
gradient to parent-gradient contributions.  ``Tensor.backward`` walks the
graph once in reverse topological order (parent order is fixed at op
construction, so the visit order is deterministic) and accumulates into
``.grad``.

Precision is a run-level switch (`set_default_dtype` / the `default_dtype`
context manager), not a per-tensor property, so a graph stays homogeneous.
Gradient verification always runs at 64 bit.

Inside a ``with no_grad():`` block ops record no graph: every output has
``requires_grad == False`` and no parents, so nothing a backward pass would
need (masks, closures, kept inputs) outlives the op.  Eval-mode forwards
run this way.

Layout: every op takes and returns NCHW arrays, and works on them in NCHW.
``conv2d`` zero-pads a block of images at a time into one reused buffer and
builds im2col columns from it by strided slab copies; only its input
gradient gathers in NHWC, from the dilated output gradient, also a block at
a time.  Its forward matches the ``np.tensordot`` contraction bit for bit on
every backbone shape, but not on every shape (see ``conv2d``).

Memory: ``Tensor.backward`` releases each interior node once its closure has
run, dropping the node's gradient, its parents and its closure with what the
closure kept (masks, inputs).  So an interior gradient lives only until the
ops that read it have passed it on, and an activation only until the last
closure that kept it has run, unless the caller holds it.  Leaves keep their
``.grad``; a second backward through a released graph raises.

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
W is the BLAS thread count: the first loop with more than one block sets
OpenBLAS to one thread and takes the count it had as W, then makes the pool
(``_block_pool``).  From then on every GEMM in the process runs on one BLAS
thread, so the W workers and BLAS do not compete for the same cores.  W = 1
(``OPENBLAS_NUM_THREADS=1``, say), or a BLAS without OpenBLAS's
``openblas_set_num_threads_local``, means no pool: the blocks run inline and
BLAS is left as it is.  A loop with one block always runs inline, and so
does one whose blocks of one image already exceed the column budget.  The
calling thread makes every worker's zero frame and scratch arrays, in worker
order, so the heap's layout does not depend on how the threads interleave
and a warmed step still takes no page faults.  A forked child makes a new
pool of the same width on first use.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import numbers
import os
import threading
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
# a conv1 or conv2 output of a batch-256 eval (32 MiB), which glibc maps even
# at the 32 MiB ceiling of its dynamic mmap threshold.
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


def set_default_dtype(name: str) -> None:
    """Set the run-level precision: "float32" (training) or "float64"."""
    global _default_dtype
    if name not in _DTYPES:
        raise ValueError(f"unsupported dtype {name!r}; choose from {sorted(_DTYPES)}")
    _default_dtype = _DTYPES[name]


def get_default_dtype() -> np.dtype:
    return np.dtype(_default_dtype)


@contextlib.contextmanager
def default_dtype(name: str):
    """Temporarily switch the run-level precision."""
    global _default_dtype
    saved = _default_dtype
    set_default_dtype(name)
    try:
        yield
    finally:
        _default_dtype = saved


def set_debug_checks(enabled: bool) -> None:
    """When enabled, every primitive asserts its forward output is finite."""
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


def _checked(data: np.ndarray, op: str) -> np.ndarray:
    if _debug_checks and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by {op}")
    return data


class Tensor:
    """A numpy array plus an optional position in the differentiation graph.

    Leaf tensors are created directly (``Tensor(data, requires_grad=True)``
    for parameters); interior nodes are created by the ops in this module.
    Tensors are treated as immutable once produced; the only in-place
    mutations are gradient accumulation and the release of interior nodes
    during ``backward``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_default_dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from a scalar output through the recorded graph.

        Leaves accumulate into ``.grad`` and keep it.  Every interior node,
        this one included, is released as soon as its closure has run: its
        ``.grad``, its parents and its closure (with the masks and inputs
        the closure kept) are dropped, so a gradient lives only until the
        ops that read it have passed it on.  A second ``backward()`` through
        a released node raises ``RuntimeError``; build the forward again.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar output, got shape {self.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while order:
            # popped, so a released node is freed once nothing else holds it
            node = order.pop()
            closure, grad = node._backward, node.grad
            if closure is None:
                continue
            node.grad, node._parents, node._backward = None, (), _released
            closure(grad)

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


def _node(data: np.ndarray, parents: Sequence[Tensor]) -> Tensor:
    out = object.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    # Constant subgraphs are pruned, and no_grad prunes everything, so
    # eval-mode forwards build no graph.
    out._parents = tuple(parents) if out.requires_grad else ()
    out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``t.grad``.

    ``owned`` says the closure has just allocated ``g`` and holds no other
    reference to it, so the first accumulation may keep it as ``t.grad``.
    Any other array is copied first: closures pass their output gradient
    through (``add`` hands the same array to both parents) or pass views
    of it (``reshape``, broadcasts), which a later ``+=`` must not write.
    A numpy scalar or an array of another dtype is converted either way.
    """
    if t.grad is None:
        keep = owned and isinstance(g, np.ndarray) and g.dtype == t.data.dtype
        t.grad = g if keep else np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    _require(a.shape == b.shape, f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# elementwise and scalar ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = _node(_checked(a.data + b.data, "add"), (a, b))
    if out.requires_grad:
        def bwd(g):
            if a.requires_grad:
                _accum(a, g)
            if b.requires_grad:
                _accum(b, g)
        out._backward = bwd
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = _node(_checked(a.data - b.data, "sub"), (a, b))
    if out.requires_grad:
        def bwd(g):
            if a.requires_grad:
                _accum(a, g)
            if b.requires_grad:
                _accum(b, -g, owned=True)
        out._backward = bwd
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    out = _node(_checked(a.data * b.data, "mul"), (a, b))
    if out.requires_grad:
        a_data, b_data = a.data, b.data
        def bwd(g):
            if a.requires_grad:
                _accum(a, g * b_data, owned=True)
            if b.requires_grad:
                _accum(b, g * a_data, owned=True)
        out._backward = bwd
    return out


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = _node(_checked(a.data * s, "scale"), (a,))
    if out.requires_grad:
        def bwd(g):
            _accum(a, g * s, owned=True)
        out._backward = bwd
    return out


def shift(a: Tensor, c: float) -> Tensor:
    out = _node(_checked(a.data + float(c), "shift"), (a,))
    if out.requires_grad:
        def bwd(g):
            _accum(a, g)
        out._backward = bwd
    return out


def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """a + c for a non-differentiable constant array of the same shape."""
    _require(a.shape == np.shape(c), f"add_const: shape mismatch {a.shape} vs {np.shape(c)}")
    out = _node(_checked(a.data + c, "add_const"), (a,))
    if out.requires_grad:
        def bwd(g):
            _accum(a, g)
        out._backward = bwd
    return out


def mul_const(a: Tensor, c: np.ndarray) -> Tensor:
    """a * c elementwise for a non-differentiable constant array."""
    _require(a.shape == np.shape(c), f"mul_const: shape mismatch {a.shape} vs {np.shape(c)}")
    out = _node(_checked(a.data * c, "mul_const"), (a,))
    if out.requires_grad:
        def bwd(g):
            _accum(a, g * c, owned=True)
        out._backward = bwd
    return out


def square(a: Tensor) -> Tensor:
    out = _node(_checked(a.data * a.data, "square"), (a,))
    if out.requires_grad:
        a_data = a.data
        def bwd(g):
            _accum(a, 2.0 * a_data * g, owned=True)
        out._backward = bwd
    return out


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        root = np.sqrt(a.data)
    out = _node(_checked(root, "sqrt"), (a,))
    if out.requires_grad:
        def bwd(g):
            # Subgradient 0 at the origin, mirroring the relu convention.
            denom = 2.0 * root
            ga = np.divide(g, denom, out=np.zeros_like(g), where=denom > 0)
            _accum(a, ga, owned=True)
        out._backward = bwd
    return out


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)
    out = _node(_checked(out_data, "relu"), (a,))
    if out.requires_grad:
        mask = a.data > 0  # subgradient at exactly 0 is 0
        def bwd(g):
            _accum(a, g * mask, owned=True)
        out._backward = bwd
    return out


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)
    out = _node(_checked(out_data, "sigmoid"), (a,))
    if out.requires_grad:
        def bwd(g):
            _accum(a, g * out_data * (1.0 - out_data), owned=True)
        out._backward = bwd
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = _node(a.data.reshape(shape), (a,))
    if out.requires_grad:
        def bwd(g):
            _accum(a, g.reshape(a.data.shape))
        out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    out = _node(_checked(np.sum(a.data), "sum_all"), (a,))
    if out.requires_grad:
        def bwd(g):
            _accum(a, np.full(a.data.shape, g, dtype=a.data.dtype), owned=True)
        out._backward = bwd
    return out


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = _node(_checked(np.mean(a.data), "mean_all"), (a,))
    if out.requires_grad:
        def bwd(g):
            _accum(a, np.full(a.data.shape, g / n, dtype=a.data.dtype), owned=True)
        out._backward = bwd
    return out


def _unreduce(g: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    return np.broadcast_to(np.expand_dims(g, axes), shape)


def sum_axes(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = _node(_checked(np.sum(a.data, axis=axes), "sum_axes"), (a,))
    if out.requires_grad:
        def bwd(g):
            _accum(a, _unreduce(g, a.data.shape, axes))
        out._backward = bwd
    return out


def mean_axes(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    count = int(np.prod([a.data.shape[ax] for ax in axes]))
    out = _node(_checked(np.mean(a.data, axis=axes), "mean_axes"), (a,))
    if out.requires_grad:
        def bwd(g):
            _accum(a, _unreduce(g / count, a.data.shape, axes))
        out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# affine / convolutional layers
# ---------------------------------------------------------------------------


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    _require(x.data.ndim == 2 and w.data.ndim == 2,
             f"dense: expected rank-2 input/weight, got {x.shape} / {w.shape}")
    _require(x.shape[1] == w.shape[0],
             f"dense: inner extents disagree, input {x.shape} vs weight {w.shape}")
    _require(b.shape == (w.shape[1],),
             f"dense: bias shape {b.shape} does not match output extent {w.shape[1]}")
    out = _node(_checked(x.data @ w.data + b.data, "dense"), (x, w, b))
    if out.requires_grad:
        x_data, w_data = x.data, w.data
        def bwd(g):
            if x.requires_grad:
                _accum(x, g @ w_data.T, owned=True)
            if w.requires_grad:
                _accum(w, x_data.T @ g, owned=True)
            if b.requires_grad:
                _accum(b, g.sum(axis=0), owned=True)
        out._backward = bwd
    return out


def _windows(a: np.ndarray, k: int, stride: int, axes: tuple[int, int]) -> np.ndarray:
    """Strided view of the K x K windows over ``axes``: the window-start axes
    stay in place and two trailing [K, K] axes are appended."""
    win = np.lib.stride_tricks.sliding_window_view(a, (k, k), axis=axes)
    index = [slice(None)] * a.ndim
    index[axes[0]] = index[axes[1]] = slice(None, None, stride)
    return win[tuple(index)]


def _offset_view(a: np.ndarray, i: int, j: int, stride: int, h_out: int,
                 w_out: int) -> np.ndarray:
    """The [..., Ho, Wo] view of ``a`` holding, for every window, the element
    at offset (i, j) inside it."""
    return a[..., i:i + stride * (h_out - 1) + 1:stride,
             j:j + stride * (w_out - 1) + 1:stride]


# Bytes of im2col columns gathered per GEMM: a block this size is still in
# the core's cache when the GEMM reads it back.
_COLUMN_BLOCK_BYTES = 4 << 20


def _images_per_block(per_image: int, itemsize: int) -> int:
    """Images per block when each image has ``per_image`` column elements."""
    return max(1, _COLUMN_BLOCK_BYTES // (per_image * itemsize))


def _leading(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading elements of the 1-d array ``flat`` as an array of ``shape``."""
    return flat[:math.prod(shape)].reshape(shape)


def _columns(xp: np.ndarray, k: int, stride: int, h_out: int, w_out: int,
             out: np.ndarray) -> np.ndarray:
    """im2col columns of a block of padded NCHW images as a
    [C_in * K * K, nb * Ho * Wo] matrix, rows in (C_in, K, K) order, written
    into the leading elements of the 1-d array ``out``.

    Each of the K * K offsets is one strided slab copy whose inner runs lie
    along W; no window is copied on its own.
    """
    nb, c_in = xp.shape[:2]
    cols = _leading(out, (c_in, k, k, nb, h_out, w_out))
    by_channel = xp.transpose(1, 0, 2, 3)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = _offset_view(by_channel, i, j, stride, h_out, w_out)
    return cols.reshape(c_in * k * k, nb * h_out * w_out)


def _framed_blocks(src: np.ndarray, step: int, buf: np.ndarray, inner: tuple[slice, ...],
                   first: int = 0, every: int = 1):
    """Yield ``(i, block)`` for blocks ``first``, ``first + every``, ... of
    ``step`` images of ``src`` (first axis), block ``i // step`` starting at
    image ``i``: the images written at ``inner`` into ``buf``, a zero frame
    of ``min(step, len(src))`` images.

    Every block is ``buf``, so its zeros are written once and a consumer
    must be done with one block before it takes the next.
    """
    n = len(src)
    for i in range(first * step, n, every * step):
        block = buf[:min(step, n - i)]
        block[(slice(None), *inner)] = src[i:i + step]
        yield i, block


_pool_width: int | None = None  # W; decided by the first _block_pool call
_pool: ThreadPoolExecutor | None = None
# Results a worker may queue ahead of the caller, so at most W * (1 + this)
# weight-gradient parts exist at once
_AHEAD = 1


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
    """Yield ``body(i, block, cols, rows)`` for each ``(i, block)`` of
    ``_framed_blocks`` over ``src``, in block order.

    A block holds ``_images_per_block(col_elems, src.itemsize)`` images,
    framed in a zero buffer of per-image shape ``frame``.  ``cols`` and
    ``rows`` are 1-d scratch arrays of ``col_elems`` and ``row_elems``
    elements per image of a block, which ``body`` may overwrite.

    With a pool of W workers, block j runs on worker j mod W, which has a
    frame and scratch arrays of its own, and a worker queues at most
    ``_AHEAD`` results before the caller takes them.  An exception in a
    worker is raised here, at that worker's block, once the other workers
    have stopped.  A single block, or W = 1, runs inline.  So does a loop
    whose blocks of one image each already exceed ``_COLUMN_BLOCK_BYTES``:
    the pool holds at most W blocks within that budget at once.
    """
    step = _images_per_block(col_elems, src.itemsize)
    n_blocks = -(-len(src) // step)
    fits = col_elems * src.itemsize <= _COLUMN_BLOCK_BYTES
    pool = _block_pool() if n_blocks > 1 and fits else None
    width = 1 if pool is None else min(_pool_width, n_blocks)
    # Every array a worker needs is made here, in worker order, and the
    # workers allocate only their results.  Arrays that workers allocated
    # themselves, in whatever order their threads ran, would leave the heap
    # laid out differently from step to step, so that now and then it would
    # grow and fault in new pages.
    images = min(step, len(src))
    scratch = [(np.zeros((images, *frame), dtype=src.dtype),
                np.empty(images * col_elems, dtype=src.dtype),
                np.empty(images * row_elems, dtype=src.dtype)) for _ in range(width)]
    if pool is None:
        buf, cols, rows = scratch[0]
        for i, block in _framed_blocks(src, step, buf, inner):
            yield body(i, block, cols, rows)
        return
    import queue
    from concurrent.futures import wait
    results = [queue.Queue(_AHEAD) for _ in range(width)]
    stop = threading.Event()

    def work(first):
        buf, cols, rows = scratch[first]
        try:
            for i, block in _framed_blocks(src, step, buf, inner, first, width):
                if stop.is_set():
                    return
                results[first].put((body(i, block, cols, rows), None))
        except BaseException as exc:  # raised again by the caller
            results[first].put((None, exc))

    workers = [pool.submit(work, first) for first in range(width)]
    try:
        for j in range(n_blocks):
            value, exc = results[j % width].get()
            if exc is not None:
                raise exc
            yield value
    finally:
        # A worker puts at most once more after ``stop`` is set; emptying
        # its queue leaves room for that put, so no worker stays blocked.
        stop.set()
        for result in results:
            with contextlib.suppress(queue.Empty):
                while True:
                    result.get_nowait()
        wait(workers)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1,
           padding: int = 0) -> Tensor:
    """Cross-correlation of [N, C_in, H, W] with [C_out, C_in, K, K] filters.

    im2col, a block of images at a time: the forward and the weight gradient
    zero-pad each block into a reused NCHW buffer (``_framed_blocks``) and
    build (C_in, K, K)-ordered columns from it by K * K strided slab copies
    (``_columns``).  The backward closure keeps the input itself, not a
    padded copy.  The forward is ``cols.T @ w.T`` per block: the contraction
    of ``np.tensordot`` over NCHW windows, with BLAS given the transposed
    operand; each block's rows, plus the bias, go straight into the NCHW
    output.  It equals ``np.tensordot`` bit for bit on every backbone shape
    and every test shape, but that is a property of the BLAS kernels, not
    of the formula: at (N, C_in, H, C_out) = (3, 5, 7, 6), K = 3, padding
    1, most outputs differ by one rounding (up to 1.6e-7 of the largest
    output at float32, 4e-16 at float64).  The weight gradient sums
    ``cols @ g`` over the blocks.  The input gradient is the full
    correlation of the stride-dilated output gradient with the flipped
    kernel, gathered in NHWC (the only NHWC arrays here), so no K x K
    scatter is needed; it too runs a block of images at a time.  No
    whole-batch array is made besides the output and the input gradient.  A
    GEMM reduces each output element in an order that does not depend on
    its row count, so the blocks change no forward value and no input
    gradient (the tests pin this).  ``b=None`` adds no bias.

    Each of the three block loops runs on the worker pool (``_map_blocks``,
    module docstring).  The block partition does not depend on the pool:
    forward and input-gradient blocks write disjoint slices of their
    output, and the calling thread adds the weight-gradient parts in block
    order, so every value is the same for any W.
    """
    _require(x.data.ndim == 4, f"conv2d: expected rank-4 input, got {x.shape}")
    _require(w.data.ndim == 4, f"conv2d: expected rank-4 weight, got {w.shape}")
    n, c_in, h, wdt = x.data.shape
    c_out, wc_in, k, k2 = w.data.shape
    _require(k == k2 and k >= 1, f"conv2d: kernel must be square and K >= 1, got {w.shape}")
    _require(stride >= 1 and padding >= 0, "conv2d: stride must be >= 1 and padding >= 0")
    _require(wc_in == c_in,
             f"conv2d: input has {c_in} channels but weight expects {wc_in}")
    _require(b is None or b.shape == (c_out,),
             f"conv2d: bias shape {None if b is None else b.shape} does not match "
             f"{c_out} output channels")
    span_h, span_w = h + 2 * padding - k, wdt + 2 * padding - k
    if span_h < 0 or span_w < 0 or span_h % stride or span_w % stride:
        raise ValueError(
            f"conv2d: output size not a positive integer for input {x.shape}, "
            f"kernel {k}, stride {stride}, padding {padding}")
    h_out, w_out = span_h // stride + 1, span_w // stride + 1
    x_data = x.data
    # the blocks of the forward and the weight gradient: the input, zero-padded,
    # with room for its columns and for one [Ho * Wo, C_out] matrix per image
    padded = (x_data, c_in * k * k * h_out * w_out, h_out * w_out * c_out,
              (c_in, h + 2 * padding, wdt + 2 * padding),
              (slice(None), slice(padding, padding + h), slice(padding, padding + wdt)))

    w_cols = w.data.reshape(c_out, -1).T
    out_data = np.empty((n, c_out, h_out, w_out), dtype=x_data.dtype)

    def forward_block(i, xp, cols, rows):
        cols = _columns(xp, k, stride, h_out, w_out, cols)
        rows = np.matmul(cols.T, w_cols, out=_leading(rows, (cols.shape[1], c_out)))
        rows = rows.reshape(-1, h_out, w_out, c_out).transpose(0, 3, 1, 2)
        if b is None:
            out_data[i:i + len(xp)] = rows
        else:
            np.add(rows, b.data[:, None, None], out=out_data[i:i + len(xp)])

    for _ in _map_blocks(*padded, forward_block):
        pass
    parents = (x, w) if b is None else (x, w, b)
    out = _node(_checked(out_data, "conv2d"), parents)

    if out.requires_grad:
        w_data = w.data
        def bwd(g):
            g_nhwc = g.transpose(0, 2, 3, 1)
            if w.requires_grad:
                def dw_part(i, xp, cols, rows):
                    g_rows = _leading(rows, (len(xp), h_out, w_out, c_out))
                    np.copyto(g_rows, g_nhwc[i:i + len(xp)])
                    return _columns(xp, k, stride, h_out, w_out, cols) \
                        @ g_rows.reshape(-1, c_out)

                # summed over the blocks in block order, as [C_in * K * K,
                # C_out]: that GEMM layout runs faster than its transpose
                dw = sum(_map_blocks(*padded, dw_part),
                         np.zeros((c_in * k * k, c_out), dtype=g.dtype))
                _accum(w, np.ascontiguousarray(dw.T).reshape(w_data.shape), owned=True)
            if b is not None and b.requires_grad:
                _accum(b, g.sum(axis=(0, 2, 3)), owned=True)
            if x.requires_grad:
                # dx is the full correlation of the stride-dilated gradient
                # with the flipped kernel.  gd holds g at (K-1) + stride * o
                # in padded-input coordinates, so the window starting at y
                # covers every output that read input row y; only windows
                # starting inside the unpadded input are gathered.
                w_flip = w_data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c_in)
                dilated = (span_h + 2 * k - 1, span_w + 2 * k - 1, c_out)
                at_outputs = (slice(k - 1, k + span_h, stride), slice(k - 1, k + span_w, stride))
                dx = np.empty((n, c_in, h, wdt), dtype=g.dtype)

                def dx_block(i, gd, cols, rows):
                    win = _windows(gd, k, 1, (1, 2))[:, padding:padding + h,
                                                     padding:padding + wdt]
                    win_rows = _leading(cols, (len(gd), h, wdt, k, k, c_out))
                    np.copyto(win_rows, win.transpose(0, 1, 2, 4, 5, 3))
                    rows = np.matmul(win_rows.reshape(-1, k * k * c_out), w_flip,
                                     out=_leading(rows, (len(gd) * h * wdt, c_in)))
                    dx[i:i + len(gd)] = rows.reshape(-1, h, wdt, c_in).transpose(0, 3, 1, 2)

                for _ in _map_blocks(g_nhwc, h * wdt * k * k * c_out, h * wdt * c_in,
                                     dilated, at_outputs, dx_block):
                    pass
                _accum(x, dx, owned=True)
        out._backward = bwd
    return out


def max_pool2d(x: Tensor, window: int, stride: int) -> Tensor:
    """Max over [window, window] windows at ``stride``; NaN propagates.

    The forward is a running ``np.maximum`` over the window * window offset
    views, so no window is copied and no index is kept.  The backward gives
    each window's gradient to its first maximum in row-major order; a
    window whose maximum is NaN passes none.
    """
    _require(x.data.ndim == 4, f"max_pool2d: expected rank-4 input, got {x.shape}")
    n, c, h, w = x.data.shape
    _require(window >= 1 and stride >= 1, "max_pool2d: window and stride must be >= 1")
    span_h, span_w = h - window, w - window
    if span_h < 0 or span_w < 0 or span_h % stride or span_w % stride:
        raise ValueError(
            f"max_pool2d: output size not a positive integer for input {x.shape}, "
            f"window {window}, stride {stride}")
    h_out, w_out = span_h // stride + 1, span_w // stride + 1
    offsets = [(i, j) for i in range(window) for j in range(window)]

    def view(a, i, j):
        return _offset_view(a, i, j, stride, h_out, w_out)

    x_data = x.data
    out_data = view(x_data, 0, 0).copy()
    for i, j in offsets[1:]:
        # on a tie np.maximum returns its second operand, so the earlier
        # offset keeps its bits (+0.0 against -0.0)
        np.maximum(view(x_data, i, j), out_data, out=out_data)
    out = _node(_checked(out_data, "max_pool2d"), (x,))

    if out.requires_grad:
        def taken():
            """Yield each offset with the windows whose gradient it takes:
            those where it holds the maximum and no earlier offset did
            (``free`` marks the windows not yet taken; a hit lies inside
            it, so xor removes it).  Every offset gets the same buffer."""
            free = np.ones(out_data.shape, dtype=bool)
            hit = np.empty_like(free)
            for i, j in offsets:
                np.equal(view(x_data, i, j), out_data, out=hit)
                hit &= free
                free ^= hit
                yield (i, j), hit

        def bwd(g):
            # windows that tile the input cover every element of gx
            gx = (np.empty if window == stride else np.zeros)((n, c, h, w), dtype=g.dtype)
            if window <= stride:
                # disjoint windows: each input element takes at most one
                # window's gradient, from one offset
                for (i, j), hit in taken():
                    np.multiply(g, hit, out=view(gx, i, j))
            else:
                # last offset first: an input that several overlapping
                # windows feed receives their gradients in window order, as
                # np.add.at would add them
                for (i, j), hit in reversed([(o, hit.copy()) for o, hit in taken()]):
                    target = view(gx, i, j)
                    target += g * hit
            _accum(x, gx, owned=True)
        out._backward = bwd
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """[N, C, H, W] -> [N, C] spatial mean."""
    _require(x.data.ndim == 4, f"global_avg_pool: expected rank-4 input, got {x.shape}")
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
        dtype = dtype or get_default_dtype()
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
    ``BN_MOMENTUM`` and requires N >= 2.
    """
    _require(x.data.ndim == 4, f"batch_norm2d: expected rank-4 input, got {x.shape}")
    n, c, h, w = x.data.shape
    _require(gamma.shape == (c,) and beta.shape == (c,),
             f"batch_norm2d: gamma/beta must have shape ({c},)")
    if training:
        if n < 2:
            raise ValueError("batch_norm2d: training mode requires a batch of N >= 2")
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        m = BN_MOMENTUM
        stats.running_mean *= 1.0 - m
        stats.running_mean += m * mean.astype(stats.running_mean.dtype)
        stats.running_var *= 1.0 - m
        stats.running_var += m * var.astype(stats.running_var.dtype)
    else:
        mean = stats.running_mean.astype(x.data.dtype)
        var = stats.running_var.astype(x.data.dtype)

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out_data = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]
    out = _node(_checked(out_data, "batch_norm2d"), (x, gamma, beta))

    if out.requires_grad:
        gamma_data = gamma.data
        count = n * h * w
        def bwd(g):
            gsum = g.sum(axis=(0, 2, 3))
            gx_sum = (g * xhat).sum(axis=(0, 2, 3))
            if gamma.requires_grad:
                _accum(gamma, gx_sum, owned=True)
            if beta.requires_grad:
                _accum(beta, gsum, owned=True)
            if x.requires_grad:
                coeff = (gamma_data * inv_std)[None, :, None, None]
                if training:
                    gx = coeff * (g - gsum[None, :, None, None] / count
                                  - xhat * gx_sum[None, :, None, None] / count)
                else:
                    gx = coeff * g
                _accum(x, gx, owned=True)
        out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# classification head helpers
# ---------------------------------------------------------------------------


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-softmax of [N, K] logits, stabilized by max subtraction."""
    _require(logits.data.ndim == 2, f"log_softmax: expected rank-2 input, got {logits.shape}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    out_data = z - lse
    out = _node(_checked(out_data, "log_softmax"), (logits,))
    if out.requires_grad:
        softmax = np.exp(out_data)
        def bwd(g):
            _accum(logits, g - softmax * g.sum(axis=1, keepdims=True), owned=True)
        out._backward = bwd
    return out


def pick(a: Tensor, indices: np.ndarray) -> Tensor:
    """Select a[i, indices[i]] for each row i of an [N, K] tensor."""
    _require(a.data.ndim == 2, f"pick: expected rank-2 input, got {a.shape}")
    n, k = a.data.shape
    idx = np.asarray(indices)
    _require(idx.shape == (n,), f"pick: expected {n} indices, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise ValueError(f"pick: index out of range [0, {k})")
    rows = np.arange(n)
    out = _node(a.data[rows, idx], (a,))
    if out.requires_grad:
        def bwd(g):
            ga = np.zeros_like(a.data)
            ga[rows, idx] = g
            _accum(a, ga, owned=True)
        out._backward = bwd
    return out


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
    at every step.  When ``max_elements_per_param`` is set, a deterministic
    subsample of elements is probed per parameter tensor.
    """
    eps_values = tuple(map(float, [eps] if isinstance(eps, numbers.Real) else eps))
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
            err = None
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
                err = this if err is None else min(err, this)
                if err < 1e-7:
                    break
            flat[i] = orig
            max_err = max(max_err, err)
    return max_err
