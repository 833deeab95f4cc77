"""Spans around layer calls, with self time, for the traced benchmark run.

A traced run temporarily replaces the public functions of ``hebblab.data``,
``hebblab.models``, ``hebblab.losses`` and ``hebblab.tensor`` (and
``Tensor.backward``) with wrappers that record one span per call.  The
package source is not edited and ``Tracer.uninstall`` puts every original
back.  Spans stay in memory and are written once, when the run ends.

Backward time per tensor op cannot be seen from outside the package (the
backward closures run inside ``Tensor.backward``), so it is measured after
the run by replaying every recorded op signature through public calls.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

from hebblab import data, losses, models
from hebblab import tensor as T

# Op groups reported one by one; every other public tensor op is counted in
# "elementwise" (elementwise, reductions, reshapes and indexing).
OP_GROUPS = ("conv2d", "max_pool2d", "batch_norm2d", "dense", "log_softmax",
             "elementwise")
# Public tensor functions that are not graph ops.  check_gradients is timed
# by the gradcheck workload itself.
NOT_OPS = {"set_default_dtype", "get_default_dtype", "default_dtype",
           "set_debug_checks", "check_gradients"}
# Spans in the tensor layer that are not op calls.
NOT_OP_SPANS = {"tensor.backward", "tensor.check_gradients"}
REPLAY_REPS = 3
# Layers whose self time is reported.  Inside a timed unit the self time of
# "data" is data.augment_ms and that of "bench" is bench.update_ms.
SELF_LAYERS = ("models", "losses", "tensor", "gradcheck")

# Every per-layer metric with its unit.  "Per step" means per unit of the
# timed loop: one training step, or one run_gradcheck() call.
LAYER_UNITS = {
    "data.generate_s": "s", "models.build_s": "s",
    "data.augment_ms": "ms", "models.forward_train_ms": "ms",
    "models.forward_eval_ms": "ms", "losses.objective_ms": "ms",
    "tensor.backward_ms": "ms", "bench.update_ms": "ms",
    **{f"tensor.{g}.{m}": u for g in OP_GROUPS
       for m, u in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"))},
    "tensor.conv2d.gflop_s": "GFLOP/s", "tensor.calls_per_step": "count",
    "models.forward_peak_mb": "MB", "tensor.backward_peak_mb": "MB",
    "gradcheck.fd_evals": "count", "gradcheck.fd_eval_ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in SELF_LAYERS},
    "trace.residual_ms": "ms", "trace.step_ms": "ms", "trace.overhead_pct": "%",
}


def op_group(op: str) -> str:
    return op if op in OP_GROUPS else "elementwise"


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _arg_key(value):
    if isinstance(value, T.Tensor):
        return ("T", value.shape, value.data.dtype.str, value.requires_grad)
    if isinstance(value, np.ndarray):
        return ("A", value.shape, value.dtype.str)
    if isinstance(value, T.BatchNormStats):
        return ("BN", value.running_mean.shape[0])
    if value is None or isinstance(value, (bool, int, float, str, tuple)):
        return value
    return type(value).__name__


def op_key(op: str, args, kwargs) -> tuple:
    """Hashable signature of one op call: shapes, dtypes and static args."""
    return (op, tuple(_arg_key(a) for a in args),
            tuple(sorted((k, _arg_key(v)) for k, v in kwargs.items())))


def conv_flops(key: tuple) -> tuple[float, float]:
    """Forward and backward FLOPs of one conv2d call, from its shapes."""
    _, args, kwargs = key
    params = dict(kwargs)
    x, w = args[0], args[1]
    stride = args[3] if len(args) > 3 else params.get("stride", 1)
    padding = args[4] if len(args) > 4 else params.get("padding", 0)
    n, c_in, h, wdt = x[1]
    c_out, _, k, _ = w[1]
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (wdt + 2 * padding - k) // stride + 1
    fwd = 2.0 * n * c_out * h_out * w_out * c_in * k * k
    # dW needs one forward's worth of multiply-adds, dx another
    return fwd, fwd * (int(w[3]) + int(x[3]))


class Tracer:
    """Records spans ``[name, start, end, parent, op_key]`` while enabled."""

    def __init__(self, wants_trace: bool):
        self.wants_trace = wants_trace
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_depth = 0
        self._patched: list[tuple[object, str, object]] = []
        # op signatures of the objective being built, then of every graph
        # that was backpropagated, with the arguments of one call each
        self._pending: Counter = Counter()
        self._pending_args: dict = {}
        self.backwarded: Counter = Counter()
        self.replay_args: dict = {}

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def begin_objective(self) -> None:
        """Forget op calls whose graph was never backpropagated."""
        self._pending.clear()
        self._pending_args.clear()

    # -- installing wrappers ---------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap_call(self, span_name: str, fn):
        tracer = self
        forward = fn is models.forward

        @functools.wraps(fn)
        def call(*args, **kwargs):
            name = _forward_span_name(args, kwargs) if forward else span_name
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return call

    def _wrap_op(self, op: str, fn):
        tracer = self
        span_name = "tensor." + op

        @functools.wraps(fn)
        def call(*args, **kwargs):
            outer = tracer._op_depth == 0
            tracer._op_depth += 1
            idx = tracer._open(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer._op_depth -= 1
            # ops called by other ops are replayed inside their caller
            if outer:
                key = op_key(op, args, kwargs)
                tracer.spans[idx][4] = key
                if isinstance(out, T.Tensor) and out.requires_grad:
                    tracer._pending[key] += 1
                    tracer._pending_args.setdefault(key, (fn, args, kwargs))
            return out
        return call

    def _wrap_backward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def backward(tensor):
            tracer.backwarded.update(tracer._pending)
            for key, call in tracer._pending_args.items():
                tracer.replay_args.setdefault(key, call)
            tracer.begin_objective()
            idx = tracer._open("tensor.backward")
            try:
                return fn(tensor)
            finally:
                tracer._close(idx)
        return backward

    def install(self) -> None:
        for module, layer in ((data, "data"), (models, "models"), (losses, "losses")):
            for name, fn in _public_functions(module):
                self._patch(module, name, self._wrap_call(f"{layer}.{name}", fn))
        for name, fn in _public_functions(T):
            if name not in NOT_OPS:
                self._patch(T, name, self._wrap_op(name, fn))
        self._patch(T.Tensor, "backward", self._wrap_backward(T.Tensor.backward))
        self.enabled = True

    def uninstall(self) -> None:
        """Put every original back; harmless when nothing is installed."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
        self.enabled = False

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as ``[name, start_s, end_s, parent]`` (gzip JSON)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[s[0]], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]]
                for s in self.spans]
        with gzip.open(path, "wt") as handle:
            json.dump({"names": names, "spans": rows}, handle)


def _forward_span_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "eval")
    return f"models.forward_{mode}"


# -- backward replay --------------------------------------------------------


def _leaf(value):
    if isinstance(value, T.Tensor):
        return T.Tensor(value.data.copy(), requires_grad=value.requires_grad)
    if isinstance(value, T.BatchNormStats):
        return T.BatchNormStats(value.running_mean.shape[0], value.running_mean.dtype)
    return value


def _timed_backward(build) -> float:
    loss = build()
    t0 = perf_counter()
    loss.backward()
    return perf_counter() - t0


def replay_backward_ms(replay_args: dict, rng: np.random.Generator) -> dict:
    """Backward wall time (ms) of one call per recorded op signature.

    Each signature is rebuilt from fresh leaves, reduced to a scalar through
    a fixed random cotangent and backpropagated; the same reduction applied
    to a leaf of the output's shape is timed too and subtracted.
    """
    out = {}
    for key, (fn, args, kwargs) in replay_args.items():
        dtype = next(a.data.dtype for a in args if isinstance(a, T.Tensor))
        with T.default_dtype(dtype.name):
            def build_op():
                return fn(*[_leaf(a) for a in args],
                          **{k: _leaf(v) for k, v in kwargs.items()})
            shape = build_op().shape
            cot = np.asarray(rng.standard_normal(shape), dtype=dtype)

            def full():
                return T.sum_all(T.mul_const(build_op(), cot))

            def base():
                return T.sum_all(T.mul_const(
                    T.Tensor(np.zeros(shape, dtype), requires_grad=True), cot))
            t_full = statistics.median(_timed_backward(full) for _ in range(REPLAY_REPS))
            t_base = statistics.median(_timed_backward(base) for _ in range(REPLAY_REPS))
        out[key] = max(t_full - t_base, 0.0) * 1e3
    return out


# -- summaries --------------------------------------------------------------


def _self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _under_roots(spans, root: str) -> list[tuple[int, int]]:
    """(root index, end index) of every top-level span named ``root``."""
    tops = [i for i, s in enumerate(spans) if s[3] < 0]
    bounds = tops[1:] + [len(spans)]
    return [(i, j) for i, j in zip(tops, bounds) if spans[i][0] == root]


def _metric_key(name: str) -> str | None:
    """Per-layer metric that an (outermost) span's inclusive time feeds."""
    if name == "data.augment_batch":
        return "data.augment_ms"
    if name.startswith("models.forward_"):
        return name + "_ms"
    if name.startswith("models.build") or name == "losses.build_neuromodulator":
        return "models.build_s"
    if name.startswith("losses."):
        return "losses.objective_ms"
    if name.startswith("data."):
        return "data.generate_s"
    if name in ("tensor.backward", "bench.update", "gradcheck.fd_eval"):
        return name + "_ms"
    return None


def _inclusive(spans, lo: int, hi: int) -> Counter:
    """Inclusive time (s) per metric key, counting only outermost spans."""
    keys = [_metric_key(s[0]) for s in spans[lo:hi]]
    total: Counter = Counter()
    for i in range(lo, hi):
        key = keys[i - lo]
        parent = spans[i][3]
        if key and not (parent >= lo and keys[parent - lo] == key):
            total[key] += spans[i][2] - spans[i][1]
    return total


def summarize(tracer: Tracer, root: str, bwd_ms: dict, fd_evals: int) -> dict[str, float]:
    """Per-layer metrics, per traced unit of the timed loop (one ``root``
    span).  The caller adds the memory peaks, ``gradcheck.fd_evals`` and
    ``trace.overhead_pct``."""
    spans = tracer.spans
    self_s = _self_times(spans)
    units = _under_roots(spans, root)
    n = max(len(units), 1)
    m: dict[str, float] = {}

    setups = [_inclusive(spans, i, j) for i, j in _under_roots(spans, "bench.setup")]
    m["data.generate_s"] = statistics.median(s["data.generate_s"] for s in setups) if setups else 0.0
    m["models.build_s"] = statistics.median(s["models.build_s"] for s in setups) if setups else 0.0

    incl: Counter = Counter()
    layer_self: Counter = Counter()
    fwd_s: Counter = Counter()
    calls: Counter = Counter()
    conv_fwd_flops = 0.0
    unit_s = 0.0
    for lo, hi in units:
        incl.update(_inclusive(spans, lo, hi))
        unit_s += spans[lo][2] - spans[lo][1]
        layer_self["residual"] += self_s[lo]
        for i in range(lo + 1, hi):
            name = spans[i][0]
            layer_self[name.split(".")[0]] += self_s[i]
            if name.startswith("tensor.") and name not in NOT_OP_SPANS:
                group = op_group(name[7:])
                fwd_s[group] += self_s[i]
                calls[group] += 1
                if group == "conv2d" and spans[i][4] is not None:
                    conv_fwd_flops += conv_flops(spans[i][4])[0]
    evals = [_inclusive(spans, i, j) for i, j in _under_roots(spans, "bench.eval")]

    for key in ("data.augment_ms", "models.forward_train_ms", "losses.objective_ms",
                "tensor.backward_ms", "bench.update_ms"):
        m[key] = incl[key] * 1e3 / n
    m["gradcheck.fd_eval_ms"] = incl["gradcheck.fd_eval_ms"] * 1e3 / fd_evals / n if fd_evals else 0.0
    m["models.forward_eval_ms"] = (statistics.median(e["models.forward_eval_ms"] for e in evals)
                                   * 1e3 if evals else 0.0)

    bwd_total: Counter = Counter()
    conv_bwd_flops = 0.0
    for key, count in tracer.backwarded.items():
        bwd_total[op_group(key[0])] += count * bwd_ms.get(key, 0.0)
        if key[0] == "conv2d":
            conv_bwd_flops += count * conv_flops(key)[1]
    for group in OP_GROUPS:
        m[f"tensor.{group}.fwd_ms"] = fwd_s[group] * 1e3 / n
        m[f"tensor.{group}.bwd_ms"] = bwd_total[group] / n
        m[f"tensor.{group}.calls"] = calls[group] / n
    conv_s = fwd_s["conv2d"] + bwd_total["conv2d"] / 1e3
    m["tensor.conv2d.gflop_s"] = ((conv_fwd_flops + conv_bwd_flops) / conv_s / 1e9
                                  if conv_s > 0 else 0.0)
    m["tensor.calls_per_step"] = sum(calls.values()) / n

    for layer in SELF_LAYERS:
        m[f"{layer}.self_ms"] = layer_self[layer] * 1e3 / n
    m["trace.residual_ms"] = layer_self["residual"] * 1e3 / n
    m["trace.step_ms"] = unit_s * 1e3 / n
    return m
