"""The two benchmark workloads, driven through hebblab's public functions.

Each workload is a closed loop: the next unit of work starts when the
previous one ends.  ``run_workload`` returns the end-to-end metrics (untraced
run) or the per-layer metrics (traced run), plus a record of the run.

* ``p1_vgg32``: phase-1 steps on ``tiny_vgg`` (conv-bound, no batch norm).
* ``gradcheck16``: ``gradcheck.run_gradcheck()`` (tiny float64 shapes, where
  per-op Python cost dominates); also the correctness gate of the tensor layer.
"""

from __future__ import annotations

import functools
import hashlib
import resource
import statistics
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from hebblab import data as D
from hebblab import gradcheck as G
from hebblab import losses as L
from hebblab import models as M
from hebblab import tensor as T
from hebblab.config import TrainConfig

import tracing

# A step-time tail needs at least ten samples beyond it.
TAIL_BEYOND = 10
MIN_TIMED_STEPS = TAIL_BEYOND + 1
# The held-out accuracy must beat chance by this much.  Over seeds 0-11 the
# lowest accuracy after the step prefix is 0.33; broken gradients or
# forwards stay near chance.
ACCURACY_MARGIN = 0.1
# One held-out batch is timed after every EVAL_EVERY-th training step.
EVAL_EVERY = 8
# Set-ups spread over the run take this share of its timed loop, on top of
# SETUP_MIN_REPS before it; their median is setup_s.
SETUP_SHARE = 0.1
SETUP_MIN_REPS = 3
NUM_CLASSES = 10
TRAIN_FRACTION = 2 / 3
NOISE = 0.1
ARCH = "tiny_vgg"
LR = 0.02


@dataclass(frozen=True)
class TrainSpec:
    """Sizes of the p1_vgg32 workload; the tests shrink them."""
    batch: int = 64
    prefix_steps: int = 24      # steps behind the loss digest and accuracy
    image_size: int = 32
    samples_per_class: int = 150
    eval_batch: int = 256


P1_VGG32 = TrainSpec()
WORKLOAD_NAMES = ("p1_vgg32", "gradcheck16")

# Every end-to-end metric with its unit.  Each must be defined, and never
# zero, on every workload; held-out accuracy is therefore a correctness gate
# and part of the run record, not one of these.
E2E_UNITS = {
    "setup_s": "s", "train_img_s": "img/s", "eval_img_s": "img/s",
    "step_p50_ms": "ms", "step_tail_ms": "ms", "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    quality_ok: bool = True
    metrics: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.quality_ok


def tail(samples) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples above it, and its
    percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < MIN_TIMED_STEPS:
        raise ValueError(f"a tail needs at least {MIN_TIMED_STEPS} samples, got {n}")
    i = n - 1 - TAIL_BEYOND
    return ordered[i], 100.0 * i / (n - 1)


def _time_is_up(elapsed: float, unit_times: list, seconds: float) -> bool:
    """Stop when one more unit would end nearer past the deadline than the
    loop now is before it, so a run measures about ``seconds``."""
    mean = sum(unit_times) / len(unit_times) if unit_times else 0.0
    return elapsed + mean / 2 >= seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timing_record(samples) -> dict:
    pct = tail(samples)[1]
    return {"samples": len(samples), "tail_percentile": round(pct, 2),
            "tail_beyond": TAIL_BEYOND}


def _memory_peaks_mb(forward, backward) -> tuple[float, float]:
    """tracemalloc peaks (MB) of ``forward()`` and of ``backward(out)``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = forward()
        fwd = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(out)
        bwd = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return fwd / 2 ** 20, bwd / 2 ** 20


# ---------------------------------------------------------------------------
# training workload
# ---------------------------------------------------------------------------


class SGD:
    """Heavy-ball SGD with L2 weight decay added to the gradient (the package
    has no optimizer yet)."""

    def __init__(self, params, lr: float, momentum: float, weight_decay: float):
        self.params = list(params)
        self.velocity = [np.zeros_like(p.data) for p in self.params]
        self.lr, self.momentum, self.weight_decay = lr, momentum, weight_decay

    def step(self) -> None:
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            v += self.weight_decay * p.data
            p.data -= self.lr * v


@dataclass
class TrainState:
    spec: TrainSpec
    config: TrainConfig
    model: M.ModelState
    nm: L.NeuromodulatorState
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    optimizer: SGD
    rng: np.random.Generator


def setup_training(spec: TrainSpec, seed: int) -> TrainState:
    """Generate and split the data, normalise it, build model and gate."""
    full = D.generate_synthetic(D.SyntheticSpec(
        num_classes=NUM_CLASSES, image_size=spec.image_size, channels=3,
        samples_per_class=spec.samples_per_class, noise=NOISE, seed=seed))
    train, val = D.stratified_split(full, TRAIN_FRACTION, seed)
    mean, std = D.channel_stats(train.images)
    train_x = D.normalize_images(train.images, mean, std)
    val_x = D.normalize_images(val.images, mean, std)
    model = M.build_model(ARCH, NUM_CLASSES, 3, spec.image_size, seed=seed)
    nm = L.build_neuromodulator(seed=seed + 1)
    config = TrainConfig(lr_phase1=LR, seed=seed)
    params = list(model.params.values()) + list(nm.params.values())
    return TrainState(
        spec=spec, config=config, model=model, nm=nm,
        train_x=train_x, train_y=train.labels, val_x=val_x, val_y=val.labels,
        optimizer=SGD(params, config.lr_phase1, config.momentum, config.weight_decay),
        rng=np.random.default_rng(seed + 2))


def _objective(state: TrainState):
    """Draw the step's batch and build its objective (forward + loss)."""
    idx = state.rng.choice(state.train_y.size, size=state.spec.batch, replace=False)
    x = D.augment_batch(state.train_x[idx], state.rng)
    taps = M.forward(state.model, x, "train")
    return L.phase1_loss(taps, state.train_y[idx], state.nm, state.config)


def train_step(state: TrainState, tracer) -> float | None:
    """One closed-loop step; returns the loss, or None if the step failed
    (an exception or a non-finite loss or gradient; no update is made)."""
    state.model.zero_grads()
    state.nm.zero_grads()
    tracer.begin_objective()
    try:
        loss = _objective(state)
        total = loss.total
        if not np.isfinite(total.data).all():
            return None
        total.backward()
    except (ValueError, FloatingPointError):
        return None
    if not all(np.isfinite(p.grad).all() for p in state.optimizer.params
               if p.grad is not None):
        return None
    with tracer.span("bench.update"):
        state.optimizer.step()
    return float(total.data)


def eval_batch(state: TrainState, lo: int, timings: list) -> np.ndarray | None:
    """Eval-mode logits of the held-out batch starting at ``lo`` (None if
    any is non-finite); appends (images, forward seconds) to ``timings``."""
    x = state.val_x[lo:lo + state.spec.eval_batch]
    t0 = perf_counter()
    logits = M.forward(state.model, x, "eval").logits.data
    timings.append((x.shape[0], perf_counter() - t0))
    return logits if np.isfinite(logits).all() else None


def evaluate(state: TrainState, tracer, timings: list) -> tuple[int, int, float]:
    """Eval-mode pass over the held-out split: (batches, failed, accuracy)."""
    spec, n = state.spec, state.val_y.size
    batches = failed = correct = 0
    with tracer.span("bench.eval"):
        for lo in range(0, n, spec.eval_batch):
            batches += 1
            logits = eval_batch(state, lo, timings)
            if logits is None:
                failed += 1
                continue
            correct += int((logits.argmax(axis=1) == state.val_y[lo:lo + spec.eval_batch]).sum())
    return batches, failed, correct / n


class SetupSampler:
    """Times set-up repeatedly, spread over the run.

    A shared machine can alternate between fast and slow phases lasting
    several seconds; set-ups timed back to back then all land in one phase
    and their median jumps between two values from run to run.
    SETUP_MIN_REPS set-ups run first (traced in a traced run); after that
    the loop calls ``after_unit`` after every timed unit, which runs
    set-ups until they have taken SETUP_SHARE of the loop's time.  A traced
    run takes no more.
    """

    def __init__(self, setup, tracer):
        self.setup, self.tracer = setup, tracer
        self.times: list[float] = []
        self.spent = 0.0        # in after_unit; the loops leave it out of their time
        self._debt = 0.0
        if tracer.wants_trace:
            tracer.install()
        try:
            for _ in range(SETUP_MIN_REPS):
                self.made = self._once()
        finally:
            tracer.uninstall()

    def _once(self):
        with self.tracer.span("bench.setup"):
            t0 = perf_counter()
            made = self.setup()
            self.times.append(perf_counter() - t0)
        return made

    def after_unit(self, unit_s: float) -> None:
        if self.tracer.wants_trace:
            return
        self._debt += SETUP_SHARE * unit_s
        while self._debt > 0:
            self._once()
            self._debt -= self.times[-1]
            self.spent += self.times[-1]


def _paired_overhead_pct(times: list, traced: list) -> float:
    """Tracing cost: every traced unit against the untraced unit just
    before it, so both sides of a pair see the same machine speed."""
    pairs = [(times[i], times[i - 1]) for i in range(1, len(times))
             if traced[i] and not traced[i - 1]]
    return (sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1.0) * 100.0


def run_training(spec: TrainSpec, seed: int, seconds: float, tracer,
                 state: TrainState | None = None) -> Outcome:
    """Closed-loop training steps for ``seconds``, then the eval pass.

    A traced run traces every other timed step and leaves the rest untraced;
    the per-layer metrics come from the traced steps only."""
    out = Outcome()
    setups = SetupSampler(lambda: setup_training(spec, seed), tracer)
    state = state or setups.made

    digest = hashlib.sha256()
    step_times, step_traced, eval_timings = [], [], []
    eval_starts = range(0, state.val_y.size, spec.eval_batch)
    prefix = None
    start = perf_counter()
    step = 0
    # step 0 warms caches and lazy set-up; it trains but is not timed
    while True:
        if (_time_is_up(perf_counter() - start - setups.spent, step_times, seconds)
                and len(step_times) >= MIN_TIMED_STEPS and step > spec.prefix_steps
                and (not tracer.wants_trace or sum(step_traced) >= 2)):
            break
        traced = tracer.wants_trace and step > 0 and step % 2 == 0
        if traced:
            tracer.install()
        try:
            with tracer.span("bench.step"):
                t0 = perf_counter()
                loss = train_step(state, tracer)
                dt = perf_counter() - t0
        finally:
            tracer.uninstall()
        out.attempted += 1
        if loss is None:
            out.failed += 1
        elif step < spec.prefix_steps:
            digest.update(np.float64(loss).tobytes())
        if step > 0:
            step_times.append(dt)
            step_traced.append(traced)
        setups.after_unit(dt)
        step += 1
        if step % EVAL_EVERY == 0:
            # eval timing is sampled across the run, like the steps; it
            # neither reads nor changes training state
            out.attempted += 1
            lo = eval_starts[(step // EVAL_EVERY) % len(eval_starts)]
            out.failed += eval_batch(state, lo, eval_timings) is None
        if step == spec.prefix_steps:
            prefix = state.model.snapshot_params()

    # the eval pass scores the model as it was after the fixed step prefix,
    # so accuracy does not depend on how many steps fitted in the time
    state.model.load_params(prefix)
    if tracer.wants_trace:
        tracer.install()
    try:
        batches, eval_failed, accuracy = evaluate(state, tracer, eval_timings)
    finally:
        tracer.uninstall()
    out.attempted += batches
    out.failed += eval_failed
    chance = 1.0 / NUM_CLASSES
    out.quality_ok = accuracy >= chance + ACCURACY_MARGIN

    out.record.update({
        "steps": step, "prefix_steps": spec.prefix_steps,
        "loss_digest": digest.hexdigest(),
        "accuracy": accuracy, "accuracy_floor": chance + ACCURACY_MARGIN,
        "eval_images": int(state.val_y.size), "images_per_step": spec.batch,
        "setup_reps": len(setups.times),
    })
    if not tracer.wants_trace:
        out.record["step_timing"] = _timing_record(step_times)
        out.metrics = {
            "setup_s": statistics.median(setups.times),
            "train_img_s": spec.batch * len(step_times) / sum(step_times),
            # pooled, not a median of the few batches: slow phases of a
            # shared machine then shift it by their share, not flip it
            "eval_img_s": sum(n for n, _ in eval_timings) / sum(t for _, t in eval_timings),
            "step_p50_ms": statistics.median(step_times) * 1e3,
            "step_tail_ms": tail(step_times)[0] * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        return out

    bwd_ms = tracing.replay_backward_ms(tracer.replay_args, np.random.default_rng(seed))
    fwd_mb, bwd_mb = _memory_peaks_mb(lambda: _objective(state),
                                      lambda loss: loss.total.backward())
    out.metrics = tracing.summarize(tracer, "bench.step", bwd_ms, 0)
    out.metrics.update({"models.forward_peak_mb": fwd_mb, "tensor.backward_peak_mb": bwd_mb,
                        "gradcheck.fd_evals": 0.0,
                        "trace.overhead_pct": _paired_overhead_pct(step_times, step_traced)})
    out.record["traced_steps"] = sum(step_traced)
    return out


# ---------------------------------------------------------------------------
# gradcheck workload
# ---------------------------------------------------------------------------


class FdProbe:
    """Times every objective evaluation that ``check_gradients`` makes and
    counts the images that reach ``models.forward``."""

    def __init__(self, tracer, setups: SetupSampler):
        self.tracer, self.setups = tracer, setups
        self.eval_times: list[float] = []
        self.eval_images = 0
        self.images = 0
        self._saved = []

    def install(self) -> None:
        probe, tracer = self, self.tracer
        check, forward = T.check_gradients, M.forward

        @functools.wraps(forward)
        def counted_forward(model, batch, mode="eval"):
            probe.images += np.shape(batch.data if isinstance(batch, T.Tensor) else batch)[0]
            return forward(model, batch, mode)

        @functools.wraps(check)
        def timed_check(f, params, *args, **kwargs):
            def evaluate():
                tracer.begin_objective()
                before = probe.images
                with tracer.span("gradcheck.fd_eval"):
                    t0 = perf_counter()
                    value = f()
                    probe.eval_times.append(perf_counter() - t0)
                probe.eval_images += probe.images - before
                probe.setups.after_unit(probe.eval_times[-1])
                return value
            with tracer.span("tensor.check_gradients"):
                return check(evaluate, params, *args, **kwargs)

        self._saved = [(T, "check_gradients", check), (M, "forward", forward)]
        T.check_gradients, M.forward = timed_check, counted_forward

    def uninstall(self) -> None:
        for owner, name, original in self._saved:
            setattr(owner, name, original)


def setup_gradcheck() -> None:
    """Build what one run_gradcheck() call builds: both backbones at 16x16
    in float64, and the gate network."""
    with T.default_dtype("float64"):
        for arch in ("tiny_vgg", "mini_resnet"):
            M.build_model(arch, num_classes=3, input_size=16, seed=1)
        L.build_neuromodulator(seed=2)


def _gradcheck_memory_probe(seed: int) -> tuple[float, float]:
    """Peaks of one FD base evaluation (phase 1, N=2) on each backbone."""
    peaks = []
    rng = np.random.default_rng(seed)
    with T.default_dtype("float64"):
        for arch in ("tiny_vgg", "mini_resnet"):
            model = M.build_model(arch, num_classes=3, input_size=16, seed=1)
            nm = L.build_neuromodulator(seed=2)
            x, y = rng.random((2, 3, 16, 16)), rng.integers(0, 3, size=2)
            peaks.append(_memory_peaks_mb(
                lambda: L.phase1_loss(M.forward(model, x, "train"), y, nm, TrainConfig()),
                lambda loss: loss.total.backward()))
    return max(p[0] for p in peaks), max(p[1] for p in peaks)


def run_gradcheck_workload(seed: int, seconds: float, tracer) -> Outcome:
    """``run_gradcheck()`` in a closed loop for ``seconds``.

    A traced run traces every other call; the per-layer metrics come from
    the traced calls only."""
    out = Outcome()
    setups = SetupSampler(setup_gradcheck, tracer)
    probe = FdProbe(tracer, setups)
    probe.install()
    run_times, run_traced, call_evals, errors = [], [], [], {}
    start = perf_counter()
    try:
        while not (run_times and _time_is_up(perf_counter() - start - setups.spent,
                                             run_times, seconds)
                   and (not tracer.wants_trace or len(run_times) >= 2)):
            traced = tracer.wants_trace and len(run_times) % 2 == 1
            if traced:
                tracer.install()
            before, setup_before = len(probe.eval_times), setups.spent
            try:
                with tracer.span("bench.gradcheck"):
                    t0 = perf_counter()
                    # run_gradcheck's own inputs stay at its default seed:
                    # its FD evaluation count depends on them (992 at seed 0,
                    # 858 at seed 1), and a seed-dependent amount of work
                    # would swamp the timing
                    results = G.run_gradcheck()
                    # set-ups made between objective evaluations do not count
                    run_times.append(perf_counter() - t0 - (setups.spent - setup_before))
            finally:
                tracer.uninstall()
            run_traced.append(traced)
            call_evals.append(probe.eval_times[before:])
            for r in results:
                out.attempted += 1
                out.failed += not r.passed
                errors[r.case] = max(errors.get(r.case, 0.0), r.max_rel_error)
    finally:
        probe.uninstall()

    evals_per_run = [len(times) for times in call_evals]
    out.quality_ok = len(set(evals_per_run)) == 1
    out.record.update({
        "runs": len(run_times), "inputs_seed": 0, "fd_evals_per_run": evals_per_run[0],
        "gradcheck_s": statistics.median(run_times), "setup_reps": len(setups.times),
        "max_rel_error": errors, "tolerance": results[0].tolerance,
    })
    if not tracer.wants_trace:
        times = probe.eval_times
        # the tail is taken within each run_gradcheck() call (p99 of 992
        # evaluations) and its median over the calls reported: the tail of
        # the whole run is its eleventh-slowest evaluation, which follows
        # the slowest few seconds of the machine more than the program
        out.record["step_timing"] = {**_timing_record(call_evals[0]),
                                     "tail_of": "median over run_gradcheck() calls"}
        out.metrics = {
            "setup_s": statistics.median(setups.times),
            "train_img_s": probe.images / sum(run_times),
            "eval_img_s": probe.eval_images / sum(times),
            "step_p50_ms": statistics.median(times) * 1e3,
            "step_tail_ms": statistics.median(tail(c)[0] for c in call_evals) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        return out

    bwd_ms = tracing.replay_backward_ms(tracer.replay_args, np.random.default_rng(seed))
    fwd_mb, bwd_mb = _gradcheck_memory_probe(seed)
    out.metrics = tracing.summarize(tracer, "bench.gradcheck", bwd_ms, evals_per_run[-1])
    out.metrics.update({
        "models.forward_peak_mb": fwd_mb, "tensor.backward_peak_mb": bwd_mb,
        "gradcheck.fd_evals": float(evals_per_run[-1]),
        "trace.overhead_pct": _paired_overhead_pct(run_times, run_traced),
    })
    return out


def run_workload(name: str, seed: int, seconds: float, tracer) -> Outcome:
    if name == "gradcheck16":
        return run_gradcheck_workload(seed, seconds, tracer)
    return run_training(P1_VGG32, seed, seconds, tracer)
