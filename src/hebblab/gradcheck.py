"""Finite-difference verification harness for the full training losses.

The gate input is detached by design: the implemented theta-gradient is the
gradient of the objective with the neuromodulator input held at its base
value.  Each closure evaluates its phase loss once to read that base value
(``LossBreakdown.gate_input``) and then passes it back as ``gate_input`` on
every probe, which is exactly the function whose true derivative the
backward pass computes.  The objectives themselves are defined only in
``losses``.  The probes run train-mode forwards, which normalise by the
batch statistics and only write the running statistics, never read them,
so repeated evaluations see the same function without any state restored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses as L
from . import models as M
from . import tensor as T
from .config import TrainConfig

SEED = 0  # of the suite's models, batches and probe subsamples
EPS = (1e-5, 1e-6, 1e-7)  # the FD step sizes (see check_gradients)


def _frozen_gate(loss):
    """Closure over ``loss(gate_input)`` with the gate input fixed at the
    value the unfrozen loss reads at the current parameters."""
    gate = loss(None).gate_input
    return lambda: loss(gate).total


def phase1_closure(model: M.ModelState, nm: M.ParamSet,
                   x: np.ndarray, labels: np.ndarray, config: TrainConfig):
    """Closure computing the phase-1 objective with a frozen gate input."""
    return _frozen_gate(lambda gate: L.phase1_loss(
        M.forward(model, x, "train"), labels, nm, config, gate_input=gate))


def phase2_closure(model: M.ModelState, nm: M.ParamSet,
                   x_a: np.ndarray, x_b: np.ndarray, labels_a: np.ndarray,
                   labels_b: np.ndarray, frozen: dict[str, np.ndarray],
                   config: TrainConfig):
    """Closure computing the phase-2 objective with a frozen gate input."""
    return _frozen_gate(lambda gate: L.phase2_loss(
        M.forward(model, x_a, "train"), M.forward(model, x_b, "train"),
        labels_a, labels_b, model, frozen, nm, config, gate_input=gate))


@dataclass
class GradCheckResult:
    case: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def run_gradcheck(max_elements_per_param: int = 4,
                  tolerance: float = 1e-4) -> list[GradCheckResult]:
    """Run the FD suite: both backbones x both phase losses, 64-bit.

    Every theta and phi parameter tensor is probed on a deterministic
    subsample of ``max_elements_per_param`` elements, over the step sizes
    ``EPS`` (see ``check_gradients``).
    """
    results = []
    with T.default_dtype("float64"):
        rng = np.random.default_rng(SEED)
        for arch in M.ARCHES:
            model = M.build_model(arch, num_classes=3, input_size=16,
                                  seed=SEED + 1)
            nm = L.build_neuromodulator(seed=SEED + 2)
            config = TrainConfig()
            params = list(model.params.values()) + list(nm.params.values())

            x = rng.random((2, 3, 16, 16))
            labels = rng.integers(0, 3, size=2)
            err = T.check_gradients(
                phase1_closure(model, nm, x, labels, config), params,
                eps=EPS, max_elements_per_param=max_elements_per_param,
                seed=SEED)
            results.append(GradCheckResult(f"{arch}/phase1", err, tolerance))

            # one pair for the plain stack; two pairs where batch norm
            # requires N >= 2 per side
            pairs = 1 if arch == "tiny_vgg" else 2
            x_a = rng.random((pairs, 3, 16, 16))
            x_b = rng.random((pairs, 3, 16, 16))
            labels_a = rng.integers(0, 3, size=pairs)
            labels_b = rng.integers(0, 3, size=pairs)
            frozen = {k: v + 0.05 * rng.normal(size=v.shape)
                      for k, v in model.snapshot_params().items()}
            err = T.check_gradients(
                phase2_closure(model, nm, x_a, x_b, labels_a, labels_b,
                               frozen, config), params,
                eps=EPS, max_elements_per_param=max_elements_per_param,
                seed=SEED)
            results.append(GradCheckResult(f"{arch}/phase2", err, tolerance))
    return results
