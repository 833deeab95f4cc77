"""Objective terms of the two-phase training method and their composition.

Both phases follow one rule (``_compose``): the sum of the CE terms, plus
``coef * term`` for each ungated term, plus ``nu(g) * sum(coef * term)`` over
the gated terms, where g is the mean of the CE values.  A zero coefficient
leaves its term out of the graph.  Terms, in composition order:

Phase 1:  ce; hebbian (gated, lambda_hebb1).
Phase 2:  ce_a, ce_b; metric (lambda_metric); consolidation (gated,
          lambda_cons) = ||theta - theta_frozen||^2; hebbian (gated,
          lambda_hebb2) = (R_hebb_A + R_hebb_B) / 2.

R_hebb aligns the spatial mean of each filter's post-ReLU activation with
the mean of its kernel weights, as the paper's abstract states.

The gate input g is a detached float: nu modulates theta only
multiplicatively, while phi (the gating MLP) receives gradients through nu.
``phase1_loss`` and ``phase2_loss`` are the only definitions of the two
objectives.  Their ``gate_input`` argument replaces g by a given value; only
finite-difference verification (``gradcheck``) sets it, to hold g fixed
while theta is probed.  ``LossBreakdown.gate_input`` is the g nu read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .models import ForwardTaps, ModelState, ParamSet
from .tensor import Tensor

NM_HIDDEN = 8
# The sigmoid output is squeezed into [NU_FLOOR, 1 - NU_FLOOR] so the gate
# stays strictly inside (0, 1) even where the sigmoid saturates in floats.
NU_FLOOR = 1e-6


def build_neuromodulator(seed: int = 0) -> ParamSet:
    """Parameters of the gating MLP: 1 input -> 8 ReLU units -> 1 sigmoid."""
    rng = np.random.default_rng(seed)
    b1 = np.sqrt(6.0 / 1.0)
    b2 = np.sqrt(6.0 / NM_HIDDEN)
    params = {
        "w1": T.Tensor(rng.uniform(-b1, b1, size=(1, NM_HIDDEN)), requires_grad=True),
        "b1": T.Tensor(np.zeros(NM_HIDDEN), requires_grad=True),
        "w2": T.Tensor(rng.uniform(-b2, b2, size=(NM_HIDDEN, 1)), requires_grad=True),
        "b2": T.Tensor(np.zeros(1), requires_grad=True),
    }
    return ParamSet(params=params)


def neuromodulator(state: ParamSet, ce_value: float) -> Tensor:
    """Gate nu in (0, 1) from the detached scalar gate input (a CE value)."""
    if not np.isfinite(ce_value):
        raise ValueError(f"neuromodulator input must be finite, got {ce_value}")
    p = state.params
    x = T.Tensor(np.array([[ce_value]]))
    hidden = T.relu(T.dense(x, p["w1"], p["b1"]))
    out = T.sigmoid(T.dense(hidden, p["w2"], p["b2"]))
    out = T.shift(T.scale(out, 1.0 - 2.0 * NU_FLOOR), NU_FLOOR)
    return T.reshape(out, ())


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], max-stabilized."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ValueError(f"cross_entropy: logits must be [N, K], got {logits.shape}")
    if logits.shape[0] == 0:
        raise ValueError(f"cross_entropy: empty batch, logits of shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(f"cross_entropy: expected {logits.shape[0]} labels, "
                         f"got shape {labels.shape}")
    picked = T.pick(T.log_softmax(logits), labels)
    return T.scale(T.mean_all(picked), -1.0)


def hebbian_regularizer(activation: Tensor, weight: Tensor) -> Tensor:
    """Mean over filters of (mean activation - mean kernel weight)^2; the
    activation is averaged over batch and space."""
    if activation.data.ndim != 4 or weight.data.ndim != 4:
        raise ValueError("hebbian_regularizer: expected rank-4 activation and weight")
    if activation.shape[1] != weight.shape[0]:
        raise ValueError(
            f"hebbian_regularizer: activation has {activation.shape[1]} channels "
            f"but weight has {weight.shape[0]} filters")
    abar = T.mean_axes(activation, (0, 2, 3))
    wbar = T.mean_axes(weight, (1, 2, 3))
    return T.mean_all(T.square(T.sub(abar, wbar)))


def pairwise_margin_loss(emb_a: Tensor, emb_b: Tensor, same_class,
                         margin: float) -> Tensor:
    """Contrastive pair loss over [N, D] embeddings and a same-class flag
    per pair, averaged over the pair batch.

    Same class: squared distance.  Different class: squared hinge
    [max(0, margin - distance)]^2.
    """
    if not 0 < margin < np.inf:  # also False for NaN
        raise ValueError(f"margin must be finite and > 0, got {margin}")
    if emb_a.data.ndim != 2:
        raise ValueError(f"pairwise_margin_loss: expected [N, D] embeddings, got {emb_a.shape}")
    if emb_a.shape != emb_b.shape:
        raise ValueError(f"embedding dimension mismatch: {emb_a.shape} vs {emb_b.shape}")
    n = emb_a.shape[0]
    if n == 0:
        raise ValueError(f"pairwise_margin_loss: empty batch, embeddings of shape {emb_a.shape}")
    same = np.asarray(same_class, dtype=bool)
    if same.shape != (n,):
        raise ValueError(f"pairwise_margin_loss: expected same_class of shape ({n},), "
                         f"got {same.shape}")
    same_f = same.astype(emb_a.data.dtype)

    d2 = T.sum_axes(T.square(T.sub(emb_a, emb_b)), (1,))
    dist = T.sqrt(d2)
    hinge = T.relu(T.shift(T.scale(dist, -1.0), margin))
    per_pair = T.add(T.mul_const(d2, same_f),
                     T.mul_const(T.square(hinge), 1.0 - same_f))
    return T.mean_all(per_pair)


def consolidation_penalty(params: dict[str, Tensor],
                          frozen: dict[str, np.ndarray]) -> Tensor:
    """Unweighted quadratic penalty sum_theta (theta - theta_frozen)^2."""
    if set(params) != set(frozen):
        raise ValueError("consolidation_penalty: parameter-set mismatch")
    total = None
    for name, p in params.items():  # fixed iteration order
        ref = frozen[name]
        if ref.shape != p.data.shape:
            raise ValueError(f"consolidation_penalty: shape mismatch for {name}")
        term = T.squared_distance(p, ref.astype(p.data.dtype, copy=False))
        total = term if total is None else T.add(total, term)
    if total is None:
        raise ValueError("consolidation_penalty: empty parameter set")
    return total


@dataclass
class LossBreakdown:
    """Scalar total (graph tensor), the gate and the value it read, and the
    unweighted value of every term in composition order."""

    total: Tensor
    nu: float
    gate_input: float
    terms: dict[str, float]


def _compose(ces: dict[str, Tensor], entries, nm: ParamSet,
             gate_input: float | None) -> LossBreakdown:
    """Sum the CE terms, each ungated ``(name, term, coef, gated)`` entry as
    ``coef * term`` and the gated ones as ``nu * sum(coef * term)``.

    A zero coefficient leaves its term out of the graph.  nu reads the mean
    of the CE values unless ``gate_input`` is given.
    """
    summed, gated = list(ces.values()), []
    for _, term, coef, is_gated in entries:
        if coef != 0:
            (gated if is_gated else summed).append(T.scale(term, coef))
    terms = {name: ce.item() for name, ce in ces.items()}
    terms.update((name, term.item()) for name, term, _, _ in entries)
    if gate_input is None:
        gate_input = sum(terms[name] for name in ces) / len(ces)
    nu = neuromodulator(nm, gate_input)
    total = reduce(T.add, summed)
    if gated:
        total = T.add(total, T.mul(nu, reduce(T.add, gated)))
    return LossBreakdown(total=total, nu=nu.item(), gate_input=gate_input,
                         terms=terms)


def phase1_loss(taps: ForwardTaps, labels, nm: ParamSet, config: TrainConfig,
                gate_input: float | None = None) -> LossBreakdown:
    """CE plus the gated Hebbian term."""
    hebb = hebbian_regularizer(taps.hebbian_activation, taps.hebbian_weight)
    return _compose({"ce": cross_entropy(taps.logits, labels)},
                    [("hebbian", hebb, config.lambda_hebb1, True)],
                    nm, gate_input)


def phase2_loss(taps_a: ForwardTaps, taps_b: ForwardTaps, labels_a, labels_b,
                model: ModelState, frozen: dict[str, np.ndarray],
                nm: ParamSet, config: TrainConfig,
                gate_input: float | None = None) -> LossBreakdown:
    """Pairwise fine-tuning objective: both CEs and the metric loss, plus
    consolidation and continued Hebbian under the gate."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    metric = pairwise_margin_loss(taps_a.embedding, taps_b.embedding,
                                  labels_a == labels_b, config.margin)
    hebb = T.scale(T.add(
        hebbian_regularizer(taps_a.hebbian_activation, taps_a.hebbian_weight),
        hebbian_regularizer(taps_b.hebbian_activation, taps_b.hebbian_weight)), 0.5)
    return _compose(
        {"ce_a": cross_entropy(taps_a.logits, labels_a),
         "ce_b": cross_entropy(taps_b.logits, labels_b)},
        [("metric", metric, config.lambda_metric, False),
         ("consolidation", consolidation_penalty(model.params, frozen),
          config.lambda_cons, True),
         ("hebbian", hebb, config.lambda_hebb2, True)],
        nm, gate_input)
