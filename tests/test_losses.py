"""Loss-term oracles: every stated fixture plus recomposition and
finite-difference checks."""

import math

import numpy as np
import pytest

from hebblab import gradcheck
from hebblab import losses as L
from hebblab import models as M
from hebblab import tensor as T
from hebblab.config import TrainConfig
from hebblab.models import ForwardTaps


@pytest.fixture(autouse=True)
def float64_mode():
    with T.default_dtype("float64"):
        yield


def leaf(arr, requires_grad=False):
    return T.Tensor(np.asarray(arr, dtype=float), requires_grad=requires_grad)


def zeroed_nm():
    nm = L.build_neuromodulator(seed=0)
    for p in nm.params.values():
        p.data[...] = 0.0
    return nm


def make_taps(logits, activation, weight, embedding=None):
    if embedding is None:
        embedding = np.zeros((logits.data.shape[0], 4))
    return ForwardTaps(logits=logits, embedding=leaf(embedding),
                       hebbian_activation=activation, hebbian_weight=weight)


class TestCrossEntropy:
    def test_uniform_logits_is_log_k(self):
        logits = leaf(np.zeros((5, 10)))
        value = L.cross_entropy(logits, np.zeros(5, dtype=int)).item()
        assert value == pytest.approx(math.log(10), abs=1e-9)

    def test_extreme_logit_is_stable(self):
        logits = leaf([[1000.0, 0.0]])
        value = L.cross_entropy(logits, np.array([0])).item()
        assert 0.0 <= value < 1e-12

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="out of range"):
            L.cross_entropy(leaf(np.zeros((2, 3))), np.array([0, 3]))

    def test_empty_batch_is_rejected(self):
        # a mean over no rows would be NaN, with numpy's divide warning
        with pytest.raises(ValueError, match=r"^cross_entropy: empty batch, "
                                             r"logits of shape \(0, 3\)$"):
            L.cross_entropy(leaf(np.zeros((0, 3))), np.zeros(0, dtype=int))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(6, 7)) * 3
        labels = rng.integers(0, 7, size=6)
        value = L.cross_entropy(leaf(z), labels).item()
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        expected = float(np.mean([-math.log(probs[i, labels[i]]) for i in range(6)]))
        assert value == pytest.approx(expected, abs=1e-10)


class TestHebbianRegularizer:
    def test_aligned_means_is_zero(self):
        c = 0.37
        act = leaf(np.full((2, 3, 4, 4), c))
        w = leaf(np.full((3, 2, 3, 3), c))
        assert L.hebbian_regularizer(act, w).item() == 0.0

    def test_unit_gap(self):
        act = leaf(np.ones((2, 1, 2, 2)))
        w = leaf(np.zeros((1, 3, 3, 3)))
        assert L.hebbian_regularizer(act, w).item() == pytest.approx(1.0)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            L.hebbian_regularizer(leaf(np.zeros((1, 2, 2, 2))),
                                  leaf(np.zeros((3, 1, 3, 3))))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        act = rng.normal(size=(3, 4, 5, 5))
        w = rng.normal(size=(4, 2, 3, 3))
        value = L.hebbian_regularizer(leaf(act), leaf(w)).item()

        total = 0.0
        for f in range(4):
            abar = 0.0
            for i in range(3):
                for u in range(5):
                    for v in range(5):
                        abar += act[i, f, u, v]
            abar /= 3 * 5 * 5
            wbar = 0.0
            for c in range(2):
                for u in range(3):
                    for v in range(3):
                        wbar += w[f, c, u, v]
            wbar /= 2 * 3 * 3
            total += (abar - wbar) ** 2
        assert value == pytest.approx(total / 4, abs=1e-10)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        act = leaf(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        w = leaf(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)

        def build():
            return L.hebbian_regularizer(act, w)

        assert T.check_gradients(build, [act, w]) < 1e-5


class TestNeuromodulator:
    def test_zero_parameters_give_half(self):
        assert L.neuromodulator(zeroed_nm(), 5.0).item() == 0.5

    def test_hand_computed_case(self):
        nm = zeroed_nm()
        nm.params["w1"].data[...] = 1.0
        nm.params["w2"].data[...] = 0.25
        # L = 1: hidden = relu(1) in all 8 units, out = 8 * 0.25 * 1 = 2,
        # then the open-interval squeeze
        value = L.neuromodulator(nm, 1.0).item()
        sig = 1.0 / (1.0 + math.exp(-2.0))
        expected = L.NU_FLOOR + (1.0 - 2.0 * L.NU_FLOOR) * sig
        assert value == pytest.approx(expected, abs=1e-12)

    def test_output_strictly_in_unit_interval(self):
        nm = L.build_neuromodulator(seed=4)
        for ce in np.linspace(0.0, 100.0, 21):
            v = L.neuromodulator(nm, float(ce)).item()
            assert 0.0 < v < 1.0

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError, match="finite"):
            L.neuromodulator(zeroed_nm(), float("nan"))

    def test_phi_gradients_match_fd(self):
        nm = L.build_neuromodulator(seed=5)

        def build():
            return L.neuromodulator(nm, 1.7)

        assert T.check_gradients(build, list(nm.params.values())) < 1e-5


class TestPairwiseMarginLoss:
    def test_same_class_identical_embeddings(self):
        e = leaf(np.ones((1, 4)))
        assert L.pairwise_margin_loss(e, e, np.array([True]), 1.0).item() == 0.0

    def test_different_class_identical_embeddings_full_margin(self):
        e = leaf(np.ones((1, 4)))
        assert L.pairwise_margin_loss(e, e, np.array([False]), 1.0).item() == 1.0

    def test_satisfied_margin_zero_loss_zero_gradient(self):
        a = leaf([[0.0, 0.0]], requires_grad=True)
        b = leaf([[3.0, 4.0]], requires_grad=True)  # distance 5 >= margin 1
        out = L.pairwise_margin_loss(a, b, np.array([False]), 1.0)
        assert out.item() == 0.0
        out.backward()
        assert np.all(a.grad == 0.0) and np.all(b.grad == 0.0)

    def test_rejects_bad_margin_and_dims(self):
        e = leaf(np.ones((1, 3)))
        for margin in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="margin"):
                L.pairwise_margin_loss(e, e, np.array([True]), margin)
        with pytest.raises(ValueError, match="mismatch"):
            L.pairwise_margin_loss(e, leaf(np.ones((1, 4))), np.array([True]), 1.0)

    def test_single_pair_rank1_inputs(self):
        # a single pair is N = 1: rank-1 embeddings and a scalar flag are rejected
        a = leaf(np.zeros(3))
        with pytest.raises(ValueError, match=r"expected \[N, D\] embeddings, got \(3,\)"):
            L.pairwise_margin_loss(a, a, np.array([False]), 2.0)
        e = leaf(np.zeros((1, 3)))
        with pytest.raises(ValueError, match=r"same_class of shape \(1,\), got \(\)"):
            L.pairwise_margin_loss(e, e, False, 2.0)
        assert L.pairwise_margin_loss(e, e, np.array([False]), 2.0).item() == 4.0

    def test_same_class_of_wrong_length_is_rejected(self):
        e = leaf(np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"same_class of shape \(3,\), got \(2,\)"):
            L.pairwise_margin_loss(e, e, np.array([True, False]), 1.0)

    def test_empty_batch_is_rejected(self):
        e = leaf(np.zeros((0, 4)))
        with pytest.raises(ValueError, match=r"^pairwise_margin_loss: empty batch, "
                                             r"embeddings of shape \(0, 4\)$"):
            L.pairwise_margin_loss(e, e, np.zeros(0, dtype=bool), 1.0)

    def test_batch_averages_pairs(self):
        a = leaf([[0.0], [0.0]])
        b = leaf([[2.0], [0.5]])
        same = np.array([True, False])
        # pair 0: same, d^2 = 4; pair 1: diff, (1 - 0.5)^2 = 0.25
        value = L.pairwise_margin_loss(a, b, same, 1.0).item()
        assert value == pytest.approx((4.0 + 0.25) / 2)

    def test_zero_scaled_embeddings_boundary(self):
        z = leaf(np.zeros((1, 8)))
        assert L.pairwise_margin_loss(z, z, np.array([True]), 1.5).item() == 0.0
        assert L.pairwise_margin_loss(z, z, np.array([False]), 1.5).item() == 1.5 ** 2

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        a = leaf(rng.normal(size=(3, 4)), requires_grad=True)
        b = leaf(rng.normal(size=(3, 4)), requires_grad=True)
        same = np.array([True, False, True])

        def build():
            return L.pairwise_margin_loss(a, b, same, margin=4.0)

        assert T.check_gradients(build, [a, b]) < 1e-5


class TestConsolidationPenalty:
    def test_identical_parameters_zero(self):
        model = M.build_tiny_vgg(num_classes=4, input_size=16, seed=6)
        frozen = model.snapshot_params()
        assert L.consolidation_penalty(model.params, frozen).item() == 0.0

    def test_single_scalar_difference(self):
        params = {"w": leaf([3.0], requires_grad=True)}
        frozen = {"w": np.array([1.0])}
        assert L.consolidation_penalty(params, frozen).item() == pytest.approx(4.0)

    def test_matches_brute_force(self):
        model = M.build_tiny_vgg(num_classes=4, input_size=16, seed=7)
        rng = np.random.default_rng(7)
        frozen = {k: v + rng.normal(size=v.shape) * 0.1
                  for k, v in model.snapshot_params().items()}
        value = L.consolidation_penalty(model.params, frozen).item()
        expected = sum(float(np.sum((model.params[k].data - frozen[k]) ** 2))
                       for k in frozen)
        assert value == pytest.approx(expected, abs=1e-10 * max(1.0, expected))

    def test_parameter_set_mismatch(self):
        params = {"a": leaf([1.0])}
        with pytest.raises(ValueError, match="mismatch"):
            L.consolidation_penalty(params, {"b": np.array([1.0])})


class TestPhase1Loss:
    def _random_taps(self, rng, n=4, k=5, channels=3):
        logits = leaf(rng.normal(size=(n, k)), requires_grad=True)
        act = leaf(rng.random(size=(n, channels, 4, 4)), requires_grad=True)
        w = leaf(rng.normal(size=(channels, 2, 3, 3)), requires_grad=True)
        return make_taps(logits, act, w)

    def test_gate_off_reduces_to_ce(self):
        rng = np.random.default_rng(8)
        taps = self._random_taps(rng)
        labels = rng.integers(0, 5, size=4)
        cfg = TrainConfig(lambda_hebb1=0.0)
        out = L.phase1_loss(taps, labels, L.build_neuromodulator(seed=8), cfg)
        ce = L.cross_entropy(taps.logits, labels).item()
        assert out.total.item() == ce

    def test_aligned_means_reduce_to_ce(self):
        rng = np.random.default_rng(9)
        c = 0.4
        logits = leaf(rng.normal(size=(2, 3)))
        taps = make_taps(logits, leaf(np.full((2, 4, 3, 3), c)),
                         leaf(np.full((4, 2, 3, 3), c)))
        labels = np.array([0, 2])
        out = L.phase1_loss(taps, labels, L.build_neuromodulator(seed=9),
                            TrainConfig(lambda_hebb1=0.5))
        assert out.total.item() == L.cross_entropy(logits, labels).item()

    def test_recomposition_oracle(self):
        rng = np.random.default_rng(10)
        taps = self._random_taps(rng)
        labels = rng.integers(0, 5, size=4)
        cfg = TrainConfig(lambda_hebb1=0.3)
        out = L.phase1_loss(taps, labels, L.build_neuromodulator(seed=10), cfg)
        recomposed = (out.terms["ce"]
                      + cfg.lambda_hebb1 * out.nu * out.terms["hebbian"])
        assert out.total.item() == pytest.approx(recomposed, rel=1e-8)

    def test_total_at_least_ce(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            taps = self._random_taps(rng)
            labels = rng.integers(0, 5, size=4)
            out = L.phase1_loss(taps, labels, L.build_neuromodulator(seed=trial),
                                TrainConfig(lambda_hebb1=0.2))
            assert out.total.item() >= out.terms["ce"]

    def test_gate_input_detached_from_theta(self):
        # nu is a pure float function of CE for theta purposes: theta grads
        # must match a composition where nu is a fixed constant
        rng = np.random.default_rng(12)
        taps = self._random_taps(rng)
        labels = rng.integers(0, 5, size=4)
        nm = L.build_neuromodulator(seed=12)
        cfg = TrainConfig(lambda_hebb1=0.7)
        out = L.phase1_loss(taps, labels, nm, cfg)
        out.total.backward()
        got = taps.logits.grad.copy()

        taps.logits.grad = None
        taps.hebbian_activation.grad = None
        taps.hebbian_weight.grad = None
        ce = L.cross_entropy(taps.logits, labels)
        hebb = L.hebbian_regularizer(taps.hebbian_activation, taps.hebbian_weight)
        manual = T.add(ce, T.scale(hebb, cfg.lambda_hebb1 * out.nu))
        manual.backward()
        assert np.allclose(got, taps.logits.grad, rtol=1e-12, atol=1e-12)

    def test_gate_input_defaults_to_ce(self):
        rng = np.random.default_rng(13)
        taps = self._random_taps(rng)
        labels = rng.integers(0, 5, size=4)
        nm, cfg = L.build_neuromodulator(seed=13), TrainConfig(lambda_hebb1=0.3)
        out = L.phase1_loss(taps, labels, nm, cfg)
        assert out.gate_input == out.terms["ce"]
        explicit = L.phase1_loss(taps, labels, nm, cfg, gate_input=out.gate_input)
        assert explicit.total.item() == out.total.item()

    def test_gate_input_override_moves_only_nu(self):
        rng = np.random.default_rng(14)
        taps = self._random_taps(rng)
        labels = rng.integers(0, 5, size=4)
        nm, cfg = L.build_neuromodulator(seed=14), TrainConfig(lambda_hebb1=0.3)
        out = L.phase1_loss(taps, labels, nm, cfg)
        g = out.gate_input + 2.0
        moved = L.phase1_loss(taps, labels, nm, cfg, gate_input=g)
        assert moved.gate_input == g
        assert moved.nu == L.neuromodulator(nm, g).item() != out.nu
        assert moved.terms == out.terms


class TestPhase2Loss:
    def _setup(self, seed=13, lambda_metric=0.5, lambda_cons=1e-3,
               lambda_hebb2=0.1, perturb=0.05):
        rng = np.random.default_rng(seed)
        model = M.build_tiny_vgg(num_classes=3, input_size=16, seed=seed)
        nm = L.build_neuromodulator(seed=seed)
        frozen = {k: v + perturb * rng.normal(size=v.shape)
                  for k, v in model.snapshot_params().items()}
        cfg = TrainConfig(lambda_metric=lambda_metric, lambda_cons=lambda_cons,
                          lambda_hebb2=lambda_hebb2)
        xa = rng.random((2, 3, 16, 16))
        xb = rng.random((2, 3, 16, 16))
        labels_a = np.array([0, 1])
        labels_b = np.array([0, 2])
        return model, nm, frozen, cfg, xa, xb, labels_a, labels_b

    def test_all_lambdas_zero_reduces_to_ce_terms(self):
        model, nm, frozen, _, xa, xb, la, lb = self._setup()
        cfg = TrainConfig(lambda_metric=0.0, lambda_cons=0.0, lambda_hebb2=0.0)
        ta = M.forward(model, xa, "eval")
        tb = M.forward(model, xb, "eval")
        out = L.phase2_loss(ta, tb, la, lb, model, frozen, nm, cfg)
        expected = (L.cross_entropy(ta.logits, la).item()
                    + L.cross_entropy(tb.logits, lb).item())
        assert out.total.item() == expected

    def test_frozen_equal_and_aligned_reduce_to_ce_plus_metric(self):
        model, nm, _, cfg, xa, xb, la, lb = self._setup()
        frozen = model.snapshot_params()
        ta = M.forward(model, xa, "eval")
        tb = M.forward(model, xb, "eval")
        c = 0.3
        aligned = make_taps(ta.logits, leaf(np.full((2, 2, 3, 3), c)),
                            leaf(np.full((2, 1, 3, 3), c)), ta.embedding.data)
        aligned_b = make_taps(tb.logits, leaf(np.full((2, 2, 3, 3), c)),
                              leaf(np.full((2, 1, 3, 3), c)), tb.embedding.data)
        out = L.phase2_loss(aligned, aligned_b, la, lb, model, frozen, nm, cfg)
        expected = (L.cross_entropy(ta.logits, la).item()
                    + L.cross_entropy(tb.logits, lb).item()
                    + cfg.lambda_metric * out.terms["metric"])
        assert out.total.item() == pytest.approx(expected, rel=1e-12)

    def test_recomposition_oracle(self):
        model, nm, frozen, cfg, xa, xb, la, lb = self._setup()
        ta = M.forward(model, xa, "eval")
        tb = M.forward(model, xb, "eval")
        out = L.phase2_loss(ta, tb, la, lb, model, frozen, nm, cfg)
        terms = out.terms
        recomposed = (terms["ce_a"] + terms["ce_b"]
                      + cfg.lambda_metric * terms["metric"]
                      + out.nu * (cfg.lambda_cons * terms["consolidation"]
                                  + cfg.lambda_hebb2 * terms["hebbian"]))
        assert out.total.item() == pytest.approx(recomposed, rel=1e-8)

    def test_pair_swap_symmetry(self):
        model, nm, frozen, cfg, xa, xb, la, lb = self._setup()
        ta = M.forward(model, xa, "eval")
        tb = M.forward(model, xb, "eval")
        ab = L.phase2_loss(ta, tb, la, lb, model, frozen, nm, cfg)
        ba = L.phase2_loss(tb, ta, lb, la, model, frozen, nm, cfg)
        assert ab.total.item() == pytest.approx(ba.total.item(), rel=1e-12)

    def test_gate_input_defaults_to_mean_ce(self):
        model, nm, frozen, cfg, xa, xb, la, lb = self._setup()
        ta = M.forward(model, xa, "eval")
        tb = M.forward(model, xb, "eval")
        out = L.phase2_loss(ta, tb, la, lb, model, frozen, nm, cfg)
        assert out.gate_input == 0.5 * (out.terms["ce_a"] + out.terms["ce_b"])
        explicit = L.phase2_loss(ta, tb, la, lb, model, frozen, nm, cfg,
                                 gate_input=out.gate_input)
        assert explicit.total.item() == out.total.item()

    def test_gate_input_override_moves_only_nu(self):
        model, nm, frozen, cfg, xa, xb, la, lb = self._setup()
        ta = M.forward(model, xa, "eval")
        tb = M.forward(model, xb, "eval")
        out = L.phase2_loss(ta, tb, la, lb, model, frozen, nm, cfg)
        g = out.gate_input + 2.0
        moved = L.phase2_loss(ta, tb, la, lb, model, frozen, nm, cfg, gate_input=g)
        assert moved.gate_input == g
        assert moved.nu == L.neuromodulator(nm, g).item() != out.nu
        assert moved.terms == out.terms

    def test_zero_coefficients_leave_terms_out_of_graph(self):
        # every gated term has a zero coefficient, so nu is outside the graph
        # and the gating MLP gets no gradient, not even a zero one
        model, nm, frozen, _, xa, xb, la, lb = self._setup()
        out = L.phase1_loss(M.forward(model, xa, "train"), la, nm,
                            TrainConfig(lambda_hebb1=0.0))
        out.total.backward()
        assert all(p.grad is None for p in nm.params.values())
        out = L.phase2_loss(M.forward(model, xa, "train"),
                            M.forward(model, xb, "train"), la, lb, model, frozen,
                            nm, TrainConfig(lambda_cons=0.0, lambda_hebb2=0.0))
        out.total.backward()
        assert all(p.grad is None for p in nm.params.values())

    def test_gradient_matches_fd_one_pair(self):
        model, nm, frozen, cfg, xa, xb, la, lb = self._setup(seed=14)
        build = gradcheck.phase2_closure(model, nm, xa[:1], xb[:1], la[:1],
                                         lb[:1], frozen, cfg)
        params = list(model.params.values()) + list(nm.params.values())
        err = T.check_gradients(build, params, max_elements_per_param=3, seed=15)
        assert err < 1e-4
