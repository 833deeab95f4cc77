"""Backbone tests: shape contracts, tap placement, and gradient fidelity."""

import math
import warnings

import numpy as np
import pytest

from hebblab import gradcheck
from hebblab import losses as L
from hebblab import models as M
from hebblab import tensor as T
from hebblab.config import TrainConfig


class TestTinyVgg:
    def test_shape_contract(self):
        model = M.build_tiny_vgg(num_classes=10, input_channels=3, input_size=32)
        x = np.random.default_rng(0).random((4, 3, 32, 32))
        taps = M.forward(model, x, "eval")
        assert taps.logits.shape == (4, 10)
        assert taps.embedding.shape == (4, 128)

    def test_hebbian_tap_channels(self):
        model = M.build_tiny_vgg(num_classes=10, input_size=32)
        x = np.random.default_rng(1).random((2, 3, 32, 32))
        taps = M.forward(model, x, "eval")
        assert taps.hebbian_activation.shape[1] == 32
        assert taps.hebbian_weight.shape == (32, 32, 3, 3)
        assert model.hebbian_layer == "conv2"

    def test_parameter_count_stable_across_seeds(self):
        # names, their order and shapes
        shapes = [[(name, p.shape) for name, p in M.build_tiny_vgg(10, seed=s).params.items()]
                  for s in range(3)]
        assert shapes[0] == shapes[1] == shapes[2]
        assert 100_000 <= sum(math.prod(shape) for _, shape in shapes[0]) <= 300_000

    def test_unsupported_input_size(self):
        with pytest.raises(ValueError, match="unsupported input size"):
            M.build_tiny_vgg(num_classes=4, input_size=20)

    def test_hebbian_activation_nonnegative(self):
        model = M.build_tiny_vgg(num_classes=4, input_size=16)
        x = np.random.default_rng(2).normal(size=(3, 3, 16, 16))
        taps = M.forward(model, x, "train")
        assert np.all(taps.hebbian_activation.data >= 0)

    def test_batch_shape_mismatch(self):
        model = M.build_tiny_vgg(num_classes=4, input_size=16)
        with pytest.raises(ValueError, match="does not match architecture"):
            M.forward(model, np.zeros((2, 3, 32, 32)), "eval")


class TestMiniResnet:
    def test_logits_shape(self):
        model = M.build_mini_resnet(num_classes=7, input_size=16)
        x = np.random.default_rng(3).random((3, 3, 16, 16))
        taps = M.forward(model, x, "eval")
        assert taps.logits.shape == (3, 7)
        assert taps.embedding.shape == (3, 128)
        assert taps.hebbian_activation.shape == (3, 32, 8, 8)

    def test_zeroed_residual_branch_is_identity(self):
        model = M.build_mini_resnet(num_classes=4, input_size=16)
        for name in ("s1b2_conv1_w", "s1b2_conv2_w"):
            model.params[name].data[...] = 0.0
        x = T.Tensor(np.random.default_rng(4).random((2, 16, 16, 16)))
        out = M._res_block(model, x, "s1b2", training=False)
        assert np.allclose(out.data, x.data, atol=1e-6)

    def test_eval_forward_batch_independent(self):
        # eval mode uses running batch-norm statistics, so per-sample outputs
        # have no cross-sample coupling; comparison is at float tolerance
        # because the BLAS backend blocks reductions differently per shape
        model = M.build_mini_resnet(num_classes=4, input_size=16)
        rng = np.random.default_rng(5)
        batch = rng.random((4, 3, 16, 16))
        full = M.forward(model, batch, "eval").logits.data
        single = M.forward(model, batch[1:2], "eval").logits.data
        assert np.allclose(full[1:2], single, rtol=1e-5, atol=1e-6)

    def test_gradient_check_forward_plus_ce(self):
        with T.default_dtype("float64"):
            model = M.build_mini_resnet(num_classes=3, input_size=16, seed=11)
            rng = np.random.default_rng(6)
            x = rng.random((2, 3, 16, 16))
            labels = np.array([0, 2])
            snap = model.snapshot_bn()

            def build():
                model.restore_bn(snap)
                taps = M.forward(model, x, "train")
                return L.cross_entropy(taps.logits, labels)

            err = T.check_gradients(build, list(model.params.values()),
                                    max_elements_per_param=3, seed=7)
        assert err < 1e-4


class TestForwardModes:
    def test_rejects_unknown_mode(self):
        model = M.build_tiny_vgg(num_classes=4, input_size=16)
        with pytest.raises(ValueError, match="mode"):
            M.forward(model, np.zeros((2, 3, 16, 16)), "test")

    def test_eval_is_deterministic(self):
        model = M.build_mini_resnet(num_classes=4, input_size=16)
        x = np.random.default_rng(7).random((2, 3, 16, 16))
        a = M.forward(model, x, "eval").logits.data
        b = M.forward(model, x, "eval").logits.data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("arch", ["tiny_vgg", "mini_resnet"])
    def test_eval_records_no_graph(self, arch):
        model = M.build_model(arch, num_classes=4, input_size=16)
        x = np.random.default_rng(9).random((2, 3, 16, 16))
        taps = M.forward(model, x, "eval")
        for tap in (taps.logits, taps.embedding, taps.hebbian_activation):
            assert tap.requires_grad is False
            assert tap._parents == ()
            assert tap._backward is None
        # train mode still records one, and the weight tap stays a parameter
        assert M.forward(model, x, "train").logits._parents != ()
        assert taps.hebbian_weight.requires_grad

    # 65 and 130 images run as balanced blocks of 33 + 32 and 44 + 43 + 43,
    # 256 as four of 64
    @pytest.mark.parametrize("size", [16, 32])
    @pytest.mark.parametrize("n", [65, 130, 256])
    @pytest.mark.parametrize("arch", ["tiny_vgg", "mini_resnet"])
    def test_eval_blocks_change_no_tap(self, monkeypatch, arch, n, size):
        model = M.build_model(arch, num_classes=10, input_size=size, seed=n)
        rng = np.random.default_rng(n + size)
        for stats in model.bn.values():
            channels = len(stats.running_mean)
            stats.restore((rng.normal(size=channels).astype(np.float32),
                           rng.uniform(0.5, 2.0, size=channels).astype(np.float32)))
        x = rng.random((n, 3, size, size), dtype=np.float32)
        blocked = M.forward(model, x, "eval")
        monkeypatch.setattr(M, "EVAL_BLOCK_IMAGES", n)
        whole = M.forward(model, x, "eval")
        for name in ("logits", "embedding", "hebbian_activation"):
            got, want = getattr(blocked, name), getattr(whole, name)
            assert got.data.dtype == want.data.dtype
            assert got.data.tobytes() == want.data.tobytes()
            assert got._parents == () and not got.requires_grad
        assert blocked.hebbian_weight is whole.hebbian_weight

    def test_no_grad_restores_the_flag_after_an_exception(self):
        w = T.Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                assert not T.square(w).requires_grad
                raise RuntimeError("inside the block")
        assert T.square(w).requires_grad
        with T.no_grad():
            with T.no_grad():
                pass
            assert not T.square(w).requires_grad
        assert T.square(w).requires_grad

    def test_train_mode_updates_bn_eval_does_not(self):
        model = M.build_mini_resnet(num_classes=4, input_size=16)
        x = np.random.default_rng(8).random((2, 3, 16, 16))
        before = model.snapshot_bn()
        M.forward(model, x, "eval")
        assert all(np.array_equal(model.bn[k].running_mean, before[k][0])
                   for k in model.bn)
        M.forward(model, x, "train")
        assert any(not np.array_equal(model.bn[k].running_mean, before[k][0])
                   for k in model.bn)

    @pytest.mark.parametrize("build", [
        lambda: M.build_tiny_vgg(num_classes=4, input_size=16, seed=3),
        lambda: L.build_neuromodulator(seed=3),
    ], ids=["backbone", "neuromodulator"])
    def test_snapshot_roundtrip(self, build):
        state = build()
        first, last = list(state.params)[0], list(state.params)[-1]
        snap = state.snapshot_params()
        state.params[first].data += 1.0
        state.load_params(snap)
        assert np.array_equal(state.params[first].data, snap[first])
        bad = dict(snap)
        bad.pop(first)
        with pytest.raises(ValueError, match="mismatch"):
            state.load_params(bad)
        # a wrong shape is refused before any parameter is replaced
        bad = {name: a + 1.0 for name, a in snap.items()}
        bad[last] = np.zeros((3, 3))
        with pytest.raises(ValueError, match=f"shape mismatch for {last}"):
            state.load_params(bad)
        assert np.array_equal(state.params[first].data, snap[first])

    def test_build_model_dispatch(self):
        assert M.build_model("tiny_vgg", 4, input_size=16).arch == "tiny_vgg"
        with pytest.raises(ValueError, match="unknown architecture"):
            M.build_model("vgg11", 4)


class TestPhase1GradientFidelity:
    def test_tiny_vgg_phase1_loss_fd(self):
        with T.default_dtype("float64"):
            model = M.build_tiny_vgg(num_classes=3, input_size=16, seed=21)
            nm = L.build_neuromodulator(seed=22)
            cfg = TrainConfig()
            rng = np.random.default_rng(9)
            x = rng.random((2, 3, 16, 16))
            labels = np.array([1, 2])
            build = gradcheck.phase1_closure(model, nm, x, labels, cfg)
            params = list(model.params.values()) + list(nm.params.values())
            err = T.check_gradients(build, params, max_elements_per_param=3, seed=13)
        assert err < 1e-4

    def test_detached_gate_explains_raw_fd_gap(self):
        # FD of the raw composite sees the gate's dependence on CE; the
        # implemented backward detaches it, so the raw-probe error must
        # exceed the frozen-gate error
        with T.default_dtype("float64"):
            model = M.build_tiny_vgg(num_classes=3, input_size=16, seed=21)
            nm = L.build_neuromodulator(seed=22)
            cfg = TrainConfig()
            rng = np.random.default_rng(9)
            x = rng.random((2, 3, 16, 16))
            labels = np.array([1, 2])

            def raw_build():
                taps = M.forward(model, x, "train")
                return L.phase1_loss(taps, labels, nm, cfg).total

            p = model.params["head_w"]
            raw = T.check_gradients(raw_build, [p], max_elements_per_param=3,
                                    seed=13)
            frozen = T.check_gradients(
                gradcheck.phase1_closure(model, nm, x, labels, cfg), [p],
                max_elements_per_param=3, seed=13)
        assert frozen < 1e-4 < raw


class TestGradcheckSuite:
    def test_run_gradcheck_passes_every_case(self):
        results = gradcheck.run_gradcheck(max_elements_per_param=1)
        assert [r.case for r in results] == ["tiny_vgg/phase1", "tiny_vgg/phase2",
                                             "mini_resnet/phase1", "mini_resnet/phase2"]
        assert all(r.passed for r in results), results

    def test_a_suite_that_probes_nothing_fails(self):
        with pytest.raises(ValueError, match="max_elements_per_param must be >= 1"):
            gradcheck.run_gradcheck(max_elements_per_param=0)

    def test_train_mode_loss_reads_no_running_statistics(self):
        # the FD closures rest on this: a train-mode forward normalises by the
        # batch statistics, so overwriting the running ones changes nothing
        with T.default_dtype("float64"):
            model = M.build_model("mini_resnet", num_classes=3, input_size=16, seed=4)
            nm = L.build_neuromodulator(seed=5)
            rng = np.random.default_rng(15)
            x_a, x_b = rng.random((2, 2, 3, 16, 16))
            labels_a, labels_b = np.array([0, 1]), np.array([0, 2])
            frozen = {k: v + 0.05 * rng.normal(size=v.shape)
                      for k, v in model.snapshot_params().items()}

            def loss_and_grads():
                model.zero_grads()
                total = L.phase2_loss(M.forward(model, x_a, "train"),
                                      M.forward(model, x_b, "train"), labels_a, labels_b,
                                      model, frozen, nm, TrainConfig()).total
                total.backward()
                return [total.data] + [p.grad for p in model.params.values()]

            before = loss_and_grads()
            for stats in model.bn.values():
                stats.running_mean[:] = rng.normal(size=stats.running_mean.shape)
                stats.running_var[:] = 0.1 + rng.random(stats.running_var.shape)
            after = loss_and_grads()
        assert len(before) == len(after) > 1
        for a, b in zip(before, after):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("arch", ["tiny_vgg", "mini_resnet"])
@pytest.mark.parametrize("phase", [1, 2])
def test_each_backward_closure_owns_its_gradient(arch, phase):
    # Tensor.backward hands every closure an array that no other gradient,
    # leaf or activation shares; conv2d applies its ReLU mask to it in place.
    rng = np.random.default_rng(14)
    model = M.build_model(arch, num_classes=3, input_size=16, seed=2)
    nm = L.build_neuromodulator(seed=3)
    x, labels = rng.random((2, 3, 16, 16)), np.array([0, 2])
    taps = M.forward(model, x, "train")
    if phase == 1:
        loss = L.phase1_loss(taps, labels, nm, TrainConfig()).total
    else:
        loss = L.phase2_loss(taps, M.forward(model, x[::-1], "train"), labels,
                             labels[::-1], model, model.snapshot_params(), nm,
                             TrainConfig()).total
    nodes = T._topo_order(loss)
    received = []

    def recording(closure):
        def run(g):
            received.append(g)
            return closure(g)
        return run

    for node in nodes:
        if node._backward is not None:
            node._backward = recording(node._backward)
    loss.backward()
    leaves = [*model.params.values(), *nm.params.values()]
    held = [node.data for node in nodes] + [p.grad for p in leaves if p.grad is not None]
    assert len(received) > 20
    for i, g in enumerate(received):
        assert not any(np.may_share_memory(g, other) for other in received[i + 1:] + held)


@pytest.mark.parametrize("arch", M.ARCHES)
@pytest.mark.parametrize("phase", [1, 2])
@pytest.mark.parametrize("precision", T.PRECISIONS)
def test_objectives_pass_the_debug_checks(arch, phase, precision):
    # With debug checks on, every op checks its forward output and backward
    # checks every gradient.  A phase objective built, backpropagated and
    # followed by an eval forward trips neither, and warns nowhere.
    rng = np.random.default_rng(16)
    x, labels = rng.random((4, 3, 16, 16)), np.array([0, 1, 2, 0])
    with T.default_dtype(precision), warnings.catch_warnings():
        warnings.simplefilter("error")
        model = M.build_model(arch, num_classes=3, input_size=16, seed=4)
        nm = L.build_neuromodulator(seed=5)
        frozen = {k: v + 0.05 for k, v in model.snapshot_params().items()}
        T.set_debug_checks(True)
        try:
            taps = M.forward(model, x, "train")
            if phase == 1:
                loss = L.phase1_loss(taps, labels, nm, TrainConfig()).total
            else:
                loss = L.phase2_loss(taps, M.forward(model, x[::-1], "train"), labels,
                                     labels[::-1], model, frozen, nm, TrainConfig()).total
            loss.backward()
            logits = M.forward(model, x, "eval").logits
        finally:
            T.set_debug_checks(False)
    leaves = [*model.params.values(), *nm.params.values()]
    assert all(p.grad is not None and p.grad.dtype == precision for p in leaves)
    assert np.isfinite(loss.item()) and np.all(np.isfinite(logits.data))
