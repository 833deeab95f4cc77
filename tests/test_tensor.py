"""Autodiff engine tests: forward fixtures plus finite-difference oracles."""

import inspect
import os
import re
import signal
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hebblab import tensor as T
from hebblab.gradcheck import GradCheckResult


@pytest.fixture(autouse=True)
def float64_mode():
    """Gradient verification always runs at 64 bit."""
    with T.default_dtype("float64"):
        yield


def leaf(arr, requires_grad=True):
    return T.Tensor(np.asarray(arr), requires_grad=requires_grad)


def fd_check(build, params, eps=1e-5):
    return T.check_gradients(build, params, eps=eps)


class TestElementwise:
    def test_relu_values(self):
        x = leaf([-1.0, 0.0, 3.0])
        out = T.relu(x)
        assert np.array_equal(out.data, [0.0, 0.0, 3.0])

    def test_relu_subgradient_at_zero_is_zero(self):
        x = leaf([0.0])
        T.sum_all(T.relu(x)).backward()
        assert x.grad[0] == 0.0

    def test_sigmoid_zero(self):
        assert T.sigmoid(leaf([0.0])).data[0] == 0.5

    def test_sigmoid_extreme_inputs_stable(self):
        out = T.sigmoid(leaf([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] < 1e-300 or out.data[0] == 0.0
        assert out.data[1] == 1.0

    def test_sqrt_zero_subgradient(self):
        x = leaf([0.0, 4.0])
        T.sum_all(T.sqrt(x)).backward()
        assert x.grad[0] == 0.0
        assert x.grad[1] == pytest.approx(0.25)

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul])
    def test_binary_shape_mismatch(self, op):
        with pytest.raises(ValueError, match="shape mismatch"):
            op(leaf([1.0, 2.0]), leaf([[1.0], [2.0]]))

    def test_elementwise_gradients(self):
        rng = np.random.default_rng(0)
        a = leaf(rng.normal(size=(3, 4)))
        b = leaf(rng.normal(size=(3, 4)))

        def build():
            return T.sum_all(T.mul(T.add(T.square(a), b), T.sub(a, b)))

        assert fd_check(build, [a, b]) < 1e-8

    def test_reductions_and_scale_gradients(self):
        rng = np.random.default_rng(1)
        a = leaf(rng.normal(size=(2, 3, 2, 2)))

        def build():
            per_channel = T.mean_axes(a, (0, 2, 3))
            return T.add(T.scale(T.sum_all(T.square(per_channel)), 0.5),
                         T.shift(T.mean_all(a), 2.0))

        assert fd_check(build, [a]) < 1e-8


class TestReductions:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.lists(st.integers(1, 9), min_size=1, max_size=4),
           reduced=st.lists(st.booleans(), min_size=4, max_size=4),
           layout=st.sampled_from(["contiguous", "transposed", "strided"]),
           dtype=st.sampled_from(["float32", "float64"]), seed=st.integers(0, 2**16))
    def test_bit_equal_to_np_sum_and_mean(self, shape, reduced, layout, dtype, seed):
        # np.mean divides a float32 sum at float64; the ops must round alike
        data = (np.random.default_rng(seed).normal(size=shape) * 1e3).astype(dtype)
        if layout == "transposed":
            data = data.T
        elif layout == "strided":
            data = np.repeat(data, 2, axis=-1)[..., ::2]
        axes = tuple(ax for ax in range(data.ndim) if reduced[ax]) or (0,)
        with T.default_dtype(dtype):
            a = leaf(data)
            assert a.data is data
            pairs = [(T.sum_all(a), np.sum(data)), (T.mean_all(a), np.mean(data)),
                     (T.sum_axes(a, axes), np.sum(data, axis=axes)),
                     (T.mean_axes(a, axes), np.mean(data, axis=axes))]
        for got, want in pairs:
            assert type(got.data) is type(want)
            assert_same_bits(np.asarray(got.data), np.asarray(want))


class TestSquaredDistance:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_bit_equal_to_composed_ops(self, dtype):
        rng = np.random.default_rng(12)
        a_data = rng.normal(size=(4, 3, 3, 3)).astype(dtype)
        c = (a_data + 0.05 * rng.normal(size=a_data.shape)).astype(dtype)
        results = []
        with T.default_dtype(dtype):
            for fused in (True, False):
                a = leaf(a_data)
                term = (T.squared_distance(a, c) if fused
                        else T.sum_all(T.square(T.sub(a, leaf(c, requires_grad=False)))))
                T.scale(term, 1.7).backward()
                results.append((np.asarray(term.data), a.grad))
        for got, want in zip(*results):
            assert_same_bits(got, want)

    def test_records_one_node(self):
        a = leaf(np.ones((2, 3)))
        assert T.squared_distance(a, np.zeros((2, 3)))._parents == (a,)
        with pytest.raises(ValueError, match=r"squared_distance: shape mismatch \(2, 3\)"):
            T.squared_distance(a, np.zeros(6))

    def test_gradient_oracle(self):
        rng = np.random.default_rng(13)
        a = leaf(rng.normal(size=(3, 4)))
        c = rng.normal(size=(3, 4))
        assert fd_check(lambda: T.squared_distance(a, c), [a]) < 1e-8


class TestDense:
    def test_identity(self):
        x = leaf([[1.0, 2.0], [3.0, 4.0]], requires_grad=False)
        out = T.dense(x, leaf(np.eye(2)), leaf(np.zeros(2)))
        assert np.array_equal(out.data, x.data)

    def test_affine_fixture(self):
        x = leaf([[1.0, 2.0]], requires_grad=False)
        out = T.dense(x, leaf(np.eye(2)), leaf([10.0, 10.0]))
        assert np.array_equal(out.data, [[11.0, 12.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="inner extents"):
            T.dense(leaf(np.ones((3, 5))), leaf(np.ones((4, 4))), leaf(np.ones(4)))

    def test_gradient_oracle(self):
        rng = np.random.default_rng(2)
        x = leaf(rng.normal(size=(3, 5)))
        w = leaf(rng.normal(size=(5, 4)))
        b = leaf(rng.normal(size=4))

        def build():
            return T.sum_all(T.dense(x, w, b))

        assert fd_check(build, [x, w, b]) < 1e-6


class TestConv2d:
    def test_identity_kernel(self):
        x = leaf([[[[5.0]]]], requires_grad=False)
        w = leaf([[[[1.0]]]])
        out = T.conv2d(x, w, leaf([0.0]), padding=0)
        assert np.array_equal(out.data, [[[[5.0]]]])

    def test_summation_kernel(self):
        x = leaf([[[[1.0, 2.0], [3.0, 4.0]]]], requires_grad=False)
        w = leaf(np.ones((1, 1, 2, 2)))
        out = T.conv2d(x, w, leaf([0.0]))
        assert np.array_equal(out.data, [[[[10.0]]]])

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            T.conv2d(leaf(np.ones((1, 3, 4, 4))), leaf(np.ones((2, 2, 3, 3))),
                     leaf(np.zeros(2)))

    def test_non_integral_output(self):
        # a kernel larger than the padded input leaves no output position
        with pytest.raises(ValueError, match=r"kernel \(1, 1, 4, 4\) exceeds input "
                                             r"\(1, 1, 1, 1\) padded by 1"):
            T.conv2d(leaf(np.ones((1, 1, 1, 1))), leaf(np.ones((1, 1, 4, 4))),
                     leaf(np.zeros(1)), padding=1)
        # padding and relu are keyword-only, so an old positional stride fails
        with pytest.raises(TypeError):
            T.conv2d(leaf(np.ones((1, 1, 5, 5))), leaf(np.ones((1, 1, 2, 2))),
                     leaf(np.zeros(1)), 2, 0)

    def test_empty_batch(self):
        x, w = leaf(np.zeros((0, 3, 5, 5))), leaf(np.ones((2, 3, 3, 3)))
        out = T.conv2d(x, w, padding=1)
        T.sum_all(out).backward()
        assert out.shape == (0, 2, 5, 5) and x.grad.shape == (0, 3, 5, 5)
        assert np.array_equal(w.grad, np.zeros((2, 3, 3, 3)))

    def test_gradient_oracle_weights(self):
        rng = np.random.default_rng(3)
        x = leaf(rng.normal(size=(2, 3, 8, 8)), requires_grad=False)
        w = leaf(rng.normal(size=(4, 3, 3, 3)))
        b = leaf(rng.normal(size=4))

        def build():
            return T.sum_all(T.conv2d(x, w, b, padding=0))

        assert fd_check(build, [w, b]) < 1e-6

    # blocks: 1 runs each loop over the whole batch, 2 one image per block
    @pytest.mark.parametrize("blocks,padding", [(1, 0), (1, 1), (2, 1)])
    def test_gradient_oracle_full(self, monkeypatch, blocks, padding):
        if blocks == 2:
            monkeypatch.setattr(T, "_COLUMN_BLOCK_BYTES", 1)
        rng = np.random.default_rng(4)
        x = leaf(rng.normal(size=(2, 2, 5, 5)))
        w = leaf(rng.normal(size=(3, 2, 3, 3)))
        b = leaf(rng.normal(size=3))

        def build():
            return T.mean_all(T.square(T.conv2d(x, w, b, padding=padding)))

        assert fd_check(build, [x, w, b]) < 1e-6


def conv_loops(x, w, b, g, padding):
    """Naive loop reference: conv2d output and, for output gradient ``g``,
    the gradients of x, w and b."""
    n, _, h, wdt = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out, w_out = h + 2 * padding - k + 1, wdt + 2 * padding - k + 1
    out = np.empty((n, c_out, h_out, w_out))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(n):
        for o in range(c_out):
            for y in range(h_out):
                for z in range(w_out):
                    rows, cols = slice(y, y + k), slice(z, z + k)
                    out[i, o, y, z] = b[o] + np.sum(xp[i, :, rows, cols] * w[o])
                    dw[o] += g[i, o, y, z] * xp[i, :, rows, cols]
                    dxp[i, :, rows, cols] += g[i, o, y, z] * w[o]
    dx = dxp[:, :, padding:padding + h, padding:padding + wdt]
    return out, dx, dw, g.sum(axis=(0, 2, 3))


def columns_slab_loop(xp, k, h_out, w_out):
    """im2col columns of a padded NCHW block, [C_in * K * K, N * Ho * Wo],
    built by one strided slab copy per kernel offset (i, j)."""
    nb, c_in = xp.shape[:2]
    cols = np.empty((c_in, k, k, nb, h_out, w_out), dtype=xp.dtype)
    by_channel = xp.transpose(1, 0, 2, 3)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = by_channel[..., i:i + h_out, j:j + w_out]
    return cols.reshape(c_in * k * k, nb * h_out * w_out)


# (N, C_in, H = W, C_out, K, padding, dtype) of the backbones' convs
BACKBONE_CONVS = [
    # tiny_vgg at 32x32, batch 64: conv1 to conv4
    *[(64, c_in, size, c_out, 3, 1, "float32") for c_in, size, c_out in [
        (3, 32, 32), (32, 32, 32), (32, 16, 64), (64, 8, 128)]],
    # both backbones at 16x16, N = 2: tiny_vgg conv1 to conv4, then the
    # mini_resnet 3x3 convs not listed above
    *[(2, c_in, size, c_out, 3, 1, "float64") for c_in, size, c_out in [
        (3, 16, 32), (32, 16, 32), (32, 8, 64), (64, 4, 128),
        (16, 16, 16), (16, 8, 32), (32, 8, 32)]]]


class TestConv2dReference:
    # blocks: 1 runs each loop over the whole batch, 2 one image per block
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_matches_loops(self, monkeypatch, k, blocks, padding):
        if blocks == 2:
            monkeypatch.setattr(T, "_COLUMN_BLOCK_BYTES", 1)
        rng = np.random.default_rng(100 + 10 * k + 3 * blocks + padding)
        x = rng.normal(size=(2, 3, 5, 7))
        w = rng.normal(size=(4, 3, k, k))
        b = rng.normal(size=4)
        xt, wt, bt = leaf(x), leaf(w), leaf(b)
        out = T.conv2d(xt, wt, bt, padding=padding)
        g = rng.normal(size=out.shape)
        T.sum_all(T.mul_const(out, g)).backward()
        ref = conv_loops(x, w, b, g, padding)
        for got, want in zip((out.data, xt.grad, wt.grad, bt.grad), ref):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n,c_in,size,c_out,k,padding,dtype", [
        *[(*shape, dtype) for shape in [
            (2, 3, 16, 16, 3, 1), (2, 16, 8, 32, 1, 0), (3, 5, 7, 6, 3, 2),
            # more than one block of images at both precisions
            (16, 32, 16, 64, 3, 1)] for dtype in ("float32", "float64")],
        *BACKBONE_CONVS])
    def test_forward_bit_equal_to_tensordot(self, n, c_in, size, c_out, k, padding,
                                            dtype):
        # This contraction order fixes the float rounding of every forward
        # value, and with it the FD gradcheck's evaluation count: one GEMM
        # per image, W [C_out, C_in * K * K] @ columns [C_in * K * K, Ho * Wo].
        rng = np.random.default_rng(7)
        with T.default_dtype(dtype):
            x = leaf(rng.normal(size=(n, c_in, size, size)))
            w = leaf(rng.normal(size=(c_out, c_in, k, k)))
            b = leaf(rng.normal(size=c_out))
            out = T.conv2d(x, w, b, padding=padding)
        assert out.data.dtype == np.dtype(dtype)
        pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
        # [N, C_in, Ho, Wo, K, K]
        windows = np.lib.stride_tricks.sliding_window_view(
            np.pad(x.data, pad), (k, k), axis=(2, 3))
        per_image = np.stack([
            np.matmul(w.data.reshape(c_out, -1),
                      win.transpose(0, 3, 4, 1, 2).reshape(c_in * k * k, -1))
            for win in windows]).reshape(out.shape)
        per_image += b.data[None, :, None, None]
        assert np.array_equal(out.data, per_image)
        # The same as np.tensordot's contraction on these shapes, but that is
        # a property of the BLAS kernels: at (3, 5, 7, 6, 3, 2) a few outputs
        # differ from it by one rounding.
        if (n, c_in, size, c_out, k, padding) != (3, 5, 7, 6, 3, 2):
            ref = np.tensordot(windows, w.data, axes=([1, 4, 5], [1, 2, 3]))
            ref = np.ascontiguousarray(ref.transpose(0, 3, 1, 2))
            ref += b.data[None, :, None, None]
            assert np.array_equal(out.data, ref)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_columns_equal_slab_loop(self, dtype, k, blocks, padding):
        rng = np.random.default_rng(20 + 9 * k + 3 * blocks + padding)
        x = rng.normal(size=(3, 2, 7, 9)).astype(dtype)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        h_out, w_out = xp.shape[2] - k + 1, xp.shape[3] - k + 1
        # the three images as one block, or cut into 2 + 1 or 1 + 1 + 1
        for block in np.array_split(xp, blocks):
            size = 2 * k * k * len(block) * h_out * w_out
            out = np.full(size + 5, np.nan, dtype=dtype)
            got = T._columns(block, k, h_out, w_out, out)
            assert_same_bits(got, columns_slab_loop(block, k, h_out, w_out))
            # written into the leading elements of out, and nowhere else
            assert np.shares_memory(got, out) and np.isnan(out[size:]).all()

    def test_image_blocks_change_no_value(self, monkeypatch):
        rng = np.random.default_rng(9)
        x, w = rng.normal(size=(5, 4, 6, 6)), rng.normal(size=(3, 4, 3, 3))

        def run():
            xt, wt = leaf(x), leaf(w)
            out = T.conv2d(xt, wt, padding=1)
            T.sum_all(T.square(out)).backward()
            return out.data, xt.grad, wt.grad

        whole = run()
        monkeypatch.setattr(T, "_COLUMN_BLOCK_BYTES", 1)  # one image per block
        blocked = run()
        for a, b in zip(whole[:2], blocked[:2]):
            assert np.array_equal(a, b)
        # the weight gradient sums one GEMM per block, which rounds differently
        np.testing.assert_allclose(blocked[2], whole[2], rtol=1e-12, atol=0)

    def test_no_bias(self):
        rng = np.random.default_rng(8)
        x, w = leaf(rng.normal(size=(2, 3, 5, 5))), leaf(rng.normal(size=(4, 3, 3, 3)))
        out = T.conv2d(x, w, padding=1)
        assert out._parents == (x, w)
        assert np.array_equal(out.data, T.conv2d(x, w, leaf(np.zeros(4)), padding=1).data)
        with pytest.raises(ValueError, match="bias shape"):
            T.conv2d(x, w, leaf(np.zeros(3)))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 2), c_in=st.integers(1, 3), c_out=st.integers(1, 3),
           k=st.integers(1, 3), padding=st.integers(0, 2),
           out_h=st.integers(1, 3), out_w=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_gradients_match_fd_on_random_shapes(self, n, c_in, c_out, k, padding,
                                                 out_h, out_w, seed):
        # input sizes chosen from the output size; an input smaller than the
        # padding is allowed
        h = out_h - 1 + k - 2 * padding
        wdt = out_w - 1 + k - 2 * padding
        assume(h >= 1 and wdt >= 1)
        rng = np.random.default_rng(seed)
        x = leaf(rng.normal(size=(n, c_in, h, wdt)))
        w = leaf(rng.normal(size=(c_out, c_in, k, k)))
        b = leaf(rng.normal(size=c_out))
        cot = rng.normal(size=(n, c_out, out_h, out_w))

        def build():
            out = T.conv2d(x, w, b, padding=padding)
            return T.sum_all(T.mul_const(out, cot))

        # the objective is linear in each probed element, so a wide step has
        # no truncation error and divides the rounding error down
        assert fd_check(build, [x, w, b], eps=1.0) < 1e-7


def fused_and_composed(x, w, b, cot, padding=1, w_grad=True):
    """Output, dx, dW and db of ``conv2d(..., relu=True)`` and of
    ``relu(conv2d(...))`` under ``sum(out * cot)``; db is None without b."""
    results = []
    for fused in (True, False):
        xt, wt = leaf(x), leaf(w, w_grad)
        bt = None if b is None else leaf(b)
        if fused:
            out = T.conv2d(xt, wt, bt, padding=padding, relu=True)
        else:
            out = T.relu(T.conv2d(xt, wt, bt, padding=padding))
        T.sum_all(T.mul_const(out, cot)).backward()
        results.append((out.data, xt.grad, wt.grad, None if bt is None else bt.grad))
    return results


def assert_same_bits(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestConv2dFusedRelu:
    @pytest.mark.parametrize("n,c_in,size,c_out,k,padding,dtype,seed", [
        *[(*shape, 1) for shape in BACKBONE_CONVS],
        (2, 16, 8, 32, 1, 0, "float64", 1),  # mini_resnet's projection
        (3, 5, 7, 6, 3, 2, "float32", 1), (3, 5, 9, 6, 3, 1, "float64", 2)])
    def test_equals_relu_of_conv_bit_for_bit(self, n, c_in, size, c_out, k, padding,
                                             dtype, seed):
        rng = np.random.default_rng(n + c_in + size + c_out + seed)
        with T.default_dtype(dtype):
            x = rng.normal(size=(n, c_in, size, size)).astype(dtype)
            w = rng.normal(size=(c_out, c_in, k, k)).astype(dtype)
            b = rng.normal(size=c_out).astype(dtype)
            # channel 0 is exactly zero before the ReLU, channel 1 all NaN
            w[:2], b[0], b[1] = 0.0, 0.0, np.nan
            h_out = size + 2 * padding - k + 1
            cot = rng.normal(size=(n, c_out, h_out, h_out)).astype(dtype)
            fused, composed = fused_and_composed(x, w, b, cot, padding)
        for got, want in zip(fused, composed):
            assert_same_bits(got, want)
        out, _, dw, db = fused
        assert np.all(out[:, 0] == 0) and np.all(np.isnan(out[:, 1]))
        # neither channel passes a gradient: 0 at the kink, none through NaN
        assert np.all(dw[:2] == 0) and np.all(db[:2] == 0)

    @pytest.mark.parametrize("w_grad", [True, False])
    def test_no_bias_nan_input_frozen_weight(self, w_grad):
        rng = np.random.default_rng(47)
        x, w = rng.normal(size=(3, 4, 6, 6)), rng.normal(size=(5, 4, 3, 3))
        x[1, 2, 3, 3] = np.nan
        cot = rng.normal(size=(3, 5, 6, 6))
        fused, composed = fused_and_composed(x, w, None, cot, w_grad=w_grad)
        for got, want in zip(fused, composed):
            assert_same_bits(got, want)

    def test_records_one_node(self):
        rng = np.random.default_rng(48)
        x, w, b = leaf(rng.normal(size=(2, 3, 5, 5))), leaf(rng.normal(size=(4, 3, 3, 3))), \
            leaf(rng.normal(size=4))
        assert T.conv2d(x, w, b, padding=1, relu=True)._parents == (x, w, b)
        with T.no_grad():
            out = T.conv2d(x, w, b, padding=1, relu=True)
        assert out._parents == () and out._backward is None
        assert np.array_equal(out.data, T.relu(T.conv2d(x, w, b, padding=1)).data)


@pytest.fixture
def pool_width(monkeypatch):
    """Call with W to run ``conv2d``'s block loops on a fresh pool of W
    workers (W = 1: inline); the module's own pool is restored after."""
    def force(width):
        monkeypatch.setattr(T, "_pool_width", width)
        monkeypatch.setattr(T, "_pool", None)
    return force


def blocked_conv(x, w, b, padding=1, dtype="float64", relu=False):
    """conv2d forward and backward under ``sum(out * g)``: out, dx, dW, db."""
    with T.default_dtype(dtype):
        xt, wt, bt = leaf(x), leaf(w), leaf(b)
        out = T.conv2d(xt, wt, bt, padding=padding, relu=relu)
        g = np.random.default_rng(1).normal(size=out.shape)
        T.sum_all(T.mul_const(out, g)).backward()
    return out.data, xt.grad, wt.grad, bt.grad


def call_within(seconds, fn):
    """Run ``fn`` on another thread; fail if it has not returned in time.
    Returns the exception it raised, or None."""
    raised = []

    def target():
        try:
            fn()
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    return raised[0] if raised else None


def images_per_block(monkeypatch, count, shape, padding=1, dtype="float64"):
    """Size the blocks of a 3x3 conv2d with C_out = C_in at ``count``
    images in whichever loop has the larger images, so every loop has
    several."""
    n, c, h, wdt = shape
    h_out, w_out = h + 2 * padding - 2, wdt + 2 * padding - 2
    per_image = 9 * c * max(h * wdt, h_out * w_out) * np.dtype(dtype).itemsize
    monkeypatch.setattr(T, "_COLUMN_BLOCK_BYTES", count * per_image)


# input shape, seed offset and padding; two images per block leave a short
# last block in every loop
POOLED_SHAPES = [((7, 4, 6, 6), 1, 1), ((7, 4, 5, 5), 1, 0), ((9, 4, 7, 7), 2, 1)]


class TestConv2dPool:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("shape,seed,padding", POOLED_SHAPES)
    def test_pool_width_changes_no_value(self, pool_width, monkeypatch, dtype, shape,
                                         seed, padding):
        self.check_pool_widths(pool_width, monkeypatch, dtype, shape, seed, padding,
                               relu=False)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("shape,seed,padding", POOLED_SHAPES)
    def test_pool_width_changes_no_fused_relu_value(self, pool_width, monkeypatch, dtype,
                                                    shape, seed, padding):
        self.check_pool_widths(pool_width, monkeypatch, dtype, shape, seed, padding,
                               relu=True)

    @staticmethod
    def check_pool_widths(pool_width, monkeypatch, dtype, shape, seed, padding, relu):
        images_per_block(monkeypatch, 2, shape, padding, dtype)
        rng = np.random.default_rng(40 + shape[0] + seed + padding)
        x, w, b = rng.normal(size=shape), rng.normal(size=(4, 4, 3, 3)), rng.normal(size=4)
        results = {}
        for width in (1, 2):
            pool_width(width)
            results[width] = blocked_conv(x, w, b, padding, dtype, relu)
            assert (T._pool is not None) == (width > 1)
        for inline, pooled in zip(results[1], results[2]):
            assert pooled.dtype == np.dtype(dtype)
            assert np.array_equal(inline, pooled)

    def test_more_workers_than_cores_switching_often(self, pool_width, monkeypatch):
        rng = np.random.default_rng(46)
        x, w, b = rng.normal(size=(23, 4, 6, 6)), rng.normal(size=(4, 4, 3, 3)), rng.normal(size=4)
        images_per_block(monkeypatch, 1, x.shape, dtype="float32")
        pool_width(1)
        inline = blocked_conv(x, w, b, dtype="float32")
        pool_width(2 * (os.cpu_count() or 1) + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = []
            assert call_within(60, lambda: results.append(
                blocked_conv(x, w, b, dtype="float32"))) is None
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results[0], inline):
            assert np.array_equal(got, want)

    # The second _columns call of the forward, then of the weight gradient,
    # of 7 blocks (block 1 or 2, whichever worker gets there first): the
    # other worker still has blocks of its own to run when the failing one
    # stops, and the caller raises once both have returned.
    @pytest.mark.parametrize("fail_at", [1, 8])
    def test_worker_exception_reaches_the_caller(self, pool_width, monkeypatch, fail_at):
        rng = np.random.default_rng(44)
        x, w, b = rng.normal(size=(7, 4, 6, 6)), rng.normal(size=(4, 4, 3, 3)), rng.normal(size=4)
        images_per_block(monkeypatch, 1, x.shape)
        pool_width(2)
        expected = blocked_conv(x, w, b)
        columns, calls = T._columns, []

        def failing_columns(*args):
            calls.append(None)
            if len(calls) == fail_at + 1:
                raise RuntimeError("injected")
            return columns(*args)

        monkeypatch.setattr(T, "_columns", failing_columns)
        raised = call_within(30, lambda: blocked_conv(x, w, b))
        assert isinstance(raised, RuntimeError) and str(raised) == "injected"
        monkeypatch.setattr(T, "_columns", columns)
        for got, want in zip(blocked_conv(x, w, b), expected):
            assert np.array_equal(got, want)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_makes_its_own_pool(self, pool_width, monkeypatch):
        rng = np.random.default_rng(45)
        x, w, b = rng.normal(size=(7, 4, 6, 6)), rng.normal(size=(4, 4, 3, 3)), rng.normal(size=4)
        images_per_block(monkeypatch, 2, x.shape)
        pool_width(2)
        expected = blocked_conv(x, w, b)
        with warnings.catch_warnings():
            # Python 3.12 warns on any fork of a process with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: its copy of the parent's pool has no threads
            status = 1
            try:
                same = all(map(np.array_equal, blocked_conv(x, w, b), expected))
                status = 0 if same and T._pool is not None else 1
            finally:
                os._exit(status)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        assert os.waitstatus_to_exitcode(done[1]) == 0


def pool_add_at_reference(x, g):
    """max_pool2d input gradient routed with np.add.at to the first maximum."""
    n, c, h, w = x.shape
    gx = np.zeros_like(x)
    for y in range(g.shape[2]):
        for z in range(g.shape[3]):
            patch = x[:, :, 2 * y:2 * y + 2, 2 * z:2 * z + 2].reshape(n, c, -1)
            di, dj = np.divmod(patch.argmax(axis=2), 2)
            np.add.at(gx, (np.arange(n)[:, None], np.arange(c)[None, :],
                           2 * y + di, 2 * z + dj), g[:, :, y, z])
    return gx


class TestPooling:
    def test_max_pool_forward(self):
        x = leaf([[[[1.0, 2.0], [3.0, 4.0]]]], requires_grad=False)
        out = T.max_pool2d(x)
        assert np.array_equal(out.data, [[[[4.0]]]])

    # inputs of 4h x 4w pixels
    @pytest.mark.parametrize("h,w", [(2, 2), (2, 3), (3, 1), (3, 2), (2, 1)])
    def test_max_pool_gradient_matches_add_at(self, h, w):
        # integer values force ties: the first maximum takes the gradient
        rng = np.random.default_rng(6)
        x = leaf(rng.integers(0, 3, size=(2, 3, 4 * h, 4 * w)).astype(float))
        out = T.max_pool2d(x)
        g = rng.normal(size=out.shape)
        T.sum_all(T.mul_const(out, g)).backward()
        assert np.array_equal(x.grad, pool_add_at_reference(x.data, g))

    def test_max_pool_nan_propagates(self):
        # NaN at the first, the last and a middle offset of three windows
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        x[0, 0, 0, 0] = x[0, 0, 1, 3] = x[0, 0, 3, 0] = np.nan
        out = T.max_pool2d(leaf(x, requires_grad=False))
        assert np.isnan(out.data[0, 0, :, 0]).all() and np.isnan(out.data[0, 0, 0, 1])
        assert out.data[0, 0, 1, 1] == 15.0

    def test_max_pool_tie_keeps_first_offset_bits(self):
        # -0.0 == +0.0: the first offset of the window gives the output its sign
        x = np.zeros((1, 2, 2, 2))
        x[0, 0, 0, 0] = x[0, 1, 1, 1] = -0.0
        out = T.max_pool2d(leaf(x, requires_grad=False))
        assert np.signbit(out.data).ravel().tolist() == [True, False]

    @pytest.mark.parametrize("shape", [(1, 1, 3, 4), (1, 1, 4, 5), (1, 1, 0, 2)])
    def test_max_pool_rejects_odd_or_empty_sizes(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"H and W must be even and at least 2, got {shape}")):
            T.max_pool2d(leaf(np.ones(shape)))

    def test_max_pool_eval_output_has_no_parents(self):
        x = leaf(np.random.default_rng(4).normal(size=(2, 3, 4, 4)))
        with T.no_grad():
            out = T.max_pool2d(x)
        assert out._parents == () and out._backward is None and not out.requires_grad

    def test_global_avg_pool(self):
        x = leaf(np.arange(8.0).reshape(1, 2, 2, 2), requires_grad=False)
        out = T.global_avg_pool(x)
        assert np.allclose(out.data, [[1.5, 5.5]])


def batch_norm_reference(x, gamma, beta, running_mean, running_var, training, g):
    """Batch norm composed from np.mean and np.var: the output, the running
    statistics (updated in place) and, for output gradient ``g``, the
    gradients of x, gamma and beta."""
    if training:
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        running_mean *= 1.0 - T.BN_MOMENTUM
        running_mean += T.BN_MOMENTUM * mean.astype(running_mean.dtype)
        running_var *= 1.0 - T.BN_MOMENTUM
        running_var += T.BN_MOMENTUM * var.astype(running_var.dtype)
    else:
        mean, var = running_mean.astype(x.dtype), running_var.astype(x.dtype)
    inv_std = 1.0 / np.sqrt(var + T.BN_EPS)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    count = x.shape[0] * x.shape[2] * x.shape[3]
    gsum = g.sum(axis=(0, 2, 3))
    gx_sum = (g * xhat).sum(axis=(0, 2, 3))
    coeff = (gamma * inv_std)[None, :, None, None]
    if training:
        gx = coeff * (g - gsum[None, :, None, None] / count
                      - xhat * gx_sum[None, :, None, None] / count)
    else:
        gx = coeff * g
    return out, gx, gx_sum, gsum


class TestBatchNorm:
    def test_constant_channel_is_zeroed(self):
        x = leaf(np.full((2, 1, 2, 2), 7.0), requires_grad=False)
        stats = T.BatchNormStats(1)
        out = T.batch_norm2d(x, leaf(np.ones(1)), leaf(np.zeros(1)), stats,
                             training=True)
        assert np.allclose(out.data, 0.0)

    def test_training_requires_two_samples(self):
        x = leaf(np.ones((1, 1, 2, 2)))
        with pytest.raises(ValueError, match="N >= 2"):
            T.batch_norm2d(x, leaf(np.ones(1)), leaf(np.zeros(1)),
                           T.BatchNormStats(1), training=True)

    def test_running_stats_update_only_in_training(self):
        rng = np.random.default_rng(6)
        x = leaf(rng.normal(size=(4, 2, 3, 3)), requires_grad=False)
        gamma, beta = leaf(np.ones(2)), leaf(np.zeros(2))
        stats = T.BatchNormStats(2)
        before = stats.snapshot()
        T.batch_norm2d(x, gamma, beta, stats, training=False)
        assert np.array_equal(stats.running_mean, before[0])
        T.batch_norm2d(x, gamma, beta, stats, training=True)
        assert not np.array_equal(stats.running_mean, before[0])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 4), c=st.integers(1, 5), h=st.integers(1, 6), w=st.integers(1, 6),
           training=st.booleans(), contiguous=st.booleans(),
           dtype=st.sampled_from(["float32", "float64"]), seed=st.integers(0, 2**16))
    def test_bit_equal_to_mean_var_composition(self, n, c, h, w, training, contiguous,
                                               dtype, seed):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(n, c, w, h)) * rng.exponential(5.0, size=(1, c, 1, 1))
             + rng.normal(size=(1, c, 1, 1)) * 3.0).astype(dtype).transpose(0, 1, 3, 2)
        if contiguous:
            x = np.ascontiguousarray(x)
        gamma, beta = rng.normal(size=(2, c)).astype(dtype)
        g = rng.normal(size=(n, c, h, w)).astype(dtype)
        with T.default_dtype(dtype):
            stats = T.BatchNormStats(c)
            stats.running_mean[:] = rng.normal(size=c)
            stats.running_var[:] = 0.5 + rng.random(c)
            ref_mean, ref_var = stats.snapshot()
            want = batch_norm_reference(x, gamma, beta, ref_mean, ref_var, training, g)
            xt, gt, bt = leaf(x), leaf(gamma), leaf(beta)
            snap = stats.snapshot()
            with T.no_grad():
                eval_out = T.batch_norm2d(xt, gt, bt, stats, training).data
            stats.restore(snap)
            out = T.batch_norm2d(xt, gt, bt, stats, training)
            T.sum_all(T.mul_const(out, g)).backward()
        for got, expected in zip((out.data, xt.grad, gt.grad, bt.grad), want):
            assert_same_bits(got, expected)
        # without a graph the output is made in place, with the same bits
        assert_same_bits(eval_out, want[0])
        assert_same_bits(stats.running_mean, ref_mean)
        assert_same_bits(stats.running_var, ref_var)

    @pytest.mark.parametrize("training", [True, False])
    def test_running_stats_of_another_channel_count_are_rejected(self, training):
        x = leaf(np.ones((2, 3, 2, 2)))
        gamma, beta = leaf(np.ones(3)), leaf(np.zeros(3))
        wrong_var = T.BatchNormStats(3)
        wrong_var.running_var = np.ones(4)
        for stats, shapes in ((T.BatchNormStats(4), r"\(4,\) / \(4,\)"),
                              (wrong_var, r"\(3,\) / \(4,\)")):
            before = stats.snapshot()
            with pytest.raises(ValueError, match=rf"running mean/var have shapes {shapes}, "
                                                 r"input has 3 channels"):
                T.batch_norm2d(x, gamma, beta, stats, training)
            assert_same_bits(stats.running_mean, before[0])
            assert_same_bits(stats.running_var, before[1])

    def test_gradient_oracle_training(self):
        rng = np.random.default_rng(7)
        x = leaf(rng.normal(size=(3, 2, 4, 4)))
        gamma = leaf(1.0 + 0.1 * rng.normal(size=2))
        beta = leaf(0.1 * rng.normal(size=2))
        stats = T.BatchNormStats(2)
        snap = stats.snapshot()
        # fixed mixing weights: mean(xhat^2) alone is invariant to x, which
        # would leave only degenerate near-zero gradients to compare
        mix = rng.normal(size=(3, 2, 4, 4))

        def build():
            stats.restore(snap)
            out = T.batch_norm2d(x, gamma, beta, stats, training=True)
            return T.mean_all(T.square(T.mul_const(out, mix)))

        assert fd_check(build, [x, gamma, beta]) < 1e-6

    def test_gradient_oracle_eval(self):
        rng = np.random.default_rng(8)
        x = leaf(rng.normal(size=(2, 2, 3, 3)))
        gamma = leaf(rng.normal(size=2))
        beta = leaf(rng.normal(size=2))
        stats = T.BatchNormStats(2)
        stats.running_mean[:] = rng.normal(size=2)
        stats.running_var[:] = 0.5 + rng.random(2)

        def build():
            return T.mean_all(T.square(T.batch_norm2d(x, gamma, beta, stats,
                                                      training=False)))

        assert fd_check(build, [x, gamma, beta]) < 1e-6


class TestHeadOps:
    def test_log_softmax_rows_normalize(self):
        rng = np.random.default_rng(9)
        z = leaf(rng.normal(size=(4, 6)), requires_grad=False)
        out = T.log_softmax(z)
        assert np.allclose(np.exp(out.data).sum(axis=1), 1.0)

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(10)
        z = leaf(rng.normal(size=(3, 5)))
        weights = rng.normal(size=(3, 5))

        def build():
            return T.sum_all(T.mul_const(T.log_softmax(z), weights))

        assert fd_check(build, [z]) < 1e-7

    def test_pick_forward_and_out_of_range(self):
        a = leaf([[1.0, 2.0], [3.0, 4.0]], requires_grad=False)
        out = T.pick(a, np.array([1, 0]))
        assert np.array_equal(out.data, [2.0, 3.0])
        with pytest.raises(ValueError, match="out of range"):
            T.pick(a, np.array([0, 2]))

    @pytest.mark.parametrize("indices", [np.array([1.0, 0.0]), np.array([True, False])],
                             ids=["float", "bool"])
    def test_pick_rejects_non_integer_indices(self, indices):
        a = leaf([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match=f"pick: indices must be integers, "
                                             f"got dtype {indices.dtype}"):
            T.pick(a, indices)

    def test_pick_gradient(self):
        a = leaf([[1.0, 2.0], [3.0, 4.0]])
        T.sum_all(T.pick(a, np.array([1, 1]))).backward()
        assert np.array_equal(a.grad, [[0.0, 1.0], [0.0, 1.0]])


class TestGraph:
    def test_shared_node_accumulates(self):
        x = leaf([2.0])
        y = T.sum_all(T.add(T.square(x), T.square(x)))
        y.backward()
        assert x.grad[0] == pytest.approx(8.0)

    def test_add_parents_never_share_grad(self):
        # add hands its output gradient to both parents; a later
        # accumulation into one of them must not reach the other
        rng = np.random.default_rng(12)
        a, b = leaf(rng.normal(size=(3, 4))), leaf(rng.normal(size=(3, 4)))
        c = rng.normal(size=(3, 4))
        total = T.add(a, b)
        loss = T.add(T.sum_all(T.mul_const(total, c)), T.sum_all(T.square(a)))
        loss.backward()
        assert not np.shares_memory(a.grad, b.grad)
        assert total.grad is None
        assert np.array_equal(b.grad, c)
        np.testing.assert_allclose(a.grad, c + 2.0 * a.data, rtol=1e-15)

    def test_backward_releases_interior_nodes(self):
        x, w = leaf([1.0, -2.0]), leaf([0.5, 3.0])
        prod = T.mul(x, w)
        act = T.relu(prod)
        loss = T.sum_all(act)
        relu_closure = weakref.ref(act._backward)
        loss.backward()
        for node in (prod, act, loss):
            assert node.grad is None and node._parents == ()
            assert node._backward is T._released
        assert relu_closure() is None  # and with it the input it kept
        assert np.array_equal(x.grad, [0.5, 0.0]) and np.array_equal(w.grad, [1.0, 0.0])
        with pytest.raises(RuntimeError, match="already backpropagated"):
            loss.backward()
        # a new graph on a released node cannot reach the leaves either
        with pytest.raises(RuntimeError, match="already backpropagated"):
            T.sum_all(T.square(act)).backward()
        assert np.array_equal(x.grad, [0.5, 0.0]) and np.array_equal(w.grad, [1.0, 0.0])

    def test_backward_requires_scalar(self):
        x = leaf([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            T.relu(x).backward()

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(11)
        x_data = rng.normal(size=(3, 3))

        def grad_of(a, b):
            x = leaf(x_data.copy())
            f = T.sum_all(T.square(x))
            g = T.mean_all(T.mul(x, x))
            T.add(T.scale(f, a), T.scale(g, b)).backward()
            return x.grad

        ga = grad_of(1.0, 0.0)
        gb = grad_of(0.0, 1.0)
        gab = grad_of(0.7, -1.3)
        assert np.allclose(gab, 0.7 * ga - 1.3 * gb, rtol=1e-12, atol=1e-12)

    def test_determinism_bit_exact(self):
        def run():
            rng = np.random.default_rng(12)
            x = leaf(rng.normal(size=(2, 3, 6, 6)))
            w = leaf(rng.normal(size=(4, 3, 3, 3)))
            b = leaf(rng.normal(size=4))
            out = T.mean_all(T.relu(T.conv2d(x, w, b, padding=1)))
            out.backward()
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_constant_subgraphs_prune(self):
        x = leaf(np.ones((2, 2)), requires_grad=False)
        out = T.square(x)
        assert out._parents == ()
        assert not out.requires_grad

    def test_debug_checks_flag_nonfinite(self):
        T.set_debug_checks(True)
        try:
            with pytest.raises(FloatingPointError):
                T.sqrt(leaf([-1.0]))
        finally:
            T.set_debug_checks(False)

    # A NaN cotangent injected through mul_const, then a finite forward whose
    # conv2d input gradient overflows (1e200 * 1e200)
    @pytest.mark.parametrize("injected,op", [(True, "mul_const"), (False, "conv2d")])
    def test_debug_checks_name_the_op_of_a_nonfinite_gradient(self, injected, op):
        def build():
            x = leaf(np.full((1, 1, 3, 3), 1e-200))
            w = leaf(np.full((2, 1, 3, 3), 1e200))
            out = T.conv2d(x, w, leaf(np.zeros(2)), padding=1)
            cot = np.full(out.shape, np.nan if injected else 1.0)
            return x, T.scale(T.sum_all(T.mul_const(out, cot)), 1e200)

        with np.errstate(over="ignore"):
            x, loss = build()
            loss.backward()  # checks off: no check, the gradient is non-finite
            assert not np.all(np.isfinite(x.grad))
            x, loss = build()
            T.set_debug_checks(True)
            try:
                with pytest.raises(FloatingPointError, match=f"^non-finite values "
                                                             f"produced by {op} backward$"):
                    loss.backward()
            finally:
                T.set_debug_checks(False)

    def test_debug_checks_blame_only_what_this_backward_made(self):
        # the check reads each gradient a closure returns, not the sum in
        # .grad, so a leaf left non-finite by an earlier backward is not
        # blamed on the op that adds to it
        w = leaf([1.0, 3.0])
        w.grad = np.array([np.nan, 0.0])
        T.set_debug_checks(True)
        try:
            T.sum_all(T.scale(w, 2.0)).backward()
        finally:
            T.set_debug_checks(False)
        assert np.array_equal(w.grad, [np.nan, 2.0], equal_nan=True)


def _ones(x):
    return leaf(np.ones(x.shape), requires_grad=False)


# Every public op: the shape of its input x, a call on x, and the name its
# node records.  global_avg_pool is mean_axes over H and W, and records that.
OP_CALLS = [
    ("add", (2, 3), lambda x: T.add(x, _ones(x)), "add"),
    ("sub", (2, 3), lambda x: T.sub(x, _ones(x)), "sub"),
    ("mul", (2, 3), lambda x: T.mul(x, _ones(x)), "mul"),
    ("scale", (2, 3), lambda x: T.scale(x, 2.0), "scale"),
    ("shift", (2, 3), lambda x: T.shift(x, 1.0), "shift"),
    ("mul_const", (2, 3), lambda x: T.mul_const(x, np.ones(x.shape)), "mul_const"),
    ("square", (2, 3), T.square, "square"),
    ("squared_distance", (2, 3), lambda x: T.squared_distance(x, np.ones(x.shape)),
     "squared_distance"),
    ("sqrt", (2, 3), T.sqrt, "sqrt"),
    ("relu", (2, 3), T.relu, "relu"),
    ("sigmoid", (2, 3), T.sigmoid, "sigmoid"),
    ("reshape", (2, 3), lambda x: T.reshape(x, (3, 2)), "reshape"),
    ("sum_all", (2, 3), T.sum_all, "sum_all"),
    ("mean_all", (2, 3), T.mean_all, "mean_all"),
    ("sum_axes", (2, 3), lambda x: T.sum_axes(x, (1,)), "sum_axes"),
    ("mean_axes", (2, 3), lambda x: T.mean_axes(x, (1,)), "mean_axes"),
    ("dense", (2, 3), lambda x: T.dense(x, _ones(np.ones((3, 4))), _ones(np.ones(4))),
     "dense"),
    ("conv2d", (1, 1, 4, 4),
     lambda x: T.conv2d(x, _ones(np.ones((2, 1, 3, 3))), padding=1), "conv2d"),
    ("max_pool2d", (1, 1, 4, 4), T.max_pool2d, "max_pool2d"),
    ("global_avg_pool", (1, 2, 2, 2), T.global_avg_pool, "mean_axes"),
    ("batch_norm2d", (2, 1, 2, 2),
     lambda x: T.batch_norm2d(x, _ones(np.ones(1)), _ones(np.ones(1)),
                              T.BatchNormStats(1), True), "batch_norm2d"),
    ("log_softmax", (2, 3), T.log_softmax, "log_softmax"),
    ("pick", (2, 3), lambda x: T.pick(x, np.array([0, 1])), "pick"),
]


class TestOpRecords:
    def test_every_public_op_is_listed(self):
        public = {name for name, fn in vars(T).items()
                  if not name.startswith("_") and inspect.isfunction(fn)
                  and fn.__module__ == T.__name__}
        not_ops = {"default_dtype", "set_debug_checks", "check_gradients"}
        assert public - not_ops == {name for name, *_ in OP_CALLS}

    # the NaN is the first element of x, which every op here carries into
    # its output (pick picks it, pooling and batch norm propagate it)
    @pytest.mark.parametrize("name,shape,call,recorded", OP_CALLS,
                             ids=[case[0] for case in OP_CALLS])
    def test_op_records_its_name_and_checks_its_output(self, name, shape, call, recorded):
        values = np.linspace(0.5, 1.5, int(np.prod(shape))).reshape(shape)
        out = call(leaf(values))
        assert out.requires_grad and out._op == recorded
        with T.no_grad():
            assert call(leaf(values))._op == recorded
        values.flat[0] = np.nan
        T.set_debug_checks(True)
        try:
            with pytest.raises(FloatingPointError,
                               match=f"^non-finite values produced by {recorded}$"):
                call(leaf(values))
        finally:
            T.set_debug_checks(False)

    def test_a_leaf_records_leaf(self):
        assert leaf([1.0])._op == "leaf"


class TestCheckGradients:
    def test_quadratic_fixture(self):
        w = leaf([3.0])

        def build():
            return T.sum_all(T.square(w))

        err = T.check_gradients(build, [w])
        w2 = leaf([3.0])
        T.sum_all(T.square(w2)).backward()
        assert w2.grad[0] == pytest.approx(6.0)
        assert err < 1e-9

    @pytest.mark.parametrize("eps", [np.float32(1e-3), 1])
    def test_any_real_scalar_is_one_step(self, eps):
        # a central difference of step s reads 3 w**2 + s**2 for w**3, so
        # the error shows which step was taken
        w = leaf([3.0])
        err = T.check_gradients(lambda: T.sum_all(T.mul(T.square(w), w)), [w], eps=eps)
        step = float(eps)
        assert err == pytest.approx(step ** 2 / (27.0 + step ** 2), rel=1e-3)

    def test_rejects_non_scalar(self):
        w = leaf([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            T.check_gradients(lambda: T.square(w), [w])

    def test_subsampling_is_deterministic(self):
        rng = np.random.default_rng(13)
        w = leaf(rng.normal(size=(6, 6)))

        def build():
            return T.sum_all(T.square(w))

        e1 = T.check_gradients(build, [w], max_elements_per_param=5, seed=3)
        e2 = T.check_gradients(build, [w], max_elements_per_param=5, seed=3)
        assert e1 == e2 < 1e-9

    def test_only_the_analytic_call_records_a_graph(self):
        w = leaf([3.0, -2.0])
        recorded = []

        def build():
            out = T.sum_all(T.square(w))
            recorded.append(out.requires_grad)
            return out

        assert T.check_gradients(build, [w], eps=(1e-5, 1e-6)) < 1e-9
        assert recorded[0] and len(recorded) > 1 and not any(recorded[1:])
        assert T.square(w).requires_grad  # no_grad ends with the probes

    def test_nan_gradient_or_objective_fails(self):
        w = leaf([0.0])

        def nan_gradient():
            out = T._node(w.data.copy(), (w,), "nan_gradient",
                          lambda g: (np.full(1, np.nan),))
            return T.sum_all(out)

        # sqrt's objective is NaN at the probe below 0
        for build in (nan_gradient, lambda: T.sum_all(T.sqrt(w))):
            err = T.check_gradients(build, [w])
            assert err == np.inf
            assert not GradCheckResult("nan", err, 1e-4).passed

    def test_nan_at_one_step_leaves_the_other_steps(self):
        # the probe at w - 1e-3 is below 0, where sqrt is NaN; 1e-6 matches
        w = leaf([1e-4])
        assert T.check_gradients(lambda: T.sum_all(T.sqrt(w)), [w], eps=(1e-3, 1e-6)) < 1e-4

    # a check that probes nothing, or steps by 0 or a non-finite value,
    # would pass with error 0.0 or divide by zero
    @pytest.mark.parametrize("kwargs,name", [
        ({"max_elements_per_param": 0}, "max_elements_per_param"),
        ({"max_elements_per_param": -1}, "max_elements_per_param"),
        ({"eps": ()}, "eps"),
        ({"eps": 0.0}, "eps"),
        ({"eps": (1e-5, 0.0)}, "eps"),
        ({"eps": np.inf}, "eps"),
        ({"eps": (1e-5, np.nan)}, "eps"),
    ])
    def test_rejects_an_argument_that_probes_nothing(self, kwargs, name):
        w = leaf([1.0, 2.0])
        with pytest.raises(ValueError, match=f"check_gradients: {name} must"):
            T.check_gradients(lambda: T.sum_all(T.square(w)), [w], **kwargs)


class TestPrecisionSwitch:
    def test_default_dtype_context(self):
        with T.default_dtype("float32"):
            assert T.Tensor(np.zeros(2)).data.dtype == np.float32
        assert T.Tensor(np.zeros(2)).data.dtype == np.float64  # fixture scope

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError, match="unsupported dtype"):
            with T.default_dtype("float16"):
                pass

    def test_primitives_pass_fd_on_random_small_shapes(self):
        rng = np.random.default_rng(14)
        x = leaf(rng.normal(size=(2, 2, 4, 4)))
        w = leaf(rng.normal(size=(2, 2, 3, 3)))
        b = leaf(rng.normal(size=2))

        def build():
            y = T.conv2d(x, w, b, padding=1)
            y = T.relu(y)
            y = T.max_pool2d(y)
            z = T.global_avg_pool(y)
            return T.mean_all(T.sigmoid(z))

        assert fd_check(build, [x, w, b]) < 1e-5
