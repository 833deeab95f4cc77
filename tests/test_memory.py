"""Memory policy tests: freed arrays stay in the process, so a warmed
training step takes no page faults, and since recycled memory is not zeroed
no op may read an ``np.empty`` array before writing it."""

import ctypes
import platform
import resource
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hebblab import data as D
from hebblab import losses as L
from hebblab import models as M
from hebblab import tensor as T
from hebblab.config import TrainConfig


def poisoned(make):
    """``make`` whose arrays come back filled with NaN (floats) or the
    largest value (integers), as recycled memory may hold any bytes."""
    def make_poisoned(*args, **kwargs):
        out = make(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        elif out.dtype.kind in "iu":
            out.fill(np.iinfo(out.dtype).max)
        return out
    return make_poisoned


@pytest.fixture
def poison_empty(monkeypatch):
    """Call to make ``np.empty`` and ``np.empty_like`` poisoned, as
    ``hebblab.tensor`` and ``hebblab.data`` see them."""
    def apply():
        monkeypatch.setattr(np, "empty", poisoned(np.empty))
        monkeypatch.setattr(np, "empty_like", poisoned(np.empty_like))
    return apply


def assert_same_arrays(clean, dirty):
    assert len(clean) == len(dirty)
    for a, b in zip(clean, dirty):
        assert np.array_equal(a, b)


class TestNoReadBeforeWrite:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_conv2d(self, poison_empty, monkeypatch, stride, padding):
        rng = np.random.default_rng(30 + 2 * stride + padding)
        x, w, b = (rng.normal(size=(5, 4, 7, 7)), rng.normal(size=(6, 4, 3, 3)),
                   rng.normal(size=6))
        monkeypatch.setattr(T, "_COLUMN_BLOCK_BYTES", 1)  # one image per block

        def run():
            with T.default_dtype("float64"):
                xt, wt, bt = T.Tensor(x, True), T.Tensor(w, True), T.Tensor(b, True)
                out = T.conv2d(xt, wt, bt, stride=stride, padding=padding)
                T.sum_all(T.square(out)).backward()
            return out.data, xt.grad, wt.grad, bt.grad

        clean = run()
        poison_empty()
        assert_same_arrays(clean, run())

    @pytest.mark.parametrize("window,stride", [(2, 2), (2, 3), (3, 2)])
    def test_max_pool2d(self, poison_empty, window, stride):
        rng = np.random.default_rng(33 + window + stride)
        size = next(s for s in range(8, 8 + stride) if (s - window) % stride == 0)
        x = rng.integers(0, 3, size=(2, 3, size, size)).astype(float)  # ties
        g = rng.normal(size=(2, 3, (size - window) // stride + 1,
                             (size - window) // stride + 1))

        def run():
            with T.default_dtype("float64"):
                xt = T.Tensor(x, True)
                out = T.max_pool2d(xt, window, stride)
                T.sum_all(T.mul_const(out, g)).backward()
            return out.data, xt.grad

        clean = run()
        poison_empty()
        assert_same_arrays(clean, run())

    def test_sigmoid(self, poison_empty):
        x = np.array([[-3.0, -0.0, 0.0, 2.5], [np.inf, -np.inf, 40.0, -40.0]])

        def run():
            xt = T.Tensor(x, True)
            out = T.sigmoid(xt)
            T.sum_all(out).backward()
            return out.data, xt.grad

        clean = run()
        poison_empty()
        assert_same_arrays(clean, run())

    def test_pad_crop(self, poison_empty):
        rng = np.random.default_rng(31)
        images = rng.random((6, 3, 8, 8), dtype=np.float32)
        offsets = rng.integers(0, 9, size=(2, 6))
        clean = D.pad_crop(images, offsets[0], offsets[1])
        poison_empty()
        assert np.array_equal(clean, D.pad_crop(images, offsets[0], offsets[1]))

    def test_generate_synthetic(self, poison_empty):
        spec = D.SyntheticSpec(num_classes=3, image_size=16, samples_per_class=4, seed=5)
        clean = D.generate_synthetic(spec)
        poison_empty()
        dirty = D.generate_synthetic(spec)
        assert_same_arrays((clean.images, clean.labels), (dirty.images, dirty.labels))


def test_conv2d_makes_no_whole_batch_temporary(monkeypatch):
    # One image per block: each block temporary is a fraction of one image's
    # columns, far below any whole-batch array such as a padded input copy
    # or the output gradient in NHWC rows.
    rng = np.random.default_rng(34)
    x, w, b = (rng.normal(size=(128, 6, 8, 8)), rng.normal(size=(4, 6, 3, 3)),
               rng.normal(size=4))
    g = rng.normal(size=(128, 4, 8, 8))
    monkeypatch.setattr(T, "_COLUMN_BLOCK_BYTES", 1)
    with T.default_dtype("float64"):
        xt, wt, bt = T.Tensor(x, True), T.Tensor(w, True), T.Tensor(b, True)
        tracemalloc.start()
        try:
            out = T.conv2d(xt, wt, bt, padding=1)
            forward = tracemalloc.get_traced_memory()[1] - out.data.nbytes
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out._backward(g)
            backward = (tracemalloc.get_traced_memory()[1] - base
                        - xt.grad.nbytes - wt.grad.nbytes - bt.grad.nbytes)
        finally:
            tracemalloc.stop()
    assert forward < x.nbytes / 4 and backward < x.nbytes / 4


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the memory policy acts through glibc's mallopt")
def test_warm_phase1_steps_take_no_page_faults():
    # Before the policy each of these steps took about 4.9k minor faults:
    # glibc unmapped or trimmed every freed activation and the next step
    # faulted it in again.
    rng = np.random.default_rng(0)
    images = rng.random((32, 3, 32, 32), dtype=np.float32)
    labels = rng.integers(0, 10, size=32)
    model = M.build_model("tiny_vgg", num_classes=10, input_size=32, seed=0)
    nm = L.build_neuromodulator(seed=1)
    params = list(model.params.values()) + list(nm.params.values())
    config = TrainConfig()

    def step():
        model.zero_grads()
        nm.zero_grads()
        idx = rng.choice(32, size=8, replace=False)
        taps = M.forward(model, D.augment_batch(images[idx], rng), "train")
        L.phase1_loss(taps, labels[idx], nm, config).total.backward()
        for p in params:
            p.data -= 0.01 * p.grad

    for _ in range(2):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100


class FakeCFunction:
    """A C function, such as ``mallopt``, that records its calls."""

    def __init__(self, result):
        self.result, self.calls = result, []

    def __call__(self, *args):
        self.calls.append(args)
        return self.result


class TestRetainPolicy:
    def test_quiet_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
        assert T._retain_freed_memory() is False

    def test_quiet_without_c_library_symbols(self, monkeypatch):
        def no_library(name):
            raise OSError("no such library")
        monkeypatch.setattr(ctypes, "CDLL", no_library)
        assert T._retain_freed_memory() is False

    @pytest.mark.parametrize("result,params", [
        (1, [(T._M_MMAP_THRESHOLD, T._MALLOC_KEEP_BYTES),
             (T._M_TRIM_THRESHOLD, T._MALLOC_KEEP_BYTES), (T._M_ARENA_MAX, 1)]),
        # a no-op mallopt (musl) refuses the mmap threshold; the trim
        # threshold alone would freeze a 128 kB mmap threshold, so it is
        # left alone
        (0, [(T._M_MMAP_THRESHOLD, T._MALLOC_KEEP_BYTES)])])
    def test_mmap_threshold_first(self, monkeypatch, result, params):
        fake = FakeCFunction(result)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=fake))
        assert T._retain_freed_memory() is bool(result)
        assert fake.calls == params
        assert fake.argtypes == (ctypes.c_int, ctypes.c_int)


def run_multi_block_conv2d(monkeypatch):
    """A conv2d forward whose loop has four blocks that fit the budget."""
    rng = np.random.default_rng(35)
    x, w = rng.normal(size=(8, 2, 5, 5)), rng.normal(size=(3, 2, 3, 3))
    monkeypatch.setattr(T, "_COLUMN_BLOCK_BYTES", 2 * 2 * 9 * 25 * 8)  # two images
    with T.default_dtype("float64"):
        return T.conv2d(T.Tensor(x), T.Tensor(w), padding=1).data


class TestBlockPoolPolicy:
    @pytest.fixture(autouse=True)
    def undecided(self, monkeypatch):
        """No pool width decided yet; the module's own state is restored after."""
        monkeypatch.setattr(T, "_pool_width", None)
        monkeypatch.setattr(T, "_pool", None)

    def test_no_pool_without_openblas_symbol(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
        run_multi_block_conv2d(monkeypatch)
        assert T._pool_width == 1 and T._pool is None

    @pytest.mark.parametrize("threads", [1, 3])
    def test_blas_thread_count_is_the_pool_width(self, monkeypatch, threads):
        fake = FakeCFunction(threads)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(
            openblas_set_num_threads_local=fake))
        for _ in range(2):
            run_multi_block_conv2d(monkeypatch)
        # BLAS is set to one thread once, and its old count is W
        assert fake.calls == [(1,)]
        assert fake.argtypes == (ctypes.c_int,) and fake.restype is ctypes.c_int
        assert T._pool_width == threads
        assert (T._pool is None) == (threads == 1)

    def test_single_block_decides_nothing(self, monkeypatch):
        fake = FakeCFunction(2)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(
            openblas_set_num_threads_local=fake))
        with T.default_dtype("float64"):
            T.conv2d(T.Tensor(np.ones((2, 2, 5, 5))), T.Tensor(np.ones((3, 2, 3, 3))))
        assert fake.calls == [] and T._pool_width is None and T._pool is None
