"""Tests of the benchmark itself, at tiny sizes so they run in seconds."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

TINY = W.TrainSpec(batch=4, image_size=16, samples_per_class=6, prefix_steps=2,
                   eval_batch=8)


@pytest.fixture
def tiny_gradcheck(monkeypatch):
    """run_gradcheck probing one element per parameter instead of four."""
    original = W.G.run_gradcheck
    monkeypatch.setattr(W.G, "run_gradcheck",
                        lambda **kw: original(**{"max_elements_per_param": 1, **kw}))


def _run(name, trace, seed=3):
    tracer = tracing.Tracer(wants_trace=trace)
    if name == "gradcheck16":
        return W.run_gradcheck_workload(seed, 0.0, tracer)
    return W.run_training(TINY, seed, 0.0, tracer)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", W.WORKLOAD_NAMES)
def test_every_workload_runs_tiny(name, trace, tiny_gradcheck):
    out = _run(name, trace)
    assert out.attempted >= 1 and out.failed == 0
    units = tracing.LAYER_UNITS if trace else W.E2E_UNITS
    assert set(out.metrics) >= set(units)
    values = np.array([out.metrics[m] for m in units], dtype=float)
    assert np.isfinite(values).all()
    if not trace:
        assert (values > 0).all()


@pytest.mark.parametrize("name", W.WORKLOAD_NAMES)
def test_traced_self_times_add_up_to_the_step(name, tiny_gradcheck):
    out = _run(name, trace=True)
    m = out.metrics
    layers = sum(m[f"{layer}.self_ms"] for layer in tracing.SELF_LAYERS)
    layers += m["data.augment_ms"] + m["bench.update_ms"]
    assert layers + m["trace.residual_ms"] == pytest.approx(m["trace.step_ms"], rel=1e-9)
    assert (m["tensor.batch_norm2d.calls"] > 0) == (name == "gradcheck16")
    assert (m["data.augment_ms"] > 0) == (name == "p1_vgg32")


def test_traced_run_traces_every_other_step():
    record = _run("p1_vgg32", trace=True).record
    assert 2 <= record["traced_steps"] <= record["steps"] // 2


def test_loss_digest_is_bit_identical_under_a_seed():
    first = _run("p1_vgg32", trace=False, seed=5).record
    second = _run("p1_vgg32", trace=False, seed=5).record
    other = _run("p1_vgg32", trace=False, seed=6).record
    assert first["loss_digest"] == second["loss_digest"] != other["loss_digest"]


def test_nan_input_batch_is_a_failed_op():
    state = W.setup_training(TINY, seed=3)
    state.train_x[:] = np.nan
    out = W.run_training(TINY, 3, 0.0, tracing.Tracer(wants_trace=False), state=state)
    assert out.failed >= out.record["steps"] > 0
    assert not out.correct


def test_gradcheck_case_over_tolerance_is_a_failed_op(monkeypatch, tiny_gradcheck):
    tiny = W.G.run_gradcheck
    monkeypatch.setattr(W.G, "run_gradcheck", lambda **kw: tiny(tolerance=0.0, **kw))
    out = _run("gradcheck16", trace=False)
    assert out.failed == out.attempted == 4 and not out.correct


def test_gradcheck_makes_992_objective_evaluations():
    out = W.run_gradcheck_workload(0, 0.0, tracing.Tracer(wants_trace=False))
    assert out.record["fd_evals_per_run"] == 992
    assert out.correct


def test_tail_has_ten_samples_beyond_it():
    value, pct = W.tail(range(1, 31))
    assert value == 20 and sum(v > value for v in range(1, 31)) == 10
    assert pct == pytest.approx(100 * 19 / 29)
    with pytest.raises(ValueError):
        W.tail(range(10))


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text((BENCH / "run.py").read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                           "p1_vgg32", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == W.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == W.WORKLOAD_NAMES
    assert run.WORKLOAD_NAMES == W.WORKLOAD_NAMES


def test_overhead_pairs_each_traced_unit_with_the_untraced_one_before_it():
    times = [1.0, 1.5, 2.0, 3.0, 9.0]
    traced = [False, True, False, True, True]
    assert W._paired_overhead_pct(times, traced) == pytest.approx(50.0)
