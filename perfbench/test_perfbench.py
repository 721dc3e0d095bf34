"""Tests of the benchmark itself: span arithmetic, exact counters, output
checks that catch wrong results, and the output contract.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from wavepool import backbone  # noqa: E402


def traced_counters(name: str, seed: int, tmp_path) -> dict:
    """Counters of one traced op, after the warm-up checks passed."""
    tmp_path.mkdir()
    tracer = spans.Tracer()
    with tracer.installed():
        workload = workloads.make(name, seed, str(tmp_path), tracer)
        tracer.enabled = False
        assert workload.warmup() == []
        times, attempted, failed = run.run_ops(workload, 1e-9, tracer)
    assert (attempted, failed) == (2, 0)
    metrics = spans.layer_metrics(tracer, {0: times[0][0]}, 1.0)
    return {key: metrics[key] for key in spans.COUNTERS}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counters_repeat_exactly_for_a_seed(name, tmp_path):
    first = traced_counters(name, 5, tmp_path / "a")
    assert first == traced_counters(name, 5, tmp_path / "b")
    if name.startswith("train"):
        assert first["ops.conv.calls"] == 22 and first["pooling.calls"] == 6
        assert first["autodiff.tape_nodes"] > 0 and first["ops.conv.flops"] > 0
        assert first["analysis.forward_batches"] == 0
    elif name == "eval_shift":
        # evaluate batches at 100; shift_consistency forwards the set once
        # unshifted and once per shift
        batches = workloads.EVAL_IMAGES // 100 + 1 + workloads.MAX_SHIFT ** 2
        assert first["analysis.forward_batches"] == batches
        assert first["autodiff.tape_nodes"] == 0
    else:
        assert set(first.values()) == {0}


def test_conv_flops_follow_backbone_conventions(tmp_path):
    """Forward conv FLOPs per image equal the backbone's per-layer counts."""
    tracer = spans.Tracer()
    with tracer.installed():
        workload = workloads.make("eval_shift", 5, str(tmp_path), tracer)
        tracer.op = 0
        workload.model.forward(workload.test_set.images[:2])
    model = workload.model
    want = model.stem_conv.flops(32, 32)
    h = 32
    for block in model.blocks:
        want += block.conv1.flops(h, h) + block.conv2.flops(h, h)
        if block.has_skip_conv:
            want += block.skip_conv.flops(h, h)
        h = block.out_hw(h, h)[0]
        want += block.conv3.flops(h, h)
    assert tracer.counts[(0, "ops.conv.flops")] == 2 * want
    assert want < backbone.count_flops(model, 32, 32)


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ["root", 0.0, 10.0, -1, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["grandchild", 2.0, 3.0, 1, 0],
        ["child", 5.0, 6.0, 0, 0],
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]


def test_first_step_check_catches_a_changed_forward(tmp_path, monkeypatch):
    workload = workloads.make("train_haar", 3, str(tmp_path), spans.NullTracer())
    relu = backbone.relu
    monkeypatch.setattr(backbone, "relu", lambda x: relu(x) * 1.000001)
    problems = workload.warmup()
    assert any("reference" in p for p in problems)


def test_first_step_check_catches_a_changed_backward(tmp_path, monkeypatch):
    """A conv backward whose gradients are off by 1e-4 leaves the loss
    unchanged but fails the slope check."""
    workload = workloads.make("train_haar", 3, str(tmp_path), spans.NullTracer())
    conv = backbone.conv2d

    def scaled(*args, **kwargs):
        out = conv(*args, **kwargs)
        inner = out._backward
        out._backward = lambda g: inner(g * (1 + 1e-4))
        return out

    monkeypatch.setattr(backbone, "conv2d", scaled)
    problems = workload.warmup()
    assert problems and all("slope" in p for p in problems)


def test_eval_check_catches_drift():
    workload = workloads.EvalShift.__new__(workloads.EvalShift)
    workload.first = None
    assert workload.check((1.0, 0.5, 1.0, 0.99)) == []
    assert workload.check((1.0, 0.5, 1.0, 0.99)) == []
    assert workload.check((1.0 + 1e-9, 0.5, 1.0, 0.99)) != []
    assert workload.check((float("nan"), 0.5, 1.0, 0.99)) != []


def test_transform_check_catches_bad_reconstruction(tmp_path):
    workload = workloads.make("transform", 3, str(tmp_path), spans.NullTracer())
    result = workload.op()
    assert workload.check(result) == []
    x, ll, back, low = result[-1]
    result[-1] = (x, ll, back + 1e-9, low)
    assert workload.check(result) != []
    # a low-pass projection that drops or keeps too much
    for wrong in (np.zeros_like(low), x, low * (1 + 1e-9)):
        result[-1] = (x, ll, back, wrong)
        assert any("low-pass" in p for p in workload.check(result))


def test_output_contract(tmp_path):
    """The last line carries exactly the metrics BENCHMARK.json names."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "transform", "--seed", "2",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        names = [m["name"] for m in bench[key]]
        assert list(result["metrics"]) == names
        for m in bench[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
