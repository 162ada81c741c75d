"""Throughput benchmark: compiled kernel plans vs. the tap-loop reference kernels.

Measures end-to-end ``Executor.evaluate`` on the ResNet-14 / CIFAR-10 preset
twice over the same ``O2`` program — once on the ``plan`` backend (compiled
kernel plans, fused epilogue, ahead-of-time arena plan) and once on the
``reference`` backend (the original Python tap-loop kernels, the bit-exact
oracle) — and asserts the plan backend is at least 5× faster while predicting
the same labels.  Results are written to ``BENCH_kernel.json`` at the
repository root so future changes can track the performance trajectory.
"""

from __future__ import annotations

import json
import time

import numpy as np

from conftest import bench_scale, merge_bench_record

from repro.core import EngineConfig, Executor
from repro.experiments.common import calibrated_engine, compress_and_finetune, pretrained_model
from repro.experiments.common import test_loader_for as held_out_loader_for

SPEEDUP_TARGET = 5.0


def _timed_evaluate(executor, loader):
    executor.evaluate(loader)  # warm-up: touch caches and scratch
    start = time.perf_counter()
    accuracy = executor.evaluate(loader)
    return accuracy, time.perf_counter() - start


def test_kernel_throughput(scale):
    pretrained = pretrained_model("resnet14", "cifar10", scale, seed=0)
    result, _ = compress_and_finetune(pretrained, scale, finetune=False, seed=0)
    engine = calibrated_engine(
        result,
        pretrained,
        scale,
        config=EngineConfig(lut_bitwidth=8, calibration_batches=scale.calibration_batches),
    )
    loader = held_out_loader_for(pretrained, scale)
    images = sum(len(targets) for _, targets in loader)

    # Correctness first: with a full-precision LUT the two backends are
    # bit-exact per layer, so the logits must agree to float rounding.
    engine.set_lut_bitwidth(None)
    x = np.stack([loader.dataset[i][0] for i in range(min(8, images))])
    program = engine.compile(level="O2")
    plan_logits = Executor(program).run(x)
    reference_logits = Executor(program, backend="reference").run(x)
    np.testing.assert_allclose(plan_logits, reference_logits, rtol=1e-12, atol=1e-10)

    # Throughput on the deployment configuration (8-bit quantized LUT).
    engine.set_lut_bitwidth(8)
    program = engine.compile(level="O2")
    plan_acc, plan_s = _timed_evaluate(Executor(program), loader)
    reference_acc, reference_s = _timed_evaluate(
        Executor(program, backend="reference"), loader
    )
    speedup = reference_s / plan_s

    record = {
        "benchmark": "kernel_throughput",
        "network": "resnet14",
        "dataset": "cifar10",
        "scale": scale.name,
        "images": images,
        "level": "O2",
        "reference_seconds": round(reference_s, 4),
        "plan_seconds": round(plan_s, 4),
        "reference_images_per_second": round(images / reference_s, 2),
        "plan_images_per_second": round(images / plan_s, 2),
        "speedup": round(speedup, 2),
        "reference_accuracy": round(float(reference_acc), 4),
        "plan_accuracy": round(float(plan_acc), 4),
    }
    merge_bench_record("kernel", record)
    print()
    print(json.dumps(record, indent=2))

    assert plan_acc == reference_acc, "backends disagree on predictions"
    assert speedup >= SPEEDUP_TARGET, (
        f"plan backend is only {speedup:.2f}x faster than the reference "
        f"backend (target {SPEEDUP_TARGET}x)"
    )


def test_kernel_throughput_scale_fixture(scale):
    """The benchmark honours REPRO_BENCH_SCALE like every other benchmark."""
    assert scale.name == bench_scale().name
