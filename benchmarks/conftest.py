"""Shared helpers for the benchmark harness.

Every file under ``benchmarks/`` regenerates one table or figure of the paper
(see DESIGN.md §4).  Each benchmark:

* runs the corresponding experiment runner once (via pytest-benchmark's
  pedantic mode so the wall-clock cost of regenerating the result is recorded),
* prints the reproduced rows next to the paper's numbers,
* asserts the qualitative shape the paper reports (who wins, how trends move).

The scale preset defaults to ``tiny`` and can be overridden with the
``REPRO_BENCH_SCALE`` environment variable (``tiny`` / ``small`` / ``full``).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.scale import get_scale


def bench_scale():
    """Scale preset used by the training-backed benchmarks."""
    return get_scale(os.environ.get("REPRO_BENCH_SCALE", "tiny"))


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


def run_experiment(benchmark, runner, **kwargs):
    """Execute an experiment runner exactly once under pytest-benchmark."""
    result = benchmark.pedantic(lambda: runner(**kwargs), rounds=1, iterations=1)
    print()
    print(result.to_table())
    return result


# The streaming benchmarks' shared model: tinyconv at 64x64 (a shallow,
# bitserial-dominated graph on a frame large enough that receptive-field
# dilation leaves most tiles clean), compiled once per pytest session.
_STREAM_PREPARED = {}


def stream_prepared(image_size: int = 64):
    """(optimized program, engine) of tinyconv at ``image_size``, cached."""
    if image_size not in _STREAM_PREPARED:
        import numpy as np

        from repro.core import (
            BitSerialInferenceEngine,
            CompressionPolicy,
            EngineConfig,
            compress_model,
        )
        from repro.models import create_model
        from repro.nn import DataLoader
        from repro.nn.data.dataset import ArrayDataset

        model = create_model(
            "tinyconv", num_classes=10, in_channels=3, rng=0, image_size=image_size
        )
        result = compress_model(
            model, (3, image_size, image_size), pool_size=16,
            policy=CompressionPolicy(group_size=8), seed=0,
        )
        rng = np.random.default_rng(0)
        loader = DataLoader(
            ArrayDataset(
                rng.normal(size=(32, 3, image_size, image_size)),
                rng.integers(0, 10, size=32),
            ),
            batch_size=16,
        )
        engine = BitSerialInferenceEngine(
            result.model, result.pool,
            EngineConfig(activation_bitwidth=8, lut_bitwidth=8, calibration_batches=2),
        )
        engine.calibrate(loader)
        _STREAM_PREPARED[image_size] = (engine.compile(level="O2"), engine)
    return _STREAM_PREPARED[image_size]
