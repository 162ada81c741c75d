"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CompressionPolicy, compress_model
from repro.core.weight_pool import WeightPool
from repro.datasets import SyntheticCIFAR10, make_classification_split
from repro.models import create_model
from repro.nn import DataLoader


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_cifar():
    """A very small synthetic CIFAR-like train/test split shared across tests."""
    return make_classification_split(
        SyntheticCIFAR10, train_per_class=6, test_per_class=4, seed=0, noise_std=0.4
    )


@pytest.fixture(scope="session")
def tiny_loaders(tiny_cifar):
    train_ds, test_ds = tiny_cifar
    return (
        DataLoader(train_ds, batch_size=16, shuffle=True, rng=0),
        DataLoader(test_ds, batch_size=16),
    )


@pytest.fixture(scope="session")
def small_pool(rng) -> WeightPool:
    """A 16-entry pool of 8-element vectors used by unit tests."""
    return WeightPool(vectors=np.random.default_rng(3).normal(size=(16, 8)))


@pytest.fixture()
def small_model():
    """A small untrained model with layers eligible for compression."""
    return create_model("resnet_s_tiny", num_classes=10, in_channels=3, rng=0)


@pytest.fixture()
def mlp_engine():
    """A calibrated engine over a two-layer MLP fed ``(N, 32)`` batches.

    The lowering needs a ``(C, H, W)`` input, so this model only ever runs
    through the engine's per-layer runtime.  Returns ``(engine, loader)``.
    """
    from repro.core import BitSerialInferenceEngine, EngineConfig
    from repro.core.layers import WeightPoolLinear
    from repro.nn import Linear, Module, ReLU
    from repro.nn.data.dataset import ArrayDataset

    class MLP(Module):
        def __init__(self, pool):
            super().__init__()
            self.fc1 = WeightPoolLinear(32, 16, pool, rng=0)
            self.act = ReLU()
            self.fc2 = Linear(16, 10, rng=1)

        def forward(self, x):
            return self.fc2(self.act(self.fc1(x)))

    rng = np.random.default_rng(0)
    pool = WeightPool(vectors=rng.normal(size=(16, 8)))
    inputs = rng.normal(size=(32, 32))
    targets = rng.integers(0, 10, size=32)
    loader = DataLoader(ArrayDataset(inputs, targets), batch_size=16)
    engine = BitSerialInferenceEngine(
        MLP(pool), pool, EngineConfig(lut_bitwidth=8, calibration_batches=2)
    )
    engine.calibrate(loader)
    return engine, loader


@pytest.fixture()
def compressed_small_model(small_model):
    """The small model compressed with a 16-entry pool (no fine-tuning)."""
    return compress_model(
        small_model,
        (3, 32, 32),
        pool_size=16,
        policy=CompressionPolicy(group_size=8),
        seed=0,
    )
