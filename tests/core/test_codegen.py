"""Tests for the native (O4) codegen backend.

Covers the backend's contracts end to end:

* bit-exactness — at a pinned tile/shard configuration the native backend
  is bitwise identical to the plan backend on ResNet-14 and MobileNetV2
  (the two architectures exercising plain, strided, depthwise and grouped
  bit-serial convolutions) — skipped without a host C compiler;
* deterministic emission — the same program emits byte-identical C source
  and consts blobs twice (the build cache's correctness precondition);
* the no-compiler fallback — O4 degrades to the plan backend at effective
  level O3 with a surfaced ``fallback_reason`` (never silently), and a
  later bind on a capable host clears the fallback;
* artifact round-trips of the native build metadata (source + hashes),
  loadable without compiling anything;
* the autotuner's ``numerics: tile_reorder`` honesty flag — recorded
  exactly when the tile choice re-chunks the float convs' BLAS reductions,
  and never persisted into artifacts;
* serve ``/stats`` reporting the *active* backend and effective level.
"""

import numpy as np
import pytest

from repro.core import (
    BitSerialInferenceEngine,
    CompressionPolicy,
    EngineConfig,
    Executor,
    compile_network,
    compress_model,
    load_program,
    read_program_metadata,
    save_program,
)
from repro.core.codegen import emit_native
from repro.core.codegen.build import find_compiler
from repro.core.pipeline import PASS_STAGES, persistable_autotune
from repro.models import create_model
from repro.nn import DataLoader
from repro.nn.data.dataset import ArrayDataset

needs_cc = pytest.mark.skipif(
    find_compiler() is None, reason="no host C compiler available"
)


def _loader(seed=0, n=32):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, 3, 32, 32))
    targets = rng.integers(0, 10, size=n)
    return DataLoader(ArrayDataset(inputs, targets), batch_size=16)


def _calibrated_engine(model_name, seed=0):
    model = create_model(model_name, num_classes=10, in_channels=3, rng=seed)
    result = compress_model(
        model, (3, 32, 32), pool_size=16,
        policy=CompressionPolicy(group_size=8), seed=seed,
    )
    engine = BitSerialInferenceEngine(
        result.model,
        result.pool,
        EngineConfig(lut_bitwidth=8, calibration_batches=2),
    )
    engine.calibrate(_loader(seed))
    return engine


@pytest.fixture(scope="module")
def resnet_engine():
    return _calibrated_engine("resnet14_tiny")


def _fresh_program(engine, level):
    return compile_network(
        engine.model, (3, 32, 32),
        lut=engine.lut,
        activation_params=engine.activation_params,
        level=level,
    )


def _batch(n=13, seed=7):
    return np.random.default_rng(seed).normal(size=(n, 3, 32, 32))


# ---------------------------------------------------------------------------
# Bit-exactness against the plan oracle
# ---------------------------------------------------------------------------
@needs_cc
class TestBitExactness:
    def _assert_native_matches_plan(self, engine):
        # Same tile + serial shards on both sides: the only numerics caveat
        # of the planned path is the float convs' BLAS batch (tile) size,
        # so pinning it makes bitwise identity the contract, not luck.
        oracle = Executor(
            _fresh_program(engine, "O4"), backend="plan", tile=8, n_shards=1
        )
        native = Executor(
            _fresh_program(engine, "O4"), backend="native", tile=8, n_shards=1
        )
        assert native.backend == "native"
        assert native._native is not None
        counters = native._native.counters()
        assert counters["segments"] >= 1
        assert 0 < counters["native_steps"] <= counters["steps"]
        x = _batch()  # 13 samples: whole tiles plus a ragged tail
        np.testing.assert_array_equal(native.run(x), oracle.run(x))

    def test_resnet14_bitwise_identical(self, resnet_engine):
        self._assert_native_matches_plan(resnet_engine)

    def test_mobilenetv2_bitwise_identical(self):
        self._assert_native_matches_plan(_calibrated_engine("mobilenetv2_tiny"))

    def test_effective_level_and_codegen_report(self, resnet_engine):
        program = _fresh_program(resnet_engine, "O4")
        executor = Executor(program, backend="native", tile=8, n_shards=1)
        assert program.effective_opt_level == "O4"
        report = program.pipeline_report
        assert report["fallback_reason"] is None
        passes = {p["name"]: p for p in report["passes"]}
        assert "codegen" in passes and passes["codegen"]["stage"] == "codegen"
        # The registry's stage order is the order the stages ran in.
        stages = [p["stage"] for p in report["passes"]]
        assert stages == sorted(stages, key=PASS_STAGES.index)
        assert [p["name"] for p in report["passes"] if p["stage"] != "graph"] == [
            "autotune", "memory_plan", "codegen",
        ]
        assert passes["codegen"]["counters"]["native_steps"] > 0
        assert executor.plan_info["backend"] == "native"
        build = program.native_build
        assert build["abi"] == 1
        assert build["source"].startswith("/* Generated by repro.core.codegen")


# ---------------------------------------------------------------------------
# Deterministic emission (no compiler required)
# ---------------------------------------------------------------------------
def test_emission_is_deterministic(resnet_engine):
    program = _fresh_program(resnet_engine, "O2")
    executor = Executor(program, backend="plan", tile=8, n_shards=1)
    first = emit_native(program, executor._steps, executor.exec_plan)
    second = emit_native(program, executor._steps, executor.exec_plan)
    assert first.source == second.source
    assert first.consts == second.consts
    assert first.source_sha256 == second.source_sha256
    assert [s.name for s in first.segments] == [s.name for s in second.segments]


# ---------------------------------------------------------------------------
# No-compiler fallback (simulated; runs with or without a real compiler)
# ---------------------------------------------------------------------------
def test_no_compiler_falls_back_to_plan(resnet_engine, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cold-cache"))
    monkeypatch.setattr("repro.core.codegen.build.find_compiler", lambda: None)
    with pytest.warns(RuntimeWarning, match="no C compiler"):
        program = _fresh_program(resnet_engine, "O4")
    # The compile-time probe already surfaces the downgrade in the report.
    assert program.pipeline_report["fallback_reason"] == "no_compiler"
    assert program.effective_opt_level == "O3"
    with pytest.warns(RuntimeWarning, match="falling back"):
        executor = Executor(program, backend="native", tile=8, n_shards=1)
    assert executor.backend == "plan"
    assert executor.exec_plan is not None  # still the full O3 planned path
    assert executor.plan_info["backend"] == "plan"
    assert program.pipeline_report["effective_level"] == "O3"
    oracle = Executor(
        _fresh_program(resnet_engine, "O3"), backend="plan", tile=8, n_shards=1
    )
    x = _batch(n=5)
    np.testing.assert_array_equal(executor.run(x), oracle.run(x))


@needs_cc
def test_capable_host_rebind_clears_fallback(resnet_engine, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.codegen.build.find_compiler", lambda: None)
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            program = _fresh_program(resnet_engine, "O4")
    assert program.effective_opt_level == "O3"
    # The executor retries at bind time: with the compiler visible again the
    # native bind succeeds and clears the compile-time probe's fallback.
    executor = Executor(program, backend="native", tile=8, n_shards=1)
    assert executor.backend == "native"
    assert program.pipeline_report["fallback_reason"] is None
    assert program.effective_opt_level == "O4"


# ---------------------------------------------------------------------------
# Artifact round-trip of the native build (no compile involved)
# ---------------------------------------------------------------------------
def test_native_build_roundtrips_through_artifacts(resnet_engine, tmp_path):
    program = _fresh_program(resnet_engine, "O2")
    program.native_build = {
        "abi": 1,
        "source_sha256": "ab" * 32,
        "consts_sha256": "cd" * 32,
        "cflags": ["-O2", "-std=c99"],
        "compiler": "/usr/bin/cc",
        "cache_hit": False,
        "segments": 3,
        "native_steps": 22,
        "scratch_bytes": 4096,
        "source": "/* emitted C */\nint repro_marker;\n",
    }
    path = tmp_path / "native.npz"
    save_program(program, path)
    loaded = load_program(path)
    assert loaded.native_build == program.native_build
    # Header-only metadata exposes the build record without the source text.
    meta = read_program_metadata(path)
    assert meta["native"]["source_sha256"] == "ab" * 32
    assert "source" not in meta["native"]
    # Programs without a native bind round-trip unchanged.
    plain = _fresh_program(resnet_engine, "O2")
    save_program(plain, tmp_path / "plain.npz")
    assert load_program(tmp_path / "plain.npz").native_build is None


# ---------------------------------------------------------------------------
# Autotune numerics honesty flag (satellite of the native-bitwise contract)
# ---------------------------------------------------------------------------
def test_autotune_records_tile_reorder_numerics(resnet_engine, monkeypatch):
    # Constant fake timings make per-image cost = steps/tile, so the sweep
    # deterministically picks the largest candidate over the heuristic
    # default — a tile change, which re-chunks the float convs' BLAS
    # reductions and must be flagged.
    monkeypatch.setattr("repro.core.pipeline._time_call", lambda fn, reps: 1.0)
    executor = Executor(_fresh_program(resnet_engine, "O3"), backend="plan")
    decisions = executor.autotune
    assert decisions["tile"]["chosen"] != 16  # the heuristic default here
    assert decisions["numerics"] == "tile_reorder"
    # Kernel-variant winners are bitwise-invariant: the flag must never be
    # claimed for them, and never persisted into artifact headers.
    assert "numerics" not in persistable_autotune(decisions)


def test_autotune_no_numerics_flag_when_tile_pinned(resnet_engine):
    executor = Executor(_fresh_program(resnet_engine, "O3"), backend="plan", tile=16)
    assert executor.autotune is not None
    assert "numerics" not in executor.autotune


# ---------------------------------------------------------------------------
# Serve /stats surfaces the active backend and effective level
# ---------------------------------------------------------------------------
def _serve_snapshot(tmp_path, program):
    from repro.serve import InferenceServer, ModelRepository

    artifact = tmp_path / "model.npz"
    save_program(program, artifact)
    repository = ModelRepository(tmp_path / "repo", capacity=2)
    repository.publish_artifact(artifact, "model")
    with InferenceServer(repository) as server:
        sample = np.zeros((3, 32, 32))
        server.predict("model", sample, timeout=60.0)
        return server.snapshot()["model/1"]


@needs_cc
def test_serve_stats_report_native_backend(resnet_engine, tmp_path):
    snap = _serve_snapshot(tmp_path, _fresh_program(resnet_engine, "O4"))
    assert snap["executor"]["backend"] == "native"
    assert snap["pipeline"]["level"] == "O4"
    assert snap["pipeline"]["effective_level"] == "O4"
    assert snap["pipeline"]["fallback_reason"] is None


def test_serve_stats_surface_fallback(resnet_engine, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cold-cache"))
    program = _fresh_program(resnet_engine, "O4")  # may or may not warn here
    monkeypatch.setattr("repro.core.codegen.build.find_compiler", lambda: None)
    with pytest.warns(RuntimeWarning, match="falling back"):
        snap = _serve_snapshot(tmp_path, program)
    assert snap["executor"]["backend"] == "plan"
    assert snap["pipeline"]["level"] == "O4"
    assert snap["pipeline"]["effective_level"] == "O3"
    assert snap["pipeline"]["fallback_reason"] == "no_compiler"
