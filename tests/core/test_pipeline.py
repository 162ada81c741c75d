"""Tests for the pass-manager compiler pipeline.

Covers the pipeline's contracts end to end:

* the registry (every documented pass registered at its stage/level) and the
  level/pass-name validation (unknown names fail loudly, listing choices);
* the IR verifier (valid programs pass; corrupted SSA / shapes / dtypes /
  epilogue claims fail naming the op);
* pass idempotency (running any registered graph pass twice changes
  nothing);
* optimization-level equivalence — ``O0``–``O3`` programs produce identical
  predictions on ResNet-14 and match the reference-backend oracle;
* the ``O3`` autotuner (recorded decisions, bitwise-identical outputs);
* MobileNetV2 compiled end-to-end through the pipeline (depthwise/grouped
  conv lowering) against the reference-backend oracle;
* artifact round-trips preserving the pipeline config + per-pass reports.
"""

import numpy as np
import pytest

from repro.core import (
    OPT_LEVELS,
    PASS_REGISTRY,
    BitSerialInferenceEngine,
    CompressionPolicy,
    EngineConfig,
    Executor,
    PassManager,
    VerificationError,
    compile_network,
    compress_model,
    load_program,
    read_program_metadata,
    registered_passes,
    save_program,
    verify_program,
)
from repro.models import create_model
from repro.nn import DataLoader
from repro.nn.data.dataset import ArrayDataset


def _loader(seed=0, n=32):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, 3, 32, 32))
    targets = rng.integers(0, 10, size=n)
    return DataLoader(ArrayDataset(inputs, targets), batch_size=16)


def _calibrated_engine(model_name, seed=0, lut_bitwidth=8, **config_kwargs):
    model = create_model(model_name, num_classes=10, in_channels=3, rng=seed)
    result = compress_model(
        model, (3, 32, 32), pool_size=16,
        policy=CompressionPolicy(group_size=8), seed=seed,
    )
    engine = BitSerialInferenceEngine(
        result.model,
        result.pool,
        EngineConfig(lut_bitwidth=lut_bitwidth, calibration_batches=2, **config_kwargs),
    )
    engine.calibrate(_loader(seed))
    return engine


@pytest.fixture(scope="module")
def resnet_engine():
    return _calibrated_engine("resnet14_tiny")


@pytest.fixture(scope="module")
def mobilenet_engine():
    return _calibrated_engine("mobilenetv2_tiny")


def _fresh_program(engine, level, **kwargs):
    """A freshly-compiled program (not the engine's cached executor's), so
    tests that corrupt the IR never poison shared state."""
    return compile_network(
        engine.model, (3, 32, 32),
        lut=engine.lut,
        activation_params=engine.activation_params,
        level=level,
        **kwargs,
    )


class TestRegistry:
    def test_documented_passes_are_registered(self):
        expected = {
            "fold_batchnorm": ("graph", "O1"),
            "fuse_requantize": ("graph", "O1"),
            "dedupe_quantize": ("graph", "O1"),
            "fold_activation_into_quantize": ("graph", "O1"),
            "memory_plan": ("schedule", "O2"),
            "autotune": ("tune", "O3"),
        }
        for name, (stage, level) in expected.items():
            assert name in PASS_REGISTRY, f"pass '{name}' not registered"
            assert PASS_REGISTRY[name].stage == stage
            assert PASS_REGISTRY[name].level == level

    def test_levels_enable_monotonically(self):
        counts = [len(PassManager(level=level).enabled("graph")) for level in OPT_LEVELS]
        assert counts == sorted(counts)
        assert counts[0] == 0  # O0 = reference lowering, no graph passes
        assert counts[1] == len(registered_passes("graph"))

    def test_every_graph_pass_has_counters_declared(self):
        for pass_ in registered_passes("graph"):
            assert pass_.counters, f"pass '{pass_.name}' declares no report counters"
            assert pass_.rewrites


class TestValidation:
    """Unknown level/pass names fail loudly listing the valid choices."""

    def test_unknown_level_rejected_listing_choices(self, compressed_small_model):
        with pytest.raises(ValueError, match="O0, O1, O2, O3"):
            compile_network(compressed_small_model.model, (3, 32, 32), level="O7")

    def test_unknown_pass_rejected_listing_registered(self, compressed_small_model):
        with pytest.raises(ValueError, match="fold_batchnorm"):
            compile_network(
                compressed_small_model.model, (3, 32, 32), passes=["not_a_pass"]
            )

    def test_non_graph_pass_cannot_be_selected_explicitly(self, compressed_small_model):
        with pytest.raises(ValueError, match="graph-stage"):
            compile_network(
                compressed_small_model.model, (3, 32, 32), passes=["autotune"]
            )

    def test_engine_config_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="O0, O1, O2, O3"):
            EngineConfig(opt_level="O9")

    def test_engine_compile_rejects_unknown_level(self, resnet_engine):
        with pytest.raises(ValueError, match="valid levels"):
            resnet_engine.compile(level="turbo")

    def test_misconfiguration_fails_before_lowering(self):
        # Validation happens before any model work, so even a model that
        # cannot lower reports the configuration error first.
        from repro.nn import Module

        class Opaque(Module):
            def forward(self, x):
                return x

        with pytest.raises(ValueError, match="valid levels"):
            compile_network(Opaque(), (3, 32, 32), level="Ofast")


class TestVerifier:
    def test_compiled_programs_verify(self, resnet_engine):
        for level in OPT_LEVELS[:3]:  # O3 == O2 at the IR level
            program = resnet_engine.compile(level=level)
            counters = verify_program(program)
            assert counters["ops"] == len(program.ops)
            assert counters["ssa_checks"] == len(program.ops)
            assert counters["consumer_checks"] == (
                program.count("bitserial_conv") + program.count("bitserial_linear")
            )

    def test_structural_programs_verify(self, compressed_small_model):
        program = compile_network(compressed_small_model.model, (3, 32, 32), level="O0")
        counters = verify_program(program)
        assert counters["dtype_checks"] == 0  # unbound: no dtype propagation

    def test_ssa_violation_detected(self, resnet_engine):
        program = _fresh_program(resnet_engine, "O1")
        program.ops[3].output = program.ops[1].output
        with pytest.raises(VerificationError, match="written more than once"):
            verify_program(program)

    def test_use_before_def_detected(self, resnet_engine):
        program = _fresh_program(resnet_engine, "O1")
        program.ops[0].inputs = (program.num_buffers + 7,)
        with pytest.raises(VerificationError, match="before any op defines it"):
            verify_program(program)

    def test_shape_mismatch_detected_and_names_the_op(self, resnet_engine):
        program = _fresh_program(resnet_engine, "O1")
        bad = next(op for op in program.ops if op.kind == "bitserial_conv")
        bad.out_shape = (bad.out_shape[0] + 1,) + bad.out_shape[1:]
        with pytest.raises(VerificationError, match=bad.name):
            verify_program(program)

    def test_missing_epilogue_detected(self, resnet_engine):
        program = _fresh_program(resnet_engine, "O1")
        victim = next(op for op in program.ops if op.kind == "requantize")
        victim.kind = "activation"
        victim.attrs["fn"] = "relu"
        with pytest.raises(VerificationError, match="dequantize/requantize epilogue"):
            verify_program(program)

    def test_integer_pool_on_float_buffer_detected(self, resnet_engine):
        program = _fresh_program(resnet_engine, "O0")
        pool = next(op for op in program.ops if op.kind == "pool")
        pool.attrs["integer"] = True  # claims an integer input it doesn't have
        with pytest.raises(VerificationError, match="integer-marked pool"):
            verify_program(program)

    def test_debug_mode_verifies_between_passes(self, resnet_engine):
        program = resnet_engine.compile(level="O2")  # debug off: exit-only
        assert program.pipeline_report["verifier_runs"] == 1
        debug = _fresh_program(resnet_engine, "O2", debug=True)
        graph_passes = len(registered_passes("graph"))
        assert debug.pipeline_report["verifier_runs"] == graph_passes + 1
        assert debug.pipeline_report["debug"] is True


class TestPassIdempotency:
    """Running any registered graph pass twice changes nothing."""

    @pytest.fixture(scope="class")
    def programs(self, resnet_engine):
        return resnet_engine  # alias for readability

    @pytest.mark.parametrize("name", ["fold_batchnorm", "fuse_requantize",
                                      "dedupe_quantize", "fold_activation_into_quantize"])
    def test_second_run_is_a_no_op(self, resnet_engine, name):
        program = _fresh_program(resnet_engine, "O1")
        kinds = program.kinds()
        pass_ = PASS_REGISTRY[name]
        counters = pass_.fn(program)
        assert all(v == 0 for v in counters.values()), (
            f"pass '{name}' reported work on a second run: {counters}"
        )
        assert program.kinds() == kinds
        verify_program(program)

    def test_outputs_stable_after_reapplying_every_pass(self, resnet_engine):
        once = resnet_engine.compile(level="O1")
        x = np.random.default_rng(11).normal(size=(4, 3, 32, 32))
        expected = Executor(once).run(x)
        twice = _fresh_program(resnet_engine, "O1")
        for pass_ in registered_passes("graph"):
            pass_.fn(twice)  # re-apply the whole stage a second time
        assert twice.kinds() == once.kinds()
        np.testing.assert_array_equal(Executor(twice).run(x), expected)


class TestLevelEquivalence:
    """O0..O3 are prediction-identical on ResNet-14 and match the oracle."""

    @pytest.fixture(scope="class")
    def executors(self, resnet_engine):
        return {level: resnet_engine._executor(level=level) for level in OPT_LEVELS}

    def test_level_stages_engage_as_documented(self, executors):
        assert executors["O0"].exec_plan is None
        assert not executors["O0"].program.optimized
        assert executors["O1"].exec_plan is None
        assert executors["O1"].program.optimized
        assert executors["O2"].exec_plan is not None
        assert executors["O2"].autotune is None
        assert executors["O3"].exec_plan is not None
        assert executors["O3"].autotune is not None

    def test_predictions_identical_across_levels_and_oracle(self, resnet_engine, executors):
        x = np.random.default_rng(21).normal(size=(9, 3, 32, 32))
        oracle = Executor(executors["O0"].program, backend="reference").run(x)
        oracle_pred = oracle.argmax(axis=1)
        outputs = {level: executor.run(x) for level, executor in executors.items()}
        # O0 on the plan backend matches the reference backend.
        scale = max(float(np.abs(oracle).max()), 1e-12)
        assert np.abs(outputs["O0"] - oracle).max() < 1e-9 * scale
        # O1 (interpreter walk) and O2 (planned) share the heuristic tile:
        # bitwise identical.  O3's tuned kernel variants are bitwise
        # identical too, compared at O3's (possibly retuned) tile — the tile
        # itself only reorders the float stem conv's BLAS reduction, which
        # is the same caveat the auto-tile heuristic always had.
        np.testing.assert_array_equal(outputs["O1"], outputs["O2"])
        same_tile = Executor(
            executors["O2"].program, tile=executors["O3"].exec_plan.tile,
        )
        np.testing.assert_array_equal(outputs["O3"], same_tile.run(x))
        for level, out in outputs.items():
            np.testing.assert_array_equal(out.argmax(axis=1), oracle_pred, err_msg=level)

    def test_evaluate_accuracy_identical_across_levels(self, executors):
        loader = _loader(seed=5, n=32)
        accuracies = {level: ex.evaluate(loader) for level, ex in executors.items()}
        assert len(set(accuracies.values())) == 1, accuracies


class TestAutotune:
    def test_decisions_recorded_per_layer(self, resnet_engine):
        executor = resnet_engine._executor(level="O3")
        decisions = executor.plan_info["autotune"]
        bitserial = executor.program.count("bitserial_conv") + executor.program.count(
            "bitserial_linear"
        )
        assert decisions["layers_tuned"] == bitserial == len(decisions["layers"])
        for pick in decisions["layers"].values():
            assert pick["tap_gather"] in ("fused", "per_tap")
            assert pick["encoder"] in ("packbits", "bitmul")
            assert pick["candidate_ms"]
        assert decisions["tile"]["chosen"] == executor.exec_plan.tile
        assert decisions["n_shards"]["chosen"] == executor.n_shards
        assert decisions["trials"] > 0

    def test_report_travels_with_the_program(self, resnet_engine):
        program = resnet_engine.compile(level="O3")
        names = [p["name"] for p in program.pipeline_report["passes"]]
        assert "autotune" in names and "memory_plan" in names
        meta = program.metadata()
        assert meta["opt_level"] == "O3"
        assert meta["execution_plan"]["autotune"]["layers_tuned"] > 0

    def test_explicit_tile_and_shards_are_respected(self, resnet_engine):
        program = resnet_engine.compile(level="O3")
        executor = Executor(program, tile=4, n_shards=2)
        assert executor.exec_plan.tile == 4
        assert executor.n_shards == 2
        assert executor.autotune["n_shards"]["basis"] == "fixed"


class TestMobileNetV2Pipeline:
    """Tiny MobileNetV2 end to end: depthwise/grouped conv through the
    compiled pipeline, against the reference-backend oracle."""

    def test_program_contains_grouped_depthwise_convs(self, mobilenet_engine):
        program = mobilenet_engine.compile(level="O2")
        depthwise = [
            op for op in program.ops
            if op.kind == "conv" and op.attrs.get("groups", 1) > 1
        ]
        assert depthwise, "MobileNetV2 must lower its depthwise convs as grouped conv ops"
        for op in depthwise:
            # Depthwise: one group per channel, weight shape (C, 1, 3, 3).
            assert op.attrs["groups"] == op.attrs["in_channels"]
            assert op.attrs["weight"].shape[1] == 1
        assert program.count("bitserial_conv") > 0  # pointwise convs compressed

    def test_plan_backend_matches_reference_oracle(self, mobilenet_engine):
        x = np.random.default_rng(31).normal(size=(5, 3, 32, 32))
        oracle = Executor(
            mobilenet_engine.compile(level="O0"), backend="reference"
        ).run(x)
        # Every level tracks the oracle within the documented float
        # tolerance, with identical predictions.
        for level in ("O0", "O2", "O3"):
            out = mobilenet_engine._executor(level=level).run(x)
            scale = max(float(np.abs(oracle).max()), 1e-12)
            assert np.abs(out - oracle).max() < 1e-9 * scale, level
            np.testing.assert_array_equal(out.argmax(axis=1), oracle.argmax(axis=1))

    def test_evaluate_matches_oracle_accuracy(self, mobilenet_engine):
        loader = _loader(seed=9, n=32)
        graph_acc = mobilenet_engine.evaluate(loader)
        oracle = Executor(mobilenet_engine.compile(level="O0"), backend="reference")
        assert graph_acc == oracle.evaluate(loader)


class TestArtifactRoundTrip:
    """Pipeline config + per-pass reports survive save/load header-only."""

    def test_round_trip_preserves_pipeline_report(self, resnet_engine, tmp_path):
        program = resnet_engine.compile(level="O3")
        path = tmp_path / "program.npz"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.opt_level == "O3"
        assert loaded.pipeline_report == program.pipeline_report
        # A fresh executor replays the artifact's recorded kernel winners
        # deterministically — no re-benchmarking on load.  Tile and shard
        # choices are host properties: not persisted, re-derived per bind.
        executor = Executor(loaded)
        assert executor.exec_plan is not None
        assert executor.autotune is not None
        assert executor.autotune.get("reused") is True
        assert executor.autotune["trials"] == 0
        recorded = next(
            p for p in program.pipeline_report["passes"] if p["name"] == "autotune"
        )["decisions"]
        assert set(recorded) == {"layers"}  # nothing host-specific persisted
        for key, pick in executor.autotune["layers"].items():
            assert pick["tap_gather"] == recorded["layers"][key]["tap_gather"]
            assert pick["encoder"] == recorded["layers"][key]["encoder"]

    def test_metadata_header_only_shows_pipeline(self, resnet_engine, tmp_path):
        program = resnet_engine.compile(level="O2")
        path = tmp_path / "program.npz"
        save_program(program, path)
        meta = read_program_metadata(path)
        assert meta["opt_level"] == "O2"
        names = [p["name"] for p in meta["pipeline"]["passes"]]
        assert "fold_batchnorm" in names and "memory_plan" in names
        assert meta["pipeline"]["verifier_runs"] >= 1

    def test_legacy_artifacts_without_pipeline_still_load(self, resnet_engine, tmp_path):
        program = resnet_engine.compile(level="O2")
        program.opt_level = None
        program.pipeline_report = None  # simulate a pre-pass-manager artifact
        path = tmp_path / "legacy.npz"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.opt_level is None
        assert loaded.effective_opt_level == "O2"  # inferred from `optimized`
        assert Executor(loaded).exec_plan is not None
