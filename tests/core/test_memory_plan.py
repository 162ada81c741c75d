"""Property tests for the ahead-of-time execution planner.

The contract under test: the arena + fused + sharded executor (``O2``)
produces **bitwise identical** outputs to the interpreter walk over the same
graph passes (``O1``) at the same tile, and to its own single-shard run for
every shard count, including ragged final tiles — and tracks the reference
backend within the documented optimization tolerance.  The arena
layout itself is validated structurally: no two simultaneously-live
storages may share bytes (the aliasing regression a bad planner would hit
on overlapping lifetimes, e.g. residual shortcuts held across a block).
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    BitSerialInferenceEngine,
    CompressionPolicy,
    EngineConfig,
    Executor,
    PlanUnsupported,
    compile_network,
    compress_model,
    load_program,
    save_program,
    validate_arena_plan,
)
from repro.core.memory_plan import ArenaSlot
from repro.models import create_model
from repro.nn import DataLoader
from repro.nn.data.dataset import ArrayDataset


def _loader(seed=0, n=32, channels=3):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, channels, 32, 32))
    targets = rng.integers(0, 10, size=n)
    return DataLoader(ArrayDataset(inputs, targets), batch_size=16)


@pytest.fixture(scope="module", params=["resnet14_tiny", "mobilenetv2_tiny"])
def planned_engine(request):
    model = create_model(request.param, num_classes=10, in_channels=3, rng=0)
    result = compress_model(
        model, (3, 32, 32), pool_size=16,
        policy=CompressionPolicy(group_size=8), seed=0,
    )
    engine = BitSerialInferenceEngine(
        result.model,
        result.pool,
        EngineConfig(activation_bitwidth=8, lut_bitwidth=8, calibration_batches=2),
    )
    engine.calibrate(_loader())
    return engine


class TestBitExactness:
    """Arena + fused + sharded output must equal the interpreter walk's."""

    def test_planned_matches_interpreter_walk_bitwise(self, planned_engine):
        walk = Executor(planned_engine.compile(level="O1"), tile=4)
        planned = Executor(planned_engine.compile(level="O2"), n_shards=1, tile=4)
        assert walk.exec_plan is None and planned.exec_plan is not None
        # 13 samples over tile 4 → three full tiles and a ragged final one.
        x = np.random.default_rng(1).normal(size=(13, 3, 32, 32))
        expected = walk.run(x)
        np.testing.assert_array_equal(planned.run(x), expected)
        # Arenas and scratch are reused, never re-derived: run twice.
        np.testing.assert_array_equal(planned.run(x), expected)

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_sharded_matches_serial_bitwise(self, planned_engine, n_shards):
        program = planned_engine.compile(level="O2")
        x = np.random.default_rng(1).normal(size=(13, 3, 32, 32))
        serial = Executor(program, n_shards=1, tile=4).run(x)
        planned = Executor(program, n_shards=n_shards, tile=4)
        # The ragged batch splits across shards on whole-tile boundaries.
        np.testing.assert_array_equal(planned.run(x), serial)
        np.testing.assert_array_equal(planned.run(x), serial)

    def test_default_executors_agree(self, planned_engine):
        x = np.random.default_rng(2).normal(size=(16, 3, 32, 32))
        planned = Executor(planned_engine.compile(level="O2"))
        assert planned.exec_plan is not None, "O2 plan programs plan by default"
        walk = Executor(planned_engine.compile(level="O1"), tile=planned.tile)
        np.testing.assert_array_equal(planned.run(x), walk.run(x))

    def test_single_sample_and_empty_batches(self, planned_engine):
        planned = Executor(planned_engine.compile(level="O2"), n_shards=2, tile=4)
        walk = Executor(planned_engine.compile(level="O1"), tile=4)
        one = np.random.default_rng(3).normal(size=(1, 3, 32, 32))
        np.testing.assert_array_equal(planned.run(one), walk.run(one))
        empty = planned.run(np.empty((0, 3, 32, 32)))
        assert empty.shape == (0, 10)

    def test_tracks_reference_backend_predictions(self, planned_engine):
        """The whole planned stack against the tap-loop oracle: identical
        predictions, logits within the documented optimization tolerance."""
        program = planned_engine.compile(level="O2")
        x = np.random.default_rng(4).normal(size=(8, 3, 32, 32))
        planned = Executor(program, n_shards=2, tile=4).run(x)
        reference = Executor(
            planned_engine.compile(level="O0"), backend="reference"
        ).run(x)
        scale = max(float(np.abs(reference).max()), 1e-12)
        assert np.abs(planned - reference).max() < 1e-9 * scale
        np.testing.assert_array_equal(
            planned.argmax(axis=1), reference.argmax(axis=1)
        )

    def test_evaluate_accuracy_identical(self, planned_engine):
        loader = _loader(seed=7, n=48)
        walk_acc = Executor(planned_engine.compile(level="O1")).evaluate(loader)
        planned_acc = Executor(planned_engine.compile(level="O2"), n_shards=2).evaluate(loader)
        assert walk_acc == planned_acc


class TestConcurrentRuns:
    """One executor serves many threads — the contract the serving stack's
    shared executors rely on — on the interpreter walk and the plan."""

    @pytest.mark.parametrize(
        "level, backend",
        [("O0", "plan"), ("O1", "plan"), ("O0", "reference"), ("O2", "plan")],
    )
    def test_threads_match_serial_bitwise(self, planned_engine, level, backend):
        executor = Executor(planned_engine.compile(level=level), backend=backend)
        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 20, size=24)
        batches = [rng.normal(size=(int(n), 3, 32, 32)) for n in sizes]
        serial = [executor.run(batch) for batch in batches]
        # More threads than cores, switching often: interleavings that a
        # shared intermediate or a lost update would corrupt.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as threads:
                futures = [threads.submit(executor.run, batch) for batch in batches]
                concurrent = [future.result(timeout=300.0) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, expected in zip(concurrent, serial):
            np.testing.assert_array_equal(got, expected)


class TestArenaPlan:
    def test_no_live_overlap_on_residual_networks(self, planned_engine):
        """Overlapping-lifetime regression: residual shortcuts keep a buffer
        live across a whole block — simultaneously-live storages must never
        share arena bytes (validate_arena_plan raises on bad aliasing)."""
        executor = Executor(planned_engine.compile(level="O2"))
        plan = executor.exec_plan
        validate_arena_plan(plan)
        # The planner found some reuse: the arena is smaller than the sum of
        # every storage's slot (lifetimes are disjoint somewhere).
        total = sum(s.nbytes for s in plan.slots.values() if s.reused_from is None)
        assert plan.arena_bytes <= total

    def test_validator_catches_bad_aliasing(self, planned_engine):
        executor = Executor(planned_engine.compile(level="O2"))
        plan = executor.exec_plan
        # Corrupt the plan: force two live storages onto the same offset.
        live = [
            (sid, slot) for sid, slot in plan.slots.items() if slot.reused_from is None
        ]
        (sid_a, a), (sid_b, b) = live[0], live[1]
        bad = dict(plan.slots)
        bad[sid_b] = ArenaSlot(
            offset=a.offset, nbytes=b.nbytes,
            first_def=a.first_def, last_use=a.last_use,
        )
        corrupted = replace(plan, slots=bad)
        with pytest.raises(AssertionError, match="aliases live storages"):
            validate_arena_plan(corrupted)

    def test_counters_reported_in_metadata(self, planned_engine):
        program = planned_engine.compile(level="O2")
        executor = Executor(program, n_shards=3)
        info = executor.plan_info
        assert info["arena_bytes"] > 0
        assert info["steps_fused"] > 0
        assert info["steps"] < info["ops"]
        assert info["n_shards"] == 3
        meta = program.metadata()
        assert meta["execution_plan"]["arena_bytes"] == info["arena_bytes"]
        assert meta["execution_plan"]["steps_fused"] == info["steps_fused"]

    def test_arena_below_sum_of_buffer_bytes(self, planned_engine):
        """The packed arena beats giving every intermediate buffer its own
        allocation at the plan's tile (liveness reuse is real)."""
        plan = Executor(planned_engine.compile(level="O2")).exec_plan
        unshared = sum(
            spec.tile_nbytes(plan.tile)
            for buf, spec in plan.specs.items()
            if buf not in (plan.input_id, plan.output_id)
        )
        assert 0 < plan.arena_bytes < unshared


class TestPlanSelection:
    def test_o0_o1_and_reference_programs_use_the_interpreter(self, planned_engine):
        for level in ("O0", "O1"):
            assert Executor(planned_engine.compile(level=level)).exec_plan is None
        optimized = planned_engine.compile(level="O2")
        assert Executor(optimized, backend="reference").exec_plan is None

    @pytest.mark.parametrize("level", ["O2", "O3"])
    @pytest.mark.parametrize("tile", [None, 0, 8])
    def test_tile_reports_the_planned_tile(self, planned_engine, level, tile):
        executor = Executor(planned_engine.compile(level=level), tile=tile, n_shards=1)
        assert executor.tile == executor.exec_plan.tile == executor.plan_info["tile"]
        if tile:
            assert executor.tile == tile

    def test_structural_program_cannot_be_planned(self, compressed_small_model):
        program = compile_network(compressed_small_model.model, (3, 32, 32))
        with pytest.raises(RuntimeError):
            Executor(program, backend="plan")

    def test_planner_error_raises_instead_of_falling_back(
        self, planned_engine, monkeypatch
    ):
        import repro.core.memory_plan as memory_plan

        def unsupported(program, steps):
            raise PlanUnsupported("cannot type this schedule")

        program = compile_network(
            planned_engine.model, (3, 32, 32), lut=planned_engine.lut,
            activation_params=planned_engine.activation_params, level="O2",
        )
        monkeypatch.setattr(memory_plan, "infer_buffer_specs", unsupported)
        with pytest.raises(PlanUnsupported, match="cannot type"):
            Executor(program)

    def test_active_bits_flow_through_the_plan(self, planned_engine):
        program = planned_engine.compile(level="O2")
        full = Executor(program)
        truncated = Executor(program, active_bits=4)
        x = np.random.default_rng(6).normal(size=(4, 3, 32, 32))
        assert not np.allclose(full.run(x), truncated.run(x))


class TestSerializedPrograms:
    def test_loaded_program_plans_and_matches(self, planned_engine, tmp_path):
        """Plans survive save/load: a loaded artifact re-plans from the IR
        and executes bitwise-identically to the original planned executor."""
        program = planned_engine.compile(level="O2")
        x = np.random.default_rng(8).normal(size=(10, 3, 32, 32))
        expected = Executor(program, n_shards=2, tile=4).run(x)
        path = tmp_path / "program.npz"
        save_program(program, path)
        loaded = load_program(path)
        loaded_exec = Executor(loaded, n_shards=2, tile=4)
        assert loaded_exec.exec_plan is not None
        np.testing.assert_array_equal(loaded_exec.run(x), expected)

    def test_saved_metadata_carries_plan_counters(self, planned_engine, tmp_path):
        from repro.core import read_program_metadata

        program = planned_engine.compile(level="O2")
        Executor(program)  # attaches plan counters to the program
        path = tmp_path / "program.npz"
        save_program(program, path)
        meta = read_program_metadata(path)
        assert meta["execution_plan"]["arena_bytes"] > 0
