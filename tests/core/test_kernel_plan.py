"""Property tests for the compiled kernel plans.

The central contract: plan-based execution is **bit-exact** with the legacy
tap-loop kernels (`bitserial_conv2d_reference` / `bitserial_linear_reference`)
for full-precision LUTs, across random shapes, strides, paddings, activation
bitwidths, `active_bits` truncations, and both §4.3 dispatch branches.
Quantized LUTs accumulate in integers, so the plan result equals the integer
sum times the LUT scale — compared against the reference with a tight
relative tolerance (the reference multiplies each entry by the scale before
summing).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitSerialInferenceEngine, EngineConfig, Executor
from repro.core.bitserial import (
    bit_vector_values,
    bitserial_conv2d,
    bitserial_conv2d_reference,
    bitserial_dot,
    bitserial_linear,
    bitserial_linear_reference,
)
from repro.core.kernel_plan import ConvKernelPlan, compile_conv_plan, compile_linear_plan
from repro.core.lut import build_lut
from repro.core.weight_pool import WeightPool
from repro.nn import DataLoader
from repro.nn.data.dataset import ArrayDataset
from repro.utils.bits import min_uint_dtype


@pytest.fixture(scope="module")
def pool():
    return WeightPool(np.random.default_rng(11).normal(size=(16, 8)))


@pytest.fixture(scope="module")
def lut(pool):
    return build_lut(pool)


class TestCompactDtypes:
    def test_min_uint_dtype(self):
        assert min_uint_dtype(255) == np.uint8
        assert min_uint_dtype(256) == np.uint16
        assert min_uint_dtype(1 << 16) == np.uint32
        with pytest.raises(ValueError):
            min_uint_dtype(-1)

    def test_bit_vector_values_uint8_for_paper_group_size(self):
        groups = np.random.default_rng(0).integers(0, 256, size=(4, 8))
        addresses = bit_vector_values(groups, 8)
        assert addresses.dtype == np.uint8

    def test_bit_vector_values_uint16_for_wide_groups(self):
        groups = np.random.default_rng(0).integers(0, 4, size=(4, 12))
        assert bit_vector_values(groups, 2).dtype == np.uint16

    def test_quantized_plan_uses_integer_tables(self, pool, lut):
        indices = np.zeros((2, 2, 3, 3), dtype=int)
        plan8 = compile_conv_plan(indices, lut.quantize(8), act_bitwidth=8)
        assert plan8.integer
        assert plan8.tables.dtype == np.int16  # 8-bit entries × 8-bit weights
        plan16 = compile_conv_plan(indices, lut.quantize(16), act_bitwidth=8)
        assert plan16.tables.dtype == np.int32

    def test_full_precision_plan_keeps_float64(self, lut):
        plan = compile_conv_plan(np.zeros((2, 2, 3, 3), dtype=int), lut)
        assert not plan.integer
        assert plan.tables.dtype == np.float64


class TestConvPlanExactness:
    @given(
        seed=st.integers(0, 1000),
        act_bitwidth=st.integers(1, 8),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        kh=st.integers(1, 3),
        kw=st.integers(1, 3),
        filters=st.integers(1, 24),  # crosses the pool size (16): both branches
        use_active_bits=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_exact_with_reference(
        self, pool, lut, seed, act_bitwidth, stride, padding, kh, kw, filters, use_active_bits
    ):
        rng = np.random.default_rng(seed)
        groups = int(rng.integers(1, 3))
        h = int(rng.integers(max(kh - 2 * padding, 1), 7))
        w = int(rng.integers(max(kw - 2 * padding, 1), 7))
        q_x = rng.integers(0, 1 << act_bitwidth, size=(2, groups * 8, h, w))
        indices = rng.integers(0, pool.size, size=(filters, groups, kh, kw))
        pad_value = int(rng.integers(0, 1 << act_bitwidth))
        active = int(rng.integers(1, act_bitwidth + 1)) if use_active_bits else None

        plan = compile_conv_plan(
            indices, lut, stride=stride, padding=padding,
            act_bitwidth=act_bitwidth, pad_value=pad_value,
        )
        expected_mode = "direct" if filters <= pool.size else "precompute"
        assert plan.mode == expected_mode
        out = plan(q_x, active_bits=active)
        ref = bitserial_conv2d_reference(
            q_x, indices, lut, stride, padding,
            act_bitwidth=act_bitwidth, active_bits=active, pad_value=pad_value,
        )
        np.testing.assert_array_equal(out, ref)

    @given(seed=st.integers(0, 500), lut_bitwidth=st.integers(2, 16))
    @settings(max_examples=25, deadline=None)
    def test_quantized_lut_close_to_reference(self, pool, lut, seed, lut_bitwidth):
        rng = np.random.default_rng(seed)
        qlut = lut.quantize(lut_bitwidth)
        q_x = rng.integers(0, 256, size=(2, 8, 5, 5))
        indices = rng.integers(0, pool.size, size=(4, 1, 3, 3))
        plan = compile_conv_plan(indices, qlut, stride=1, padding=1, act_bitwidth=8)
        ref = bitserial_conv2d_reference(q_x, indices, qlut, 1, 1, act_bitwidth=8)
        # Integer accumulation vs per-entry float dequantization: equal up to
        # float rounding of the final rescale.
        scale = max(np.abs(ref).max(), 1.0)
        assert np.abs(plan(q_x) - ref).max() <= 1e-9 * scale

    def test_empty_batch(self, pool, lut):
        indices = np.zeros((4, 2, 3, 3), dtype=int)
        plan = compile_conv_plan(indices, lut, stride=1, padding=1)
        out = plan(np.zeros((0, 16, 6, 6), dtype=int))
        assert out.shape == (0, 4, 6, 6)

    def test_matches_bitserial_dot_single_tap(self, pool, lut):
        rng = np.random.default_rng(3)
        q = rng.integers(0, 256, size=8)
        for pool_index in (0, 7, 15):
            indices = np.full((1, 1, 1, 1), pool_index)
            plan = compile_conv_plan(indices, lut, act_bitwidth=8)
            out = plan(q.reshape(1, 8, 1, 1))
            assert out.shape == (1, 1, 1, 1)
            assert out[0, 0, 0, 0] == pytest.approx(bitserial_dot(q, pool_index, lut, 8))

    def test_public_kernel_is_plan_backed_and_exact(self, pool, lut):
        rng = np.random.default_rng(4)
        q_x = rng.integers(0, 256, size=(2, 16, 6, 6))
        indices = rng.integers(0, pool.size, size=(5, 2, 3, 3))
        out = bitserial_conv2d(q_x, indices, lut, stride=2, padding=1, act_bitwidth=8)
        ref = bitserial_conv2d_reference(q_x, indices, lut, 2, 1, act_bitwidth=8)
        np.testing.assert_array_equal(out, ref)

    def test_float32_tables_trade_exactness_for_memory(self, pool, lut):
        rng = np.random.default_rng(5)
        q_x = rng.integers(0, 256, size=(1, 8, 5, 5))
        indices = rng.integers(0, pool.size, size=(3, 1, 3, 3))
        plan = compile_conv_plan(indices, lut, padding=1, table_dtype=np.float32)
        assert plan.tables.dtype == np.float32
        ref = bitserial_conv2d_reference(q_x, indices, lut, 1, 1, act_bitwidth=8)
        np.testing.assert_allclose(plan(q_x), ref, rtol=1e-4)


class TestLinearPlanExactness:
    @given(
        seed=st.integers(0, 500),
        act_bitwidth=st.integers(1, 8),
        out_features=st.integers(1, 24),
        use_active_bits=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_bit_exact_with_reference(
        self, pool, lut, seed, act_bitwidth, out_features, use_active_bits
    ):
        rng = np.random.default_rng(seed)
        groups = int(rng.integers(1, 5))
        q_x = rng.integers(0, 1 << act_bitwidth, size=(3, groups * 8))
        indices = rng.integers(0, pool.size, size=(out_features, groups))
        active = int(rng.integers(1, act_bitwidth + 1)) if use_active_bits else None
        plan = compile_linear_plan(indices, lut, act_bitwidth=act_bitwidth)
        out = plan(q_x, active_bits=active)
        ref = bitserial_linear_reference(
            q_x, indices, lut, act_bitwidth=act_bitwidth, active_bits=active
        )
        np.testing.assert_array_equal(out, ref)

    def test_public_kernel_is_plan_backed_and_exact(self, pool, lut):
        rng = np.random.default_rng(6)
        q_x = rng.integers(0, 256, size=(4, 24))
        indices = rng.integers(0, pool.size, size=(7, 3))
        np.testing.assert_array_equal(
            bitserial_linear(q_x, indices, lut),
            bitserial_linear_reference(q_x, indices, lut),
        )


class TestFusedEpilogue:
    def test_conv_epilogue_matches_manual_dequantization(self, pool, lut):
        rng = np.random.default_rng(7)
        q_x = rng.integers(0, 256, size=(2, 8, 5, 5))
        indices = rng.integers(0, pool.size, size=(4, 1, 3, 3))
        scale, zero_point = 0.037, 9
        bias = rng.normal(size=4)
        plan = compile_conv_plan(
            indices, lut, stride=1, padding=1, act_bitwidth=8,
            pad_value=zero_point, scale=scale, zero_point=zero_point, bias=bias,
        )
        raw = bitserial_conv2d_reference(
            q_x, indices, lut, 1, 1, act_bitwidth=8, pad_value=zero_point
        )
        w_sums = lut.pool_vector_sums()[indices].reshape(4, -1).sum(axis=1)
        expected = scale * (raw - zero_point * w_sums.reshape(1, -1, 1, 1))
        expected = expected + bias.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(plan(q_x), expected, rtol=1e-12, atol=1e-12)

    def test_linear_epilogue_matches_manual_dequantization(self, pool, lut):
        rng = np.random.default_rng(8)
        q_x = rng.integers(0, 256, size=(3, 16))
        indices = rng.integers(0, pool.size, size=(5, 2))
        scale, zero_point = 0.11, 4
        bias = rng.normal(size=5)
        plan = compile_linear_plan(
            indices, lut, act_bitwidth=8, scale=scale, zero_point=zero_point, bias=bias
        )
        raw = bitserial_linear_reference(q_x, indices, lut, act_bitwidth=8)
        w_sums = lut.pool_vector_sums()[indices].sum(axis=1)
        expected = scale * (raw - zero_point * w_sums) + bias
        np.testing.assert_allclose(plan(q_x), expected, rtol=1e-12, atol=1e-12)


class TestValidation:
    def test_conv_shape_and_range_validation(self, lut):
        with pytest.raises(ValueError):
            compile_conv_plan(np.zeros((2, 1, 3), dtype=int), lut)
        with pytest.raises(ValueError):
            compile_conv_plan(np.full((2, 1, 3, 3), lut.pool_size, dtype=int), lut)
        plan = compile_conv_plan(np.zeros((2, 1, 3, 3), dtype=int), lut, act_bitwidth=8)
        with pytest.raises(ValueError):
            plan(np.zeros((1, 8, 4, 4), dtype=int), active_bits=9)
        with pytest.raises(ValueError):
            plan(np.zeros((1, 12, 4, 4), dtype=int))
        with pytest.raises(ValueError):
            plan(np.zeros((8, 4, 4), dtype=int))
        with pytest.raises(ValueError):
            plan(np.full((1, 8, 4, 4), 256, dtype=int))
        with pytest.raises(ValueError):
            plan(np.full((1, 8, 4, 4), -1, dtype=int))

    def test_linear_shape_validation(self, lut):
        with pytest.raises(ValueError):
            compile_linear_plan(np.zeros((3,), dtype=int), lut)
        plan = compile_linear_plan(np.zeros((3, 3), dtype=int), lut)
        with pytest.raises(ValueError):
            plan(np.zeros((2, 20), dtype=int))
        with pytest.raises(ValueError):
            plan(np.zeros((2,), dtype=int))

    def test_bad_pad_value_rejected(self, lut):
        with pytest.raises(ValueError):
            compile_conv_plan(
                np.zeros((2, 1, 3, 3), dtype=int), lut,
                padding=1, act_bitwidth=4, pad_value=16,
            )


class TestEnginePlanPath:
    @pytest.fixture()
    def calibration_loader(self):
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(32, 3, 32, 32))
        targets = rng.integers(0, 10, size=32)
        return DataLoader(ArrayDataset(inputs, targets), batch_size=16)

    def test_plan_path_matches_reference_backend(
        self, compressed_small_model, calibration_loader
    ):
        """Whole-network invariant: plans and the tap-loop reference backend
        agree exactly (full-precision LUT) on every layer, hence on the
        logits up to the fused epilogue's float association."""
        engine = BitSerialInferenceEngine(
            compressed_small_model.model,
            compressed_small_model.pool,
            EngineConfig(activation_bitwidth=8, lut_bitwidth=None, calibration_batches=2),
        )
        engine.calibrate(calibration_loader)
        x = np.random.default_rng(9).normal(size=(4, 3, 32, 32))
        plan_out = engine.predict(x)
        reference_out = Executor(engine.compile(), backend="reference").run(x)
        np.testing.assert_allclose(plan_out, reference_out, rtol=1e-12, atol=1e-10)

    def test_plan_cache_invalidated_on_bitwidth_change(self, mlp_engine):
        # The MLP cannot be lowered, so predict runs the per-layer runtime
        # and its kernel-plan cache.
        engine, _ = mlp_engine
        x = np.random.default_rng(10).normal(size=(2, 32))
        engine.predict(x)
        assert engine._plans
        engine.set_activation_bitwidth(4)
        assert not engine._plans
        out4 = engine.predict(x)
        plan = next(iter(engine._plans.values()))
        conv_plan = plan if isinstance(plan, ConvKernelPlan) else plan.conv_plan
        assert conv_plan.act_bitwidth == 4
        engine.set_lut_bitwidth(4)
        assert not engine._plans
        assert np.all(np.isfinite(out4))

    def test_executor_cache_invalidated_on_bitwidth_change(
        self, compressed_small_model, calibration_loader
    ):
        engine = BitSerialInferenceEngine(
            compressed_small_model.model,
            compressed_small_model.pool,
            EngineConfig(activation_bitwidth=8, lut_bitwidth=8, calibration_batches=2),
        )
        engine.calibrate(calibration_loader)
        engine.predict(np.random.default_rng(10).normal(size=(2, 3, 32, 32)))
        assert engine._executors and not engine._plans
        engine.set_activation_bitwidth(6)
        assert not engine._executors
        engine.predict(np.random.default_rng(10).normal(size=(2, 3, 32, 32)))
        assert engine._executors
        engine.set_lut_bitwidth(4)
        assert not engine._executors


class TestPaddingHoist:
    """The network compiler's padding-hoist variant against the base plan.

    `_pool_partials_grouped` / `_border_constants` / `_reduce_taps_hoisted`
    deliberately mirror the base stage-1/stage-2 loops; this sweep is the
    guard that keeps the two pipelines from drifting apart.
    """

    CONFIGS = [
        (16, 12, 3, 1, 1, 8),   # C, H, kernel, stride, padding, filters
        (8, 16, 3, 2, 1, 20),   # strided, precompute mode (F > S)
        (16, 9, 3, 3, 2, 4),    # stride 3, wide padding
        (8, 8, 1, 1, 0, 5),     # pointwise, no padding
        (8, 10, 5, 1, 2, 30),   # 5x5 kernel
    ]

    @pytest.mark.parametrize("lut_bitwidth", [None, 8])
    def test_hoisted_plan_matches_base_plan(self, lut_bitwidth):
        rng = np.random.default_rng(0)
        pool = WeightPool(vectors=rng.normal(size=(16, 8)))
        lut = build_lut(pool)
        if lut_bitwidth is not None:
            lut = lut.quantize(lut_bitwidth)
        for channels, size, kernel, stride, padding, filters in self.CONFIGS:
            indices = rng.integers(0, 16, size=(filters, channels // 8, kernel, kernel))
            zero_point = 7 if padding else 0
            kwargs = dict(
                stride=stride,
                padding=padding,
                act_bitwidth=8,
                pad_value=zero_point,
                scale=0.1,
                zero_point=zero_point,
                bias=rng.normal(size=filters),
            )
            base = compile_conv_plan(indices, lut, **kwargs)
            hoisted = compile_conv_plan(indices, lut, hoist_padding=True, **kwargs)
            q_x = rng.integers(0, 256, size=(3, channels, size, size))
            for active_bits in (None, 4):
                want = base(q_x, active_bits=active_bits)
                got = hoisted(q_x, active_bits=active_bits)
                if lut_bitwidth is not None:
                    # Integer accumulation: the hoist is exactly equivalent.
                    np.testing.assert_array_equal(got, want)
                else:
                    # Float tables: only the tap-sum order differs.
                    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
