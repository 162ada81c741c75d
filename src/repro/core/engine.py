"""Whole-network bit-serial inference engine.

The engine reproduces what the paper's deployment flow does on the host and
the microcontroller:

1. **Calibration** — run a few batches through the compressed model in float
   mode while observing the input of every weight-pool layer.
2. **Freezing** — derive per-layer activation quantization parameters at the
   requested activation bitwidth (iterative range search by default, §5.3.3).
3. **Bit-serial execution** — lower the model into a
   :class:`~repro.core.program.NetworkProgram` for each input shape it sees,
   at the configured optimization level (``O2`` by default: BatchNorm folded
   into the bit-serial epilogues, dequantize→quantize pairs elided, an
   ahead-of-time arena plan), and run ``predict``/``evaluate`` through the
   batched :class:`~repro.core.program.Executor`.  The LUT-based bit-serial
   kernels quantize each layer's input, correct for the activation zero
   point with the LUT's all-ones entry, and rescale back to the real domain;
   the rest of the network runs in float, matching the paper's PyTorch
   accuracy simulation.

The engine supports three execution modes:

* ``use_lut=True`` (default) — full bit-serial LUT simulation (optionally with
  a quantized LUT, Table 5).
* ``use_lut=False`` — "No-LUT" mode: activations are fake-quantized and the
  reconstructed pool weights are used directly (the Table 5 reference column).
* ``float`` (:meth:`BitSerialInferenceEngine.evaluate_float`) — plain
  weight-pool accuracy (Table 4).

A per-layer runtime installed on every weight-pool layer runs only where no
program can: the No-LUT mode, and models that cannot be lowered (no
``lower_into`` hook, or a non-``(C, H, W)`` input such as an MLP's).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.kernel_plan import compile_conv_plan, compile_linear_plan
from repro.core.layers import WeightPoolConv2d, WeightPoolLinear
from repro.core.lut import LookupTable, build_lut
from repro.core.pipeline import OPT_LEVELS, auto_backend
from repro.core.program import Executor, NetworkProgram, compile_network
from repro.core.weight_pool import WeightPool
from repro.nn import DataLoader, Module
from repro.nn.training.trainer import evaluate_model, predict_accuracy
from repro.quantization.activation import ActivationQuantizer
from repro.quantization.calibration import CalibrationMethod
from repro.quantization.quantizer import QuantParams, fake_quantize, quantize


@dataclass
class EngineConfig:
    """Configuration of the bit-serial inference engine."""

    activation_bitwidth: int = 8
    lut_bitwidth: Optional[int] = 8
    use_lut: bool = True
    calibration_method: CalibrationMethod = CalibrationMethod.ITERATIVE
    calibration_batches: int = 4
    active_bits: Optional[int] = None  # early termination (MSB-first truncation)
    # Pipeline optimization level (one of repro.core.pipeline.OPT_LEVELS).
    # "O3" additionally autotunes kernel variants and tile/shard choices at
    # compile time (bitwise-identical outputs); "O4" runs native segments.
    opt_level: str = "O2"

    def __post_init__(self) -> None:
        if not 1 <= self.activation_bitwidth <= 8:
            raise ValueError(
                f"activation_bitwidth must be in [1, 8], got {self.activation_bitwidth}"
            )
        if self.lut_bitwidth is not None and not 2 <= self.lut_bitwidth <= 16:
            raise ValueError(f"lut_bitwidth must be in [2, 16], got {self.lut_bitwidth}")
        if self.active_bits is not None and not 1 <= self.active_bits <= self.activation_bitwidth:
            raise ValueError("active_bits must be in [1, activation_bitwidth]")
        if self.opt_level not in OPT_LEVELS:
            raise ValueError(
                f"unknown optimization level {self.opt_level!r}; valid levels: "
                f"{', '.join(OPT_LEVELS)}"
            )


class _CalibrationRuntime:
    """Runtime that records layer inputs and falls back to the float forward."""

    def __init__(self, quantizers: Dict[int, ActivationQuantizer]):
        self.quantizers = quantizers

    def run(self, layer, x: np.ndarray) -> np.ndarray:
        self.quantizers[id(layer)](x)  # observe
        return _float_forward(layer, x)


class _BitSerialRuntime:
    """Runtime that executes a weight-pool layer with its compiled kernel plan
    (or, in No-LUT mode, fake-quantized through the float pool weights)."""

    def __init__(self, engine: "BitSerialInferenceEngine"):
        self.engine = engine

    def run(self, layer, x: np.ndarray) -> np.ndarray:
        config = self.engine.config
        params = self.engine.activation_params[id(layer)]
        if not config.use_lut:
            # "No-LUT" reference: fake-quantized activations, float pool weights.
            return _float_forward(layer, fake_quantize(x, params))
        q_x = quantize(x, params)
        if isinstance(layer, WeightPoolConv2d):
            # The expected-channel check is resolved once per layer at compile
            # time (`_pad_for`); the hot path only pads when it must.
            pad = self.engine._pad_for(layer)
            if pad:
                q_x = np.pad(
                    q_x,
                    ((0, 0), (0, pad), (0, 0), (0, 0)),
                    mode="constant",
                    constant_values=params.zero_point,
                )
        return self.engine._plan_for(layer)(q_x, active_bits=config.active_bits)


def _float_forward(layer, x: np.ndarray) -> np.ndarray:
    """Run the layer's ordinary pool-weight forward without re-entering the runtime."""
    runtime = layer.runtime
    layer.runtime = None
    try:
        return layer.forward(x)
    finally:
        layer.runtime = runtime


def _channel_padding(layer: WeightPoolConv2d) -> int:
    """Zero-point channels to pad so activations match the layer's indices.

    Static per layer (indices vs. declared ``in_channels``), so the engine
    computes it once at compile time instead of re-deriving — and previously
    re-checking — it on every batch.
    """
    expected = layer.indices.shape[1] * layer.pool.group_size
    pad = expected - layer.in_channels
    if pad < 0:
        raise ValueError("layer declares more channels than its indices cover")
    return pad


class BitSerialInferenceEngine:
    """Calibrates and executes a compressed model with the bit-serial LUT kernel."""

    def __init__(
        self,
        model: Module,
        pool: WeightPool,
        config: Optional[EngineConfig] = None,
    ):
        self.model = model
        self.pool = pool
        self.config = config or EngineConfig()
        self.layers = [
            module
            for module in model.modules()
            if isinstance(module, (WeightPoolConv2d, WeightPoolLinear))
        ]
        if not self.layers:
            raise ValueError("model contains no weight-pool layers; compress it first")
        self.quantizers: Dict[int, ActivationQuantizer] = {}
        self.activation_params: Dict[int, QuantParams] = {}
        self.lut: Optional[LookupTable] = None
        self._calibrated = False
        # Per-layer compiled state, built lazily on first use and invalidated
        # whenever the LUT or the activation parameters change.
        self._plans: Dict[int, object] = {}
        self._pads: Dict[int, int] = {}
        # Whole-network compiled state: (C, H, W) recorded during calibration
        # (the default compile shape), executors cached per
        # (backend, level, input shape, active_bits).
        self.input_shape: Optional[Tuple[int, ...]] = None
        self._executors: Dict[tuple, Executor] = {}
        self._graph_unsupported = False

    # -- lifecycle ---------------------------------------------------------------
    def calibrate(self, loader: DataLoader, batches: Optional[int] = None) -> None:
        """Observe weight-pool layer inputs over a few batches of data."""
        batches = batches if batches is not None else self.config.calibration_batches
        self.quantizers = {
            id(layer): ActivationQuantizer(
                bitwidth=self.config.activation_bitwidth,
                method=self.config.calibration_method,
            )
            for layer in self.layers
        }
        runtime = _CalibrationRuntime(self.quantizers)
        self.model.eval()
        self._install(runtime)
        self.input_shape = None  # re-calibration re-records the data shape
        try:
            for batch_index, (inputs, _) in enumerate(loader):
                if batch_index >= batches:
                    break
                if self.input_shape is None:
                    self.input_shape = tuple(inputs.shape[1:])
                self.model(inputs)
        finally:
            self._uninstall()
        self._freeze_quantizers()
        self._build_lut()
        self._calibrated = True

    def _freeze_quantizers(self) -> None:
        self.activation_params = {}
        for layer in self.layers:
            quantizer = self.quantizers[id(layer)]
            params = quantizer.freeze(self.config.activation_bitwidth)
            self.activation_params[id(layer)] = params

    def _build_lut(self) -> None:
        lut = build_lut(self.pool)
        if self.config.lut_bitwidth is not None:
            lut = lut.quantize(self.config.lut_bitwidth)
        self.lut = lut
        self._invalidate_compiled()

    def set_activation_bitwidth(self, bitwidth: int) -> None:
        """Re-freeze activation quantizers at a new bitwidth (no re-calibration needed).

        A configured ``active_bits`` early-termination setting is preserved
        when it still fits the new bitwidth; when it does not, it is reset to
        ``None`` (process every bit) with a warning rather than silently.
        """
        if not self.quantizers:
            raise RuntimeError("calibrate() must be called before changing the bitwidth")
        active_bits = self.config.active_bits
        if active_bits is not None and active_bits > bitwidth:
            warnings.warn(
                f"active_bits={active_bits} does not fit the new activation "
                f"bitwidth {bitwidth}; resetting early termination to None",
                stacklevel=2,
            )
            active_bits = None
        self.config = replace(
            self.config, activation_bitwidth=bitwidth, active_bits=active_bits
        )
        for layer in self.layers:
            self.activation_params[id(layer)] = self.quantizers[id(layer)].set_bitwidth(bitwidth)
        self._invalidate_compiled()

    def set_lut_bitwidth(self, bitwidth: Optional[int]) -> None:
        """Change the LUT storage bitwidth and rebuild the table."""
        self.config = replace(self.config, lut_bitwidth=bitwidth)
        self._build_lut()

    # -- compiled per-layer state ---------------------------------------------
    def _invalidate_compiled(self) -> None:
        """Drop cached kernel plans and executors (LUT/params changed)."""
        self._plans.clear()
        self._pads.clear()
        self._executors.clear()

    def _pad_for(self, layer: WeightPoolConv2d) -> int:
        """Compile-time channel padding for ``layer`` (0 for most layers)."""
        key = id(layer)
        pad = self._pads.get(key)
        if pad is None:
            pad = _channel_padding(layer)
            self._pads[key] = pad
        return pad

    def _plan_for(self, layer):
        """The compiled kernel plan for ``layer``, building it on first use.

        Plans snapshot the layer's indices, the LUT, and the frozen activation
        parameters; :meth:`_invalidate_compiled` must run when any of those
        change (``set_activation_bitwidth`` / ``set_lut_bitwidth`` do).
        """
        key = id(layer)
        plan = self._plans.get(key)
        if plan is None:
            params = self.activation_params[key]
            bias = layer.bias.data if layer.bias is not None else None
            if isinstance(layer, WeightPoolConv2d):
                plan = compile_conv_plan(
                    layer.indices,
                    self.lut,
                    stride=layer.stride,
                    padding=layer.padding,
                    act_bitwidth=self.config.activation_bitwidth,
                    pad_value=params.zero_point,
                    scale=params.scale,
                    zero_point=params.zero_point,
                    bias=bias,
                )
            else:
                plan = compile_linear_plan(
                    layer.indices,
                    self.lut,
                    act_bitwidth=self.config.activation_bitwidth,
                    scale=params.scale,
                    zero_point=params.zero_point,
                    bias=bias,
                )
            self._plans[key] = plan
        return plan

    # -- whole-network compilation ---------------------------------------------
    def compile(
        self,
        backend: Optional[str] = None,
        input_shape: Optional[Tuple[int, ...]] = None,
        level: Optional[str] = None,
    ) -> NetworkProgram:
        """Lower the calibrated model into a :class:`NetworkProgram`.

        Builds (and caches) the matching graph :class:`Executor`; ``predict``
        and ``evaluate`` delegate to it.  The pipeline optimization ``level``
        (one of :data:`~repro.core.pipeline.OPT_LEVELS`) defaults to the
        engine config's ``opt_level``; ``backend`` to ``plan`` (``native`` at
        ``O4``); ``input_shape`` to the shape recorded during calibration.
        Unknown level names raise :class:`ValueError` listing the valid
        choices.
        """
        executor = self._executor(backend=backend, input_shape=input_shape, level=level)
        return executor.program

    def export(
        self,
        path,
        input_shape: Optional[Tuple[int, ...]] = None,
        level: Optional[str] = None,
    ) -> NetworkProgram:
        """Compile the network and persist it as a program artifact.

        Convenience wrapper around :meth:`compile` +
        :func:`repro.core.export.save_program`: the written ``.npz`` is the
        deployment artifact a :class:`repro.serve.ModelRepository` serves
        (``repository.publish(engine.compile(), name)`` is the equivalent
        two-step spelling).  The artifact header carries the pipeline level
        and per-pass reports.  Returns the compiled program.
        """
        from repro.core.export import save_program  # engine is imported by export

        program = self.compile(input_shape=input_shape, level=level)
        save_program(program, path)
        return program

    def _executor(
        self,
        backend: Optional[str] = None,
        input_shape: Optional[Tuple[int, ...]] = None,
        level: Optional[str] = None,
    ) -> Executor:
        if not self._calibrated:
            raise RuntimeError("calibrate() must be called before compiling the network")
        level = level or self.config.opt_level
        if backend is None:
            # A defaulted backend follows the level (native at O4); an
            # explicit ``backend="plan"`` stays the pure plan path.
            backend = auto_backend("plan", level)
        input_shape = tuple(input_shape or self.input_shape or ())
        if len(input_shape) != 3:
            raise RuntimeError(
                "input shape unknown; calibrate with (N, C, H, W) batches or "
                "pass input_shape explicitly"
            )
        key = (backend, level, input_shape, self.config.active_bits)
        executor = self._executors.get(key)
        if executor is None:
            program = compile_network(
                self.model,
                input_shape,
                lut=self.lut,
                activation_params=self.activation_params,
                act_bitwidth=self.config.activation_bitwidth,
                level=level,
            )
            executor = Executor(program, backend=backend, active_bits=self.config.active_bits)
            self._executors[key] = executor
        return executor

    def _graph_executor_or_none(self, inputs: np.ndarray) -> Optional[Executor]:
        """The executor for this batch's shape, or ``None`` where no program
        can run it: the No-LUT mode, and models the lowering rejects."""
        input_shape = tuple(np.shape(inputs)[1:])
        if not self.config.use_lut or self._graph_unsupported or len(input_shape) != 3:
            # Lowering needs a (C, H, W) input; other shapes (e.g. a
            # linear-only model fed (N, F) batches) run the per-layer runtime.
            return None
        try:
            return self._executor(input_shape=input_shape)
        except NotImplementedError:
            # Model without lowering hooks: fall back to the per-layer runtime.
            self._graph_unsupported = True
            return None

    # -- execution ---------------------------------------------------------------
    def _install(self, runtime) -> None:
        for layer in self.layers:
            layer.runtime = runtime

    def _uninstall(self) -> None:
        for layer in self.layers:
            layer.runtime = None

    @contextmanager
    def _per_layer_runtime(self):
        """Install the per-layer bit-serial runtime for one call."""
        if not self._calibrated:
            raise RuntimeError("calibrate() must be called before running the engine")
        self.model.eval()
        self._install(_BitSerialRuntime(self))
        try:
            yield
        finally:
            self._uninstall()

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Run one batch through the model in bit-serial mode.

        Executes the compiled network program for the batch's shape; the
        per-layer runtime runs only the No-LUT mode (no bit-serial ops to
        compile) and models the lowering rejects.
        """
        executor = self._graph_executor_or_none(inputs)
        if executor is not None:
            return executor.run(inputs)
        with self._per_layer_runtime():
            return self.model(inputs)

    def evaluate(self, loader: DataLoader) -> float:
        """Top-1 accuracy of the bit-serial execution over a loader."""
        return predict_accuracy(self.predict, loader)

    def evaluate_float(self, loader: DataLoader) -> float:
        """Accuracy of the plain (float) weight-pool model, for comparison."""
        return evaluate_model(self.model, loader)
