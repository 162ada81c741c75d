"""Streaming execution: dirty-tile incremental inference over frame streams.

The paper ablates *memoization* against pool precomputation, but until now it
survived only as an MCU cycle cost model (`repro.mcu.kernels.memoization`) —
the host pipeline recomputed every frame from scratch even when consecutive
inputs were nearly identical.  This module exploits that temporal redundancy
on the host: a :class:`StreamSession` keeps the previous frame's full
intermediate state, diffs each incoming frame into a tile-granular change
map, and re-executes only the dirty region of every step of the planned
schedule.

Compile-time propagation metadata
---------------------------------
One function, :func:`stream_rule`, maps each IR op to its
:class:`StreamRule`; :func:`stream_support` writes the table into artifact
metadata and :func:`compile_stream_plan` binds it to every step of the plan
backend's bound schedule (the same :class:`~repro.core.program.Step` list
the arena planner consumes):

==================  =========================================================
rule                steps
==================  =========================================================
``pass``            elementwise glue — quantize, batchnorm, activation,
                    pad_channels, add, dequantize/requantize: the output
                    dirty region equals the input region.
``dilate``          windowed ops — bit-serial/float convs and avg/max pools:
                    the output region is the input region dilated by the
                    receptive field (``kernel``/``stride``/``padding``), and
                    the *input crop* read back is the output region's halo.
``cutoff``          flatten, linear, bit-serial linear, global-average pool:
                    any dirty input invalidates the whole (non-spatial)
                    output; the step and everything after it recompute in
                    full each frame.  The head is cheap — this is the
                    classic full-recompute cutoff.
==================  =========================================================

Bit-exactness strategy (threshold 0 ⇒ identical results):

* Every step runs the planner's step function
  (:func:`~repro.core.memory_plan.compile_step_fn`), the implementation
  :meth:`Executor.run` uses: with ``out=None`` for the full refresh and the
  non-spatial head, and into the dirty region's view of the persistent
  buffer for crops.  Elementwise crops therefore run the same ufunc
  sequence per element as the full step.
* A dilate crop reads its input window with the halo materialized
  explicitly (zero point for bit-serial convs, 0 for float convs) and runs
  a borderless copy of the step: a **padding-0 clone** of the compiled
  :class:`~repro.core.kernel_plan.ConvKernelPlan`, whose integer
  accumulation is order-independent (fused ``α·acc + β`` epilogue
  included), or a padding-0 attrs copy of a float conv, whose im2col +
  GEMM reduces over channels and taps only.  Pools have no padding and
  their windows tile the input, so a crop sees exactly the full step's
  windows.

On top of the construction, :func:`compile_stream_plan` *verifies* the
incremental path at compile time — a perturbed frame is executed both ways
and every intermediate buffer compared bitwise; any step that deviates is
demoted to full-frame execution (an autotuner-style "prove it on the spot"
gate: never a wrong answer, only less savings).

Crossover fallback
------------------
Incremental execution has bookkeeping overhead (diffing, halo crops, slice
writes), so above some dirty fraction it is *slower* than simply rerunning
the whole schedule.  The compile step measures both paths and records the
crossover dirty fraction — like autotune decisions — under the executor's
``plan_info["stream"]`` and the program's pipeline report
(``stream_plan`` pass).  Sessions above the crossover fall back to a full
refresh (which also keeps their persistent state warm).
"""

from __future__ import annotations

import copy
import dataclasses
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.memory_plan import PlanUnsupported, compile_step_fn
from repro.core.pipeline import record_stage_report
from repro.core.program import Executor, NetworkProgram, Step

__all__ = [
    "StreamUnsupported",
    "StreamRule",
    "StreamPlan",
    "StreamSession",
    "compile_stream_plan",
    "stream_rule",
    "stream_support",
]


class StreamUnsupported(RuntimeError):
    """The program cannot execute incrementally (and why)."""

    def __init__(self, message: str, reason: str = "stream_unsupported"):
        super().__init__(message)
        self.reason = reason


# Op kinds whose dirty region passes through unchanged (same spatial grid,
# per-element math).
_PASS_KINDS = frozenset(
    {"quantize", "batchnorm", "activation", "pad_channels", "add",
     "dequantize", "requantize"}
)
# Op kinds that end spatial propagation: everything from the first dirty
# cutoff step on recomputes in full each frame.
_CUTOFF_KINDS = frozenset({"flatten", "linear", "bitserial_linear"})

#: Pixel-space dirty region of one buffer: ``(y0, y1, x0, x1)`` half-open.
Region = Tuple[int, int, int, int]


@dataclass(frozen=True)
class StreamRule:
    """How one op propagates a dirty region (``pass``/``dilate``/``cutoff``).

    ``dilate`` rules carry the op's receptive field
    (``kernel``/``stride``/``padding``); ``pass`` and ``cutoff`` rules use
    the defaults.
    """

    kind: str  # "pass" | "dilate" | "cutoff"
    kernel: Tuple[int, int] = (1, 1)
    stride: int = 1
    padding: int = 0

    def out_region(self, region: Region, out_hw: Tuple[int, int]) -> Region:
        """Dilate an input dirty region to the affected output region."""
        if self.kind == "pass":
            y0, y1, x0, x1 = region
        else:
            iy0, iy1, ix0, ix1 = region
            kh, kw = self.kernel
            s, p = self.stride, self.padding
            # Output pixel oy reads input rows [oy*s - p, oy*s - p + kh):
            # the window intersects [iy0, iy1) iff oy*s - p < iy1 and
            # oy*s - p + kh > iy0.
            y0 = max(0, -(-(iy0 - kh + 1 + p) // s))
            y1 = (iy1 - 1 + p) // s + 1
            x0 = max(0, -(-(ix0 - kw + 1 + p) // s))
            x1 = (ix1 - 1 + p) // s + 1
        oh, ow = out_hw
        y0, y1 = max(0, min(y0, oh)), max(0, min(y1, oh))
        x0, x1 = max(0, min(x0, ow)), max(0, min(x1, ow))
        return (y0, y1, x0, x1)

    def in_window(self, out_region: Region) -> Region:
        """The (unclamped) input window the output region reads — its halo."""
        if self.kind == "pass":
            return out_region
        y0, y1, x0, x1 = out_region
        kh, kw = self.kernel
        s, p = self.stride, self.padding
        return (
            y0 * s - p,
            (y1 - 1) * s + kh - p,
            x0 * s - p,
            (x1 - 1) * s + kw - p,
        )


def stream_rule(op) -> Optional[StreamRule]:
    """The propagation rule of one IR op; ``None`` if it has none.

    The one rule table: :func:`stream_support` writes it into artifact
    metadata and :func:`compile_stream_plan` binds it to the schedule (a
    fused kernel step follows its bit-serial op's rule).
    """
    kind = op.kind
    if kind in ("bitserial_conv", "conv"):
        k = int(op.attrs["kernel_size"])
        return StreamRule(
            "dilate", (k, k), int(op.attrs["stride"]), int(op.attrs["padding"])
        )
    if kind == "pool" and op.attrs["pool"] != "global_avg":
        k = int(op.attrs["kernel"])  # whole, non-overlapping windows
        return StreamRule("dilate", (k, k), stride=k)
    if kind in _CUTOFF_KINDS or kind == "pool":
        return StreamRule("cutoff")
    if kind in _PASS_KINDS:
        return StreamRule("pass")
    return None


# ---------------------------------------------------------------------------
# Static support metadata (artifact headers / serve capability gating)
# ---------------------------------------------------------------------------

def stream_support(program: NetworkProgram) -> Dict[str, Any]:
    """Static streaming-capability summary of a program (no compile needed).

    Stored in artifact headers by :func:`repro.core.export.save_program`
    (schema ≥ 3) and surfaced by ``read_program_metadata``, so a server can
    reject streaming requests against incapable — or pre-schema — artifacts
    with a clear ``stream_unsupported`` reason instead of a KeyError.
    """
    rules: List[Dict[str, Any]] = []
    supported = len(program.input_shape) == 3
    cutoff_index: Optional[int] = None
    for i, op in enumerate(program.ops):
        rule = stream_rule(op)
        entry = {
            "op": op.name or op.kind,
            "kind": op.kind,
            "rule": "unknown" if rule is None else rule.kind,
        }
        if rule is None:
            supported = False
        elif rule.kind == "dilate":
            entry.update(
                kernel=list(rule.kernel), stride=rule.stride, padding=rule.padding
            )
        elif rule.kind == "cutoff" and cutoff_index is None:
            cutoff_index = i
        rules.append(entry)
    return {
        "supported": bool(supported),
        "rules": rules,
        "cutoff_index": cutoff_index,
    }


# ---------------------------------------------------------------------------
# Crop execution: the planner's step functions over a dirty region
# ---------------------------------------------------------------------------

#: Step-function context of stream steps.  Crop shapes change every frame,
#: so temporaries are allocated per call and kernel plans get no scratch
#: dict (a shape-keyed one would grow without bound).
_FRESH = SimpleNamespace(
    temp=lambda key, n, shape, dtype: np.empty((n,) + tuple(shape), dtype),
    plan_scratch=lambda key: None,
)


def _clone_conv_plan(plan) -> Any:
    """A padding-0, hoist-off shallow clone of a compiled conv plan.

    Shares the (immutable) LUT sub-tables and the folded epilogue terms;
    only the border handling changes — the streaming executor materializes
    the halo crop explicitly (pre-padded with the layer zero point), so the
    clone sees a borderless problem.  Integer accumulation makes the result
    bitwise equal to the original plan's, whatever ``hoist_padding``/
    ``tap_gather``/``encoder`` variant the autotuner picked for it.
    """
    clone = copy.copy(plan)
    clone.padding = 0
    clone.hoist_padding = False
    return clone


def _crop_with_halo(
    buf: np.ndarray, window: Region, padding_value: int | float
) -> np.ndarray:
    """Slice ``window`` out of a (1, C, H, W) buffer, padding out-of-range
    rows/cols with ``padding_value`` (a conv's halo at the image border)."""
    y0, y1, x0, x1 = window
    h, w = buf.shape[2], buf.shape[3]
    cy0, cy1 = max(y0, 0), min(y1, h)
    cx0, cx1 = max(x0, 0), min(x1, w)
    crop = buf[:, :, cy0:cy1, cx0:cx1]
    pads = (cy0 - y0, y1 - cy1, cx0 - x0, x1 - cx1)
    if any(pads):
        crop = np.pad(
            crop,
            ((0, 0), (0, 0), (pads[0], pads[1]), (pads[2], pads[3])),
            mode="constant",
            constant_values=padding_value,
        )
    return crop


def _crop_executor(rule: StreamRule, fn: Callable, pad_value) -> Callable:
    """Re-execute one step over an output region of its persistent buffer.

    Every input is sliced to the region's input window (halo-padded with
    ``pad_value`` past the image border) and ``fn`` — the planner's step
    function, built borderless for dilate steps — writes straight into the
    region's view of the output buffer.
    """

    def crop(bufs, region, ins, out):
        window = rule.in_window(region)
        y0, y1, x0, x1 = region
        fn(
            [_crop_with_halo(bufs[b], window, pad_value) for b in ins],
            bufs[out][:, :, y0:y1, x0:x1],
            _FRESH,
        )

    return crop


@dataclass
class _BoundStreamStep:
    step: Step
    rule: StreamRule
    fn: Callable  # the planner's step function, run with out=None
    crop_fn: Optional[Callable]  # None => full-frame execution

    def run_full(self, bufs: Dict[int, np.ndarray]) -> None:
        step = self.step
        bufs[step.output] = self.fn([bufs[b] for b in step.inputs], None, _FRESH)


def _bind_step(step: Step, active_bits: Optional[int]) -> _BoundStreamStep:
    """Attach one schedule step's rule, full-frame function and crop executor.

    Spatial ``pass``/``dilate`` steps get a crop executor over the same
    step function; dilate steps run it borderless — a padding-0 clone of a
    bit-serial conv's kernel plan, a padding-0 attrs copy of a float conv
    (pools have no padding).
    """
    op = step.op
    if op is None:
        # Backend-synthesized step with no IR op: cannot reason about it.
        raise StreamUnsupported("schedule step carries no IR op")
    rule = stream_rule(op)  # not None: compile_stream_plan checked support
    try:
        fn = compile_step_fn(op, step, active_bits, None)
    except PlanUnsupported as exc:
        raise StreamUnsupported(str(exc)) from exc
    crop_fn = None
    if rule.kind != "cutoff" and len(op.out_shape) == 3:
        crop, pad_value = fn, 0
        if step.plan is not None:
            clone = dataclasses.replace(step, plan=_clone_conv_plan(step.plan))
            crop = compile_step_fn(op, clone, active_bits, None)
            pad_value = int(step.plan.pad_value)
        elif op.kind == "conv":
            borderless = dataclasses.replace(op, attrs={**op.attrs, "padding": 0})
            crop = compile_step_fn(borderless, step, active_bits, None)
        crop_fn = _crop_executor(rule, crop, pad_value)
    return _BoundStreamStep(step=step, rule=rule, fn=fn, crop_fn=crop_fn)


# ---------------------------------------------------------------------------
# The compiled stream plan
# ---------------------------------------------------------------------------

class StreamPlan:
    """Compile-once streaming machinery shared by every session of a program.

    Holds the full-recompute oracle (:class:`Executor` on the plan backend),
    the bound schedule annotated with :class:`StreamRule` propagation
    metadata and crop executors, and the measured incremental-vs-full
    crossover.  Sessions (:meth:`session`) own the per-stream state.
    """

    def __init__(
        self,
        program: NetworkProgram,
        executor: Executor,
        steps: List[_BoundStreamStep],
        tile: int,
        crossover: float,
        record: Dict[str, Any],
    ):
        self.program = program
        self.executor = executor
        self.steps = steps
        self.tile = int(tile)
        self.crossover = float(crossover)
        self.record = record
        self.input_shape = tuple(program.input_shape)

    # -- bookkeeping ---------------------------------------------------------
    @property
    def counters(self) -> Dict[str, Any]:
        return dict(self.record)

    def session(self, threshold: float = 0.0) -> "StreamSession":
        """A new stream session (threshold 0 ⇒ bit-exact incremental)."""
        return StreamSession(self, threshold=threshold)

    # -- full-frame schedule execution ---------------------------------------
    def run_full(self, bufs: Dict[int, np.ndarray], x: np.ndarray) -> np.ndarray:
        """Execute the whole bound schedule into ``bufs`` (persistent state).

        The planner's step functions with ``out=None``, in schedule order:
        the same ufunc sequences as :meth:`Executor.run`, so the result is
        bitwise identical — asserted at compile time by
        :func:`compile_stream_plan`.  Outputs are allocated fresh, so
        sessions never share memory.
        """
        # An owned copy: sessions patch the dirty region of this buffer in
        # place on later frames, so it must never alias caller memory.
        bufs[self.program.input_id] = np.array(x, dtype=np.float64)
        for bound in self.steps:
            bound.run_full(bufs)
        return bufs[self.program.output_id]


class StreamSession:
    """Per-stream state: the previous frame's full intermediate buffers.

    ``process(frame)`` diffs the frame against the session's reference
    frame at tile granularity, dilates the dirty bounding box through the
    propagation rules, and re-executes only that region of each step in
    place — falling back to a full refresh on the first frame, above the
    measured crossover fraction, or after a fault (:meth:`reset`).

    Sessions are single-stream objects: callers (the serve layer) must not
    interleave ``process`` calls from multiple threads.
    """

    def __init__(self, plan: StreamPlan, threshold: float = 0.0):
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.plan = plan
        self.threshold = float(threshold)
        self.buffers: Dict[int, np.ndarray] = {}
        self._prev: Optional[np.ndarray] = None  # reference frame, (1,C,H,W)
        self.frames = 0
        self.full_frames = 0
        self.incremental_frames = 0
        self.cached_frames = 0
        self.dirty_fraction_sum = 0.0
        self.last_used: float = 0.0  # maintained by the serve layer

    # -- introspection -------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Persistent per-session state (deduplicated against views)."""
        seen: Dict[int, int] = {}
        for arr in self.buffers.values():
            base = arr if arr.base is None else arr.base
            seen[id(base)] = base.nbytes
        if self._prev is not None:
            seen[id(self._prev)] = self._prev.nbytes
        return int(sum(seen.values()))

    def stats(self) -> Dict[str, Any]:
        frames = max(1, self.incremental_frames)
        return {
            "frames": self.frames,
            "full": self.full_frames,
            "incremental": self.incremental_frames,
            "cached": self.cached_frames,
            "avg_dirty_fraction": self.dirty_fraction_sum / frames,
            "state_bytes": self.nbytes,
        }

    def reset(self) -> None:
        """Drop all persistent state; the next frame recomputes in full.

        The serve layer's fault path: a crashed/poisoned session resets and
        retries, so a failure can delay an answer but never corrupt one.
        """
        self.buffers.clear()
        self._prev = None

    # -- the per-frame entry point -------------------------------------------
    def process(self, frame: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        """Execute one frame; returns ``(outputs, info)``.

        ``outputs`` is a fresh copy (the caller may hold it across frames);
        ``info`` records the execution mode (``full``/``incremental``/
        ``cached``), the dirty-tile counts and the dirty-area fraction.
        """
        frame = np.asarray(frame, dtype=np.float64)
        if frame.shape == (1,) + self.plan.input_shape:
            frame = frame[0]
        if frame.shape != self.plan.input_shape:
            raise ValueError(
                f"frame shape {frame.shape} does not match the program input "
                f"shape {self.plan.input_shape}"
            )
        self.frames += 1
        if self._prev is None:
            return self._full(frame, reason="first_frame")
        dirty_tiles, total_tiles, region = self._diff(frame)
        if dirty_tiles == 0:
            self.cached_frames += 1
            out = self.buffers[self.plan.program.output_id]
            return np.array(out[0], copy=True), {
                "mode": "cached",
                "dirty_tiles": 0,
                "total_tiles": total_tiles,
                "dirty_fraction": 0.0,
            }
        h, w = self.plan.input_shape[1:]
        y0, y1, x0, x1 = region
        fraction = ((y1 - y0) * (x1 - x0)) / float(h * w)
        if fraction >= self.plan.crossover:
            info_out = self._full(frame, reason="crossover")
            info_out[1].update(
                dirty_tiles=dirty_tiles,
                total_tiles=total_tiles,
                dirty_fraction=fraction,
            )
            return info_out
        self.incremental_frames += 1
        self.dirty_fraction_sum += fraction
        out = self._incremental(frame, region)
        return np.array(out[0], copy=True), {
            "mode": "incremental",
            "dirty_tiles": dirty_tiles,
            "total_tiles": total_tiles,
            "dirty_fraction": fraction,
        }

    # -- internals -----------------------------------------------------------
    def _full(self, frame: np.ndarray, reason: str):
        self.full_frames += 1
        out = self.plan.run_full(self.buffers, frame[None])
        self._prev = self.buffers[self.plan.program.input_id]
        return np.array(out[0], copy=True), {
            "mode": "full",
            "reason": reason,
            "dirty_tiles": None,
            "total_tiles": None,
            "dirty_fraction": 1.0,
        }

    def _diff(self, frame: np.ndarray) -> Tuple[int, int, Optional[Region]]:
        """Tile-granular change map vs. the reference frame → dirty bbox."""
        t = self.plan.tile
        prev = self._prev[0]
        if self.threshold == 0.0:
            changed = (frame != prev).any(axis=0)
        else:
            changed = (np.abs(frame - prev) > self.threshold).any(axis=0)
        h, w = changed.shape
        th, tw = -(-h // t), -(-w // t)
        grid = np.zeros((th * t, tw * t), dtype=bool)
        grid[:h, :w] = changed
        tiles = grid.reshape(th, t, tw, t).any(axis=(1, 3))
        count = int(tiles.sum())
        if not count:
            return 0, th * tw, None
        rows = np.flatnonzero(tiles.any(axis=1))
        cols = np.flatnonzero(tiles.any(axis=0))
        y0, y1 = int(rows[0]) * t, min(h, (int(rows[-1]) + 1) * t)
        x0, x1 = int(cols[0]) * t, min(w, (int(cols[-1]) + 1) * t)
        return count, th * tw, (y0, y1, x0, x1)

    def _incremental(self, frame: np.ndarray, region: Region) -> np.ndarray:
        bufs = self.buffers
        plan = self.plan
        y0, y1, x0, x1 = region
        # The reference frame absorbs the dirty region: with threshold 0
        # nothing outside it differs, so the state is exactly the incoming
        # frame; with a lossy threshold, sub-threshold tiles keep their old
        # values (that is the memoization) and the reference tracks what was
        # actually executed.
        prev = self._prev
        prev[0, :, y0:y1, x0:x1] = frame[:, y0:y1, x0:x1]
        regions: Dict[int, Optional[Region]] = {plan.program.input_id: region}
        cut = False
        for bound in plan.steps:
            step = bound.step
            dirty = [regions[b] for b in step.inputs if regions.get(b) is not None]
            if not cut and not dirty:
                regions[step.output] = None
                continue  # clean step: previous frame's output stands
            if cut or bound.rule.kind == "cutoff":
                bound.run_full(bufs)  # the non-spatial head recomputes
                cut = True
                regions[step.output] = None
                continue
            out_region = bound.rule.out_region(
                _union(dirty), bufs[step.output].shape[2:]
            )
            if bound.crop_fn is None:
                bound.run_full(bufs)  # demoted by the compile-time check
            else:
                bound.crop_fn(bufs, out_region, step.inputs, step.output)
            regions[step.output] = out_region
        return bufs[plan.program.output_id]


def _union(regions: List[Region]) -> Region:
    y0 = min(r[0] for r in regions)
    y1 = max(r[1] for r in regions)
    x0 = min(r[2] for r in regions)
    x1 = max(r[3] for r in regions)
    return (y0, y1, x0, x1)


# ---------------------------------------------------------------------------
# Compilation: bind rules, verify bitwise, measure the crossover
# ---------------------------------------------------------------------------

def compile_stream_plan(
    program: NetworkProgram,
    tile: int = 8,
    crossover: Optional[float] = None,
    active_bits: Optional[int] = None,
    executor: Optional[Executor] = None,
    verify: bool = True,
    seed: int = 0,
) -> StreamPlan:
    """Compile the streaming machinery for a bound program.

    Binds each step of the plan backend's schedule to its propagation rule
    (:func:`stream_rule`), the planner's step function and a crop
    executor, **verifies** the incremental path bitwise
    against the full executor on a perturbed frame (demoting any deviating
    step to full-frame execution), and measures the incremental-vs-full
    crossover dirty fraction — recorded like autotune decisions under the
    executor's ``plan_info["stream"]`` and the program's pipeline report.

    ``crossover`` overrides the measurement with a fixed fraction
    (deterministic tests); ``executor`` reuses an existing plan-backend
    executor instead of binding a new one.
    """
    if not program.bound:
        raise StreamUnsupported("only bound programs (with a LUT) can stream")
    if len(program.input_shape) != 3:
        raise StreamUnsupported(
            f"streaming needs a spatial (C, H, W) input, got "
            f"{program.input_shape}"
        )
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    support = stream_support(program)
    if not support["supported"]:
        bad = [r["op"] for r in support["rules"] if r["rule"] == "unknown"]
        raise StreamUnsupported(
            f"program has ops without streaming rules: {bad}"
        )
    if executor is None:
        executor = Executor(program, backend="plan", active_bits=active_bits)
    bound_steps = [_bind_step(step, active_bits) for step in executor._steps]

    record: Dict[str, Any] = {
        "tile": int(tile),
        "steps": len(bound_steps),
        "crop_steps": sum(1 for b in bound_steps if b.crop_fn is not None),
        "cutoff_index": support["cutoff_index"],
        "demoted_steps": [],
    }
    plan = StreamPlan(
        program, executor, bound_steps, tile=tile, crossover=1.0, record=record
    )

    rng = np.random.default_rng(seed)
    base = rng.standard_normal((1,) + tuple(program.input_shape))
    if verify:
        _verify_bitwise(plan, base, rng, record)

    if crossover is not None:
        if not (0.0 < crossover <= 1.0):
            raise ValueError(f"crossover must be in (0, 1], got {crossover}")
        plan.crossover = float(crossover)
        record["crossover"] = {"fraction": plan.crossover, "source": "fixed"}
    else:
        record["crossover"] = _measure_crossover(plan, base, rng)
        plan.crossover = record["crossover"]["fraction"]

    record_stage_report(
        program,
        {
            "name": "stream_plan",
            "stage": "stream",
            "counters": {
                "tile": record["tile"],
                "steps": record["steps"],
                "crop_steps": record["crop_steps"],
                "demoted": len(record["demoted_steps"]),
            },
            "decisions": {"crossover": record["crossover"]},
        },
    )
    if executor.plan_info is not None:
        executor.plan_info["stream"] = plan.counters
    return plan


def _perturb(base: np.ndarray, region: Region, rng) -> np.ndarray:
    frame = np.array(base, copy=True)
    y0, y1, x0, x1 = region
    frame[0, :, y0:y1, x0:x1] += rng.standard_normal(
        frame[0, :, y0:y1, x0:x1].shape
    )
    return frame


def _verify_bitwise(plan: StreamPlan, base: np.ndarray, rng, record) -> None:
    """Prove the incremental path bitwise-equal on a perturbed frame.

    Runs a base frame full, perturbs a sub-region, executes it both ways
    (fresh full run vs. incremental from the base state) and compares every
    persistent buffer.  A deviating step is demoted to full-frame execution
    and the check repeats — by construction this converges (a schedule with
    every step demoted is exactly the full path).
    """
    h, w = plan.input_shape[1:]
    t = plan.tile
    # A border-touching, tile-unaligned region exercises halo padding.
    region = (0, min(h, max(1, t + t // 2)), 0, min(w, max(1, t + t // 2)))
    frame = _perturb(base, region, rng)
    # The full streaming refresh must match the executor end to end (the
    # interpreter walk and the planned path are bitwise identical by the
    # repo's standing contract; this assert keeps the streaming path honest
    # about it).
    expected = plan.executor.run(frame)
    reference: Dict[int, np.ndarray] = {}
    plan.run_full(reference, frame)
    if not np.array_equal(reference[plan.program.output_id], expected):
        raise StreamUnsupported(
            "full streaming refresh deviates from the executor oracle"
        )  # pragma: no cover - walk/planned bitwise identity is a repo invariant
    for _ in range(len(plan.steps) + 1):
        session = plan.session(threshold=0.0)
        session.process(base[0])
        session.process(frame[0])
        culprit = None
        for bound in plan.steps:
            out = bound.step.output
            if not np.array_equal(session.buffers[out], reference[out]):
                culprit = bound
                break
        if culprit is None:
            return
        culprit.crop_fn = None
        record["demoted_steps"].append(
            culprit.step.op.name or culprit.step.op.kind
        )
    raise StreamUnsupported(
        "incremental execution failed bitwise verification even with every "
        "step demoted to full-frame execution"
    )  # pragma: no cover - demoting all steps reproduces the full path


def _measure_crossover(plan: StreamPlan, base: np.ndarray, rng) -> Dict[str, Any]:
    """Time full refresh vs. incremental at low/high dirty fractions.

    Models incremental cost as linear in the dirty-area fraction (it is:
    every crop scales with the dilated bounding box) and solves for the
    fraction where it meets the full-refresh cost.  Clamped to [0.05, 0.95]
    so a full-frame change always takes the full path and a tiny change
    always goes incremental.
    """
    h, w = plan.input_shape[1:]
    t = plan.tile
    lo_region = (0, min(h, t), 0, min(w, t))
    hi_region = (0, h, 0, w)

    def time_increment(region: Region, reps: int = 3) -> float:
        best = float("inf")
        for _ in range(reps):
            session = plan.session(threshold=0.0)
            session.process(base[0])
            frame = _perturb(base, region, rng)
            start = time.perf_counter()
            session._incremental(frame[0], region)
            best = min(best, time.perf_counter() - start)
        return best

    def time_full(reps: int = 3) -> float:
        session = plan.session(threshold=0.0)
        session.process(base[0])
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            plan.run_full(session.buffers, base)
            best = min(best, time.perf_counter() - start)
        return best

    t_full = time_full()
    t_lo = time_increment(lo_region)
    t_hi = time_increment(hi_region)
    f_lo = (t * t) / float(h * w)
    if t_hi <= t_lo:  # degenerate timing; incremental cost looks flat
        fraction = 1.0 if t_hi <= t_full else f_lo
    else:
        fraction = f_lo + (t_full - t_lo) * (1.0 - f_lo) / (t_hi - t_lo)
    fraction = float(min(max(fraction, 0.05), 0.95))
    return {
        "fraction": fraction,
        "source": "measured",
        "t_full_ms": t_full * 1e3,
        "t_incremental_lo_ms": t_lo * 1e3,
        "t_incremental_hi_ms": t_hi * 1e3,
    }
