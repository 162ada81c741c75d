"""Ahead-of-time execution plans: liveness → arena offsets → fused steps.

The :class:`~repro.core.program.Executor`'s interpreter walk pays three
per-batch costs the compiler can eliminate: every intermediate is a fresh
allocation, every piece of elementwise glue
(quantize/batchnorm/activation/pool/add) is its own Python dispatch with its
own temporaries, and nothing about the memory the program will touch is
known before the first batch runs.  This module moves all of that to compile
time for programs at ``O2`` and above:

* **Buffer specs** — per-buffer *(per-sample shape, dtype)* inferred
  statically from the typed IR, so every activation's byte size is known
  before any data flows.
* **Elementwise fusion** — maximal runs of glue steps whose intermediate
  buffers have exactly one consumer collapse into one compiled step; the
  intermediates become reusable scratch, and the step loop shrinks by the
  chain length.
* **Liveness → static arena** — a linear-scan over buffer lifetimes assigns
  every surviving intermediate a fixed byte offset in one preallocated
  arena, with safe aliasing: reshape views share their base's storage, and
  steps whose write provably cannot race their read (kernel plans and
  scratch-mediated casts consume the input before the output is first
  written; same-spec ufuncs write exactly in place) reuse a dying input's
  slot.  Steady-state execution allocates nothing.
* **Shard runtimes** — a :class:`ShardRuntime` bundles one arena with the
  scratch dictionaries of every kernel-plan step; the executor owns a pool
  of them and splits large batches across GIL-releasing worker threads,
  each shard writing its contiguous slice of the preallocated output
  (deterministic assembly, per-sample-exact ops).

The plan executes the **same ufunc sequence in the same order** as the
interpreter walk, only into preallocated memory — outputs are bitwise
identical to the walk at the same tile (`tests/core/test_memory_plan.py`
checks the ``O1`` walk against the ``O2`` plan, and every shard count
against one) and match the ``reference`` backend.  Programs the planner
cannot type (a backend without IR steps, an op kind it does not know) raise
:class:`PlanUnsupported`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitserial import active_bit_positions
from repro.nn import functional as F

#: Arena slots are aligned to cache lines.
_ALIGN = 64

#: Elementwise / cheap glue kinds eligible for chain fusion.  Kernel steps
#: (bit-serial plans, float conv/linear) stay as their own steps — they are
#: already fused internally and dominate runtime.
_GLUE_KINDS = frozenset(
    {"quantize", "pad_channels", "batchnorm", "activation", "pool", "flatten", "add"}
)


class PlanUnsupported(RuntimeError):
    """The program's bound schedule cannot be planned ahead of time."""


@dataclass(frozen=True)
class BufferSpec:
    """Static description of one IR buffer: per-sample shape and dtype."""

    shape: Tuple[int, ...]
    dtype: np.dtype

    def tile_nbytes(self, tile: int) -> int:
        return int(tile * int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize)


@dataclass
class ArenaSlot:
    """One storage interval of the arena: fixed offset, full-tile size."""

    offset: int
    nbytes: int
    first_def: int
    last_use: int
    reused_from: Optional[int] = None  # storage whose slot this one took over


@dataclass
class PlanStep:
    """One compiled step of an execution plan.

    ``fn(args, out, ctx)`` executes the step: ``args`` are the input arrays,
    ``out`` is the preallocated output (``None`` for view/heap placements),
    ``ctx`` the executing :class:`ShardRuntime`.  ``fused`` lists the IR op
    kinds folded into this step (length > 1 for fused chains).
    """

    fn: Callable[[Sequence[np.ndarray], Optional[np.ndarray], "ShardRuntime"], np.ndarray]
    inputs: Tuple[int, ...]
    output: int
    kind: str
    fused: Tuple[str, ...] = ()
    placement: str = "arena"  # "arena" | "view" | "heap" | "output"
    # In-place aliasing contract: "any" — the input is fully consumed before
    # the output is first written (kernel plans, scratch-mediated casts), so
    # the output may take over any dying input slot that is large enough;
    # "exact" — a direct ufunc writes element-aligned in place, so only a
    # dying input with the identical BufferSpec qualifies; "none" — never.
    inplace_mode: str = "none"
    inplace_inputs: Tuple[int, ...] = ()


@dataclass
class ExecutionPlan:
    """An ahead-of-time compiled schedule + memory layout for one program."""

    steps: List[PlanStep]
    tile: int
    arena_bytes: int
    slots: Dict[int, ArenaSlot]  # keyed by *storage* id
    storage: Dict[int, int]  # buffer id -> storage id (views share storage)
    specs: Dict[int, BufferSpec]
    input_id: int
    output_id: int
    out_shape: Tuple[int, ...]
    out_dtype: np.dtype
    counters: Dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Buffer specs: static shape/dtype inference over the bound schedule
# ---------------------------------------------------------------------------
def _quant_dtype(params) -> np.dtype:
    return np.dtype(np.uint8 if params.bitwidth <= 8 else np.uint16)


def _plan_out_dtype(plan) -> np.dtype:
    conv_plan = getattr(plan, "conv_plan", plan)
    if conv_plan.requant is not None:
        return np.dtype(conv_plan.requant[2])
    return np.dtype(np.float64)


def infer_buffer_specs(program, steps) -> Dict[int, BufferSpec]:
    """Per-buffer :class:`BufferSpec` for every buffer the schedule touches.

    The program input is typed ``float64`` — the planned executor converts
    incoming batches (data loaders already produce float64).  Dtypes then
    propagate exactly as the interpreter's step implementations produce them.
    """
    specs: Dict[int, BufferSpec] = {
        program.input_id: BufferSpec(tuple(program.input_shape), np.dtype(np.float64))
    }
    for step in steps:
        op = step.op
        if op is None:
            raise PlanUnsupported(
                f"backend step for buffer b{step.output} carries no IR op; "
                "only the plan backend schedule can be planned"
            )
        out_shape = tuple(op.out_shape)
        if step.plan is not None:
            dtype = _plan_out_dtype(step.plan)
        else:
            kind = op.kind
            in_spec = specs[step.inputs[0]] if step.inputs else None
            if kind == "quantize":
                dtype = _quant_dtype(op.attrs["params"])
            elif kind in ("pad_channels", "batchnorm", "activation", "flatten"):
                dtype = in_spec.dtype
            elif kind == "pool":
                # max pooling keeps the input dtype (integer when fused);
                # avg/global-avg reduce through np.mean, always float64.
                dtype = in_spec.dtype if op.attrs["pool"] == "max" else np.dtype(np.float64)
            elif kind == "add":
                dtype = np.result_type(*(specs[b].dtype for b in step.inputs))
            elif kind in ("conv", "linear"):
                dtype = np.result_type(in_spec.dtype, op.attrs["weight"].dtype)
            else:
                raise PlanUnsupported(f"cannot infer a buffer spec for op kind '{kind}'")
        specs[step.output] = BufferSpec(out_shape, np.dtype(dtype))
    return specs


# ---------------------------------------------------------------------------
# Step compilation: out-aware executors per op kind
# ---------------------------------------------------------------------------
def _compile_stage_fn(op, bound_step, active_bits, stage_key):
    """Compile one op into an out-aware ``fn(args, out, ctx)``.

    Every implementation runs the exact ufunc sequence of the interpreter's
    `_exec_generic` (or of the kernel plan), only targeting the
    caller-provided ``out`` — outputs are bitwise identical to the
    interpreter walk.  ``out=None`` falls back to a fresh allocation (view and heap
    placements, chain interiors that are views).
    """
    kind = op.kind
    attrs = op.attrs

    if bound_step is not None and bound_step.plan is not None:
        plan = bound_step.plan
        validated = bound_step.validated

        def fn(args, out, ctx):
            return plan(
                args[0],
                active_bits=active_bits,
                validated=validated,
                out=out,
                scratch=ctx.plan_scratch(stage_key),
            )

        return fn

    if kind == "quantize":
        params = attrs["params"]
        out_dtype = _quant_dtype(params)
        clip_lo = attrs.get("clip_lo", params.qmin)
        clip_hi = attrs.get("clip_hi", params.qmax)
        shape = tuple(op.in_shape)

        def fn(args, out, ctx):
            x = args[0]
            q = ctx.temp((stage_key, "q"), x.shape[0], shape, np.float64)
            np.divide(x, params.scale, out=q)
            np.rint(q, out=q)
            q += params.zero_point
            np.clip(q, clip_lo, clip_hi, out=q)
            if out is None:
                return q.astype(out_dtype)
            np.copyto(out, q, casting="unsafe")
            return out

        return fn

    if kind == "pad_channels":
        value = attrs["value"]
        channels = int(op.in_shape[0])

        def fn(args, out, ctx):
            x = args[0]
            if out is None:
                pad = int(op.attrs["pad"])
                width = ((0, 0), (0, pad)) + ((0, 0),) * (x.ndim - 2)
                return np.pad(x, width, mode="constant", constant_values=value)
            out[:, :channels] = x
            out[:, channels:] = value
            return out

        return fn

    if kind == "batchnorm":
        mean = attrs["mean"].reshape(1, -1, 1, 1)
        inv_std = attrs["inv_std"].reshape(1, -1, 1, 1)
        gamma = attrs["gamma"].reshape(1, -1, 1, 1)
        beta = attrs["beta"].reshape(1, -1, 1, 1)

        def fn(args, out, ctx):
            x = args[0]
            if out is None:
                out = np.empty_like(x)
            # Same association as BatchNorm2d.forward in eval mode.
            np.subtract(x, mean, out=out)
            np.multiply(out, inv_std, out=out)
            np.multiply(out, gamma, out=out)
            np.add(out, beta, out=out)
            return out

        return fn

    if kind == "activation":
        if attrs["fn"] == "relu6":
            def fn(args, out, ctx):
                x = args[0]
                return np.clip(x, 0.0, 6.0, out=out) if out is not None else np.clip(x, 0.0, 6.0)
            return fn

        def fn(args, out, ctx):
            x = args[0]
            if out is None:
                return np.maximum(x, x.dtype.type(0))
            return np.maximum(x, x.dtype.type(0), out=out)

        return fn

    if kind == "pool":
        variant = attrs["pool"]
        if variant == "global_avg":
            def fn(args, out, ctx):
                return args[0].mean(axis=(2, 3), out=out)
            return fn
        k = attrs["kernel"]
        if variant == "max":
            def fn(args, out, ctx):
                x = args[0]
                windows = x.reshape(
                    x.shape[0], x.shape[1], x.shape[2] // k, k, x.shape[3] // k, k
                )
                return windows.max(axis=(3, 5), out=out)
            return fn

        def fn(args, out, ctx):
            x = args[0]
            windows = x.reshape(
                x.shape[0], x.shape[1], x.shape[2] // k, k, x.shape[3] // k, k
            )
            return windows.mean(axis=(3, 5), out=out)

        return fn

    if kind == "flatten":
        def fn(args, out, ctx):
            x = args[0]
            flat = x.reshape(x.shape[0], -1)
            if out is None:
                return flat
            np.copyto(out, flat)  # only when flatten must materialise (output step)
            return out

        return fn

    if kind == "add":
        def fn(args, out, ctx):
            x, y = args
            if out is None:
                return x + y
            return np.add(x, y, out=out)

        return fn

    if kind == "conv":
        weight, bias = attrs["weight"], attrs["bias"]
        stride, padding, groups = attrs["stride"], attrs["padding"], attrs["groups"]

        def fn(args, out, ctx):
            res = F.conv2d_forward(args[0], weight, bias, stride, padding, groups)[0]
            if out is None:
                return res
            np.copyto(out, res)
            return out

        return fn

    if kind == "linear":
        weight, bias = attrs["weight"], attrs["bias"]
        # The transposed *view* (not a contiguous copy): BLAS picks the same
        # kernel as the interpreter's ``x @ weight.T``, keeping the result
        # bitwise identical.
        weight_t = weight.T

        def fn(args, out, ctx):
            x = args[0]
            if out is None:
                return x @ weight_t if bias is None else x @ weight_t + bias
            np.matmul(x, weight_t, out=out)
            if bias is not None:
                np.add(out, bias, out=out)
            return out

        return fn

    raise PlanUnsupported(f"no ahead-of-time executor for op kind '{kind}'")


def _compile_chain_fn(stages, ext_inputs, specs, active_bits, chain_key):
    """Fuse a run of glue steps into one compiled step.

    ``stages`` are ``(op, bound_step)`` pairs in schedule order; their
    single-consumer intermediates live in the runtime's scratch (reused
    across batches), and only the final stage writes the step output.
    """
    compiled = []
    for si, (op, bound_step) in enumerate(stages):
        compiled.append(
            (_compile_stage_fn(op, bound_step, active_bits, (chain_key, si)), op)
        )
    last_index = len(compiled) - 1

    def fn(args, out, ctx):
        env = dict(zip(ext_inputs, args))
        result = None
        for si, (stage_fn, op) in enumerate(compiled):
            sub_args = [env[b] for b in op.inputs]
            if si == last_index:
                o = out
            elif op.kind == "flatten":
                o = None  # view; no scratch needed
            else:
                spec = specs[op.output]
                o = ctx.temp((chain_key, si), sub_args[0].shape[0], spec.shape, spec.dtype)
            result = env[op.output] = stage_fn(sub_args, o, ctx)
        return result

    return fn


# ---------------------------------------------------------------------------
# Fusion grouping
# ---------------------------------------------------------------------------
def _chain_groups(steps, program) -> List[Tuple[int, int]]:
    """Maximal fusable runs ``[(first, last)]`` over the bound schedule.

    A chain extends while the current step's output has *exactly one*
    consumer, that consumer is the next step in the schedule, both steps are
    glue kinds, and the intermediate is not the program output (which has an
    implicit external consumer).
    """
    consumers: Dict[int, List[int]] = {}
    for index, step in enumerate(steps):
        for buf in set(step.inputs):
            consumers.setdefault(buf, []).append(index)
    groups: List[Tuple[int, int]] = []
    i = 0
    while i < len(steps):
        j = i
        if steps[i].op is not None and steps[i].op.kind in _GLUE_KINDS:
            while (
                j + 1 < len(steps)
                and steps[j + 1].op is not None
                and steps[j + 1].op.kind in _GLUE_KINDS
                and steps[j].output != program.output_id
                and consumers.get(steps[j].output, []) == [j + 1]
            ):
                j += 1
        groups.append((i, j))
        i = j + 1
    return groups


# ---------------------------------------------------------------------------
# Liveness and arena allocation
# ---------------------------------------------------------------------------
def _align(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


def _take_hole(free: List[List[int]], need: int) -> Optional[int]:
    """Best-fit allocation from the free list; splits the chosen hole."""
    best = None
    for hole in free:
        if hole[1] >= need and (best is None or hole[1] < best[1]):
            best = hole
    if best is None:
        return None
    offset = best[0]
    best[0] += need
    best[1] -= need
    if best[1] == 0:
        free.remove(best)
    return offset


def _give_hole(free: List[List[int]], offset: int, size: int) -> None:
    """Return a byte range to the free list, coalescing neighbours."""
    free.append([offset, size])
    free.sort()
    merged: List[List[int]] = []
    for hole in free:
        if merged and merged[-1][0] + merged[-1][1] == hole[0]:
            merged[-1][1] += hole[1]
        else:
            merged.append(hole)
    free[:] = merged


def _plan_arena(plan_steps, specs, storage, input_id, output_id, tile):
    """Linear-scan the schedule assigning fixed arena offsets to storages.

    Returns ``(slots, arena_bytes, peak_live_bytes)``.  ``storage`` maps
    every buffer to its storage id (views share their base's storage); only
    storages produced by arena-placed steps get slots.
    """
    last_use: Dict[int, int] = {}
    for index, step in enumerate(plan_steps):
        for buf in step.inputs:
            sid = storage[buf]
            last_use[sid] = max(last_use.get(sid, -1), index)

    slots: Dict[int, ArenaSlot] = {}
    free: List[List[int]] = []
    arena_end = 0
    live_bytes = 0
    peak_live = 0
    transferred: set = set()

    for index, step in enumerate(plan_steps):
        sid = storage[step.output]
        if step.placement == "arena":
            need = _align(specs[step.output].tile_nbytes(tile))
            taken = None
            if step.inplace_mode != "none":
                for buf in dict.fromkeys(step.inplace_inputs):
                    cand = storage[buf]
                    slot = slots.get(cand)
                    if (
                        slot is None
                        or cand in transferred
                        or last_use.get(cand, -1) != index
                        or slot.nbytes < need
                    ):
                        continue
                    if step.inplace_mode == "exact" and specs[buf] != specs[step.output]:
                        continue
                    taken = cand
                    break
            if taken is not None:
                parent = slots[taken]
                transferred.add(taken)
                slots[sid] = ArenaSlot(
                    offset=parent.offset,
                    nbytes=parent.nbytes,
                    first_def=index,
                    last_use=last_use.get(sid, index),
                    reused_from=taken,
                )
            else:
                offset = _take_hole(free, need)
                if offset is None:
                    offset = arena_end
                    arena_end += need
                slots[sid] = ArenaSlot(
                    offset=offset,
                    nbytes=need,
                    first_def=index,
                    last_use=last_use.get(sid, index),
                )
                live_bytes += need
                peak_live = max(peak_live, live_bytes)
        # Free storages whose last read just happened (and dead outputs).
        dying = {storage[buf] for buf in step.inputs}
        dying.add(sid)
        for cand in dying:
            slot = slots.get(cand)
            if (
                slot is not None
                and cand not in transferred
                and last_use.get(cand, slot.first_def) <= index
            ):
                _give_hole(free, slot.offset, slot.nbytes)
                live_bytes -= slot.nbytes
                transferred.add(cand)  # never free twice
    for sid, slot in slots.items():
        slot.last_use = last_use.get(sid, slot.first_def)
    return slots, arena_end, peak_live


def validate_arena_plan(plan: ExecutionPlan) -> None:
    """Assert no two simultaneously-live storages overlap in the arena.

    Two slots may share bytes only when their lifetimes are disjoint, or
    when one took the other's slot in place (an explicit, safety-checked
    handoff at the junction step).  This runs at compile time — the planner
    is cheap enough to self-verify — and the overlapping-lifetime regression
    test calls it directly.
    """
    slots = list(plan.slots.items())
    for i, (sid_a, a) in enumerate(slots):
        for sid_b, b in slots[i + 1 :]:
            if a.offset + a.nbytes <= b.offset or b.offset + b.nbytes <= a.offset:
                continue  # disjoint byte ranges
            if a.last_use < b.first_def or b.last_use < a.first_def:
                continue  # disjoint lifetimes
            if b.reused_from == sid_a and b.first_def >= a.last_use:
                continue  # in-place handoff
            if a.reused_from == sid_b and a.first_def >= b.last_use:
                continue
            raise AssertionError(
                f"arena plan aliases live storages b{sid_a} and b{sid_b}: "
                f"[{a.offset}, {a.offset + a.nbytes}) steps {a.first_def}-{a.last_use} vs "
                f"[{b.offset}, {b.offset + b.nbytes}) steps {b.first_def}-{b.last_use}"
            )


# ---------------------------------------------------------------------------
# Plan compilation entry point
# ---------------------------------------------------------------------------
def compile_execution_plan(program, steps, tile: int, active_bits=None) -> ExecutionPlan:
    """Compile the bound plan-backend schedule into an :class:`ExecutionPlan`.

    ``steps`` is the schedule `_bind_plan` produced (each step carrying its
    IR op and, for bit-serial steps, the compiled kernel plan); ``tile`` is
    the micro-batch size every arena view is sized for.  Raises
    :class:`PlanUnsupported` when the schedule cannot be statically typed.
    """
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    for step in steps:
        if step.inputs and program.output_id in step.inputs:
            raise PlanUnsupported("program output is read by a later op")
    specs = infer_buffer_specs(program, steps)
    groups = _chain_groups(steps, program)

    plan_steps: List[PlanStep] = []
    storage: Dict[int, int] = {program.input_id: program.input_id}
    fused_away = 0
    fused_chains = 0
    for first, last in groups:
        run = steps[first : last + 1]
        internal = {s.output for s in run[:-1]}
        output = run[-1].output
        if len(run) == 1:
            step = run[0]
            op = step.op
            key = len(plan_steps)
            fn = _compile_stage_fn(op, step, active_bits, key)
            ext_inputs = tuple(step.inputs)
            kinds = (op.kind,)
            is_view = op.kind == "flatten"
            if step.plan is not None or op.kind == "quantize":
                inplace_mode = "any"  # input consumed before out is written
            elif op.kind in ("batchnorm", "activation", "add"):
                inplace_mode = "exact"  # direct same-spec ufunc
            else:
                inplace_mode = "none"
            inplace_inputs = ext_inputs
        else:
            fused_chains += 1
            fused_away += len(run) - 1
            ext_inputs = tuple(
                dict.fromkeys(
                    b for s in run for b in s.inputs if b not in internal
                )
            )
            stages = [(s.op, s) for s in run]
            key = len(plan_steps)
            fn = _compile_chain_fn(stages, ext_inputs, specs, active_bits, key)
            kinds = tuple(s.op.kind for s in run)
            is_view = False
            # The chain's out is written only by the final stage, whose
            # inputs are chain-internal scratch unless an external feeds it
            # directly; inputs consumed exclusively by stage 0 are safe to
            # overwrite — except when stage 0 is a reshape view, whose
            # output *aliases* the input's memory for the rest of the chain.
            stage0_only = [
                b
                for b in run[0].inputs
                if run[0].op.kind != "flatten"
                and all(b not in s.inputs for s in run[1:])
            ]
            inplace_mode = "any" if stage0_only else "none"
            inplace_inputs = tuple(dict.fromkeys(stage0_only))

        if output == program.output_id:
            placement = "output"
            inplace_mode = "none"
        elif is_view:
            placement = "view"
            inplace_mode = "none"
        elif kinds == ("conv",):
            # Float convs allocate internally (im2col + BLAS); copying the
            # result into the arena would add a full pass for no reuse win.
            placement = "heap"
            inplace_mode = "none"
        else:
            placement = "arena"

        plan_steps.append(
            PlanStep(
                fn=fn,
                inputs=ext_inputs,
                output=output,
                kind=kinds[-1] if len(kinds) == 1 else "fused",
                fused=kinds,
                placement=placement,
                inplace_mode=inplace_mode,
                inplace_inputs=inplace_inputs,
            )
        )

    # Storage map: view outputs share their base buffer's storage.
    for step in plan_steps:
        if step.placement == "view":
            storage[step.output] = storage[step.inputs[0]]
        else:
            storage[step.output] = step.output
    # Buffers only ever read (program input) already mapped; anything else
    # appearing as an input must have been produced above.
    for step in plan_steps:
        for buf in step.inputs:
            if buf not in storage:
                raise PlanUnsupported(f"buffer b{buf} is read before any step defines it")

    slots, arena_bytes, peak_live = _plan_arena(
        plan_steps, specs, storage, program.input_id, program.output_id, tile
    )

    out_spec = specs[program.output_id]
    _specialize_kernel_plans(steps, active_bits)
    plan = ExecutionPlan(
        steps=plan_steps,
        tile=tile,
        arena_bytes=arena_bytes,
        slots=slots,
        storage=storage,
        specs=specs,
        input_id=program.input_id,
        output_id=program.output_id,
        out_shape=out_spec.shape,
        out_dtype=out_spec.dtype,
        counters={
            "arena_bytes": int(arena_bytes),
            "peak_live_bytes": int(peak_live),
            "tile": int(tile),
            "ops": len(program.ops),
            "steps": len(plan_steps),
            "fused_chains": int(fused_chains),
            "steps_fused": int(fused_away),
        },
    )
    validate_arena_plan(plan)
    return plan


def _specialize_kernel_plans(steps, active_bits) -> None:
    """Retarget this schedule's kernel plans at the planned runtime.

    Three compile-time decisions: switch stage 2 to the per-tap gather (the
    narrow column buffer lives in shard scratch and stays cache-hot at the
    plan's fixed tile — see ``ConvKernelPlan.tap_gather``; bitwise-equal
    accumulation order), switch the address encoder to the uint64
    mask-multiply bit transpose (identical addresses, ~16× less encode
    work), and precompute the hoisted-padding border tensors so shard
    workers never race to derive the same constants.  The plans are private
    to this executor's bind; all variants are bitwise identical.
    """
    for step in steps:
        plan = getattr(step, "plan", None)
        if plan is None:
            continue
        conv_plan = getattr(plan, "conv_plan", plan)
        if not getattr(conv_plan, "_autotuned", False):
            # The heuristic defaults (O2); the O3 autotuner measured its own
            # winners and marked the plan — leave those alone.
            conv_plan.tap_gather = "per_tap"
            conv_plan.encoder = "bitmul"
        if not (conv_plan.hoist_padding and conv_plan.padding):
            continue
        op = step.op
        h, w = op.in_shape[1], op.in_shape[2]
        oh, ow = op.out_shape[1], op.out_shape[2]
        bits = active_bit_positions(conv_plan.act_bitwidth, active_bits)
        conv_plan._border_tensor(h, w, oh, ow, conv_plan.stride, bits)


# ---------------------------------------------------------------------------
# Shard runtime
# ---------------------------------------------------------------------------
class ShardRuntime:
    """One shard's execution state: the arena, its views, and scratch.

    A runtime is single-threaded by construction; the executor keeps a pool
    of them and checks one out per concurrently-running batch chunk, so the
    compiled plan itself stays immutable and thread-safe.
    """

    __slots__ = ("tile", "arena", "_views", "_scratch", "_plan_scratch")

    def __init__(self, plan: ExecutionPlan):
        self.tile = plan.tile
        self.arena = np.empty(max(plan.arena_bytes, 1), dtype=np.uint8)
        self._views: Dict[int, np.ndarray] = {}
        for buf, sid in plan.storage.items():
            slot = plan.slots.get(sid)
            if slot is None or buf not in plan.specs:
                continue
            spec = plan.specs[buf]
            nbytes = spec.tile_nbytes(plan.tile)
            flat = self.arena[slot.offset : slot.offset + nbytes]
            self._views[buf] = flat.view(spec.dtype).reshape((plan.tile,) + spec.shape)
        self._scratch: Dict[Tuple, np.ndarray] = {}
        # One shared kernel-scratch dict for every plan step: temporaries are
        # dead once a plan call returns, and sharing lets layers with the
        # same geometry (repeated blocks) reuse the same — cache-hot — pages
        # instead of each step pinning its own multi-megabyte buffers.
        self._plan_scratch: dict = {}

    def view(self, buf: int, n: int) -> np.ndarray:
        """The arena view of ``buf`` for an ``n``-sample (ragged) tile."""
        full = self._views[buf]
        return full if n == self.tile else full[:n]

    def temp(self, key, n: int, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A reusable ``(n,) + shape`` temporary (chain intermediates)."""
        full_key = (key, tuple(shape), np.dtype(dtype).str)
        full = self._scratch.get(full_key)
        if full is None:
            full = self._scratch[full_key] = np.empty((self.tile,) + tuple(shape), dtype)
        return full if n == self.tile else full[:n]

    def plan_scratch(self, key) -> dict:
        """The runtime's kernel-plan scratch dict (see `scratch_buf`).

        Shared across plan steps — scratch keys carry name/shape/dtype, so
        distinct temporaries never collide, while repeated-geometry layers
        deliberately share buffers.
        """
        return self._plan_scratch

    def allocated_bytes(self) -> int:
        """Arena + scratch bytes this runtime holds (for counters/tests)."""
        total = int(self.arena.nbytes)
        total += sum(buf.nbytes for buf in self._scratch.values())
        total += sum(buf.nbytes for buf in self._plan_scratch.values())
        return total
