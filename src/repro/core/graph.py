"""Network-level lowering: turn a ``Module`` tree into a flat dataflow graph.

A per-layer runtime executes the network by monkey-patching
``layer.runtime`` and re-entering the Python ``Module.forward`` tree for every
batch.  Whole-network compilation instead *lowers* the model once into a flat
list of :class:`GraphOp` nodes in execution order, each reading and writing
numbered buffers — the front end of the compile pipeline
(``calibrate → lower → optimize passes → execute/export``).

Lowering is structural, not trace-based: every module that participates in
inference implements a ``lower_into(builder, x)`` hook (see
:class:`repro.nn.module.Module`) that emits its ops through a
:class:`GraphBuilder` and returns the buffer holding its output.  Containers
chain their children; residual blocks emit explicit ``add`` ops, which a
linear trace of module calls could never recover.  The hooks emit *generic*
op kinds (``conv``, ``batchnorm``, ``activation``, ``pool``, ``flatten``,
``add``); :mod:`repro.core.program` then types them into the executable
bit-serial IR (``quantize`` / ``bitserial_conv`` / ``dequantize`` / …).

Shapes are inferred per-sample (no batch axis) during lowering, so compile
passes and the MCU cost backend know every buffer's geometry without running
a dummy forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.nn import Module


@dataclass(eq=False)
class GraphOp:
    """One node of the lowered dataflow graph.

    ``inputs``/``output`` are buffer ids; ``module`` is the originating module
    (used by the typing stage to decide float vs bit-serial execution and to
    pull weights/indices); ``attrs`` carries kind-specific metadata emitted by
    the lowering hook (e.g. ``fn="relu"`` for activations).
    """

    kind: str
    inputs: Tuple[int, ...]
    output: int
    name: str = ""
    module: Optional[Module] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    in_shape: Tuple[int, ...] = ()
    out_shape: Tuple[int, ...] = ()


@dataclass
class NetworkGraph:
    """The lowered model: ops in execution order over numbered buffers."""

    ops: List[GraphOp]
    input_id: int
    output_id: int
    num_buffers: int
    input_shape: Tuple[int, ...]

    def kinds(self) -> List[str]:
        return [op.kind for op in self.ops]


class GraphBuilder:
    """Accumulates :class:`GraphOp` nodes while ``lower_into`` hooks recurse.

    Hooks call :meth:`add` to emit an op (the builder infers the output
    buffer's shape) and :meth:`lower` to descend into a child module with a
    scoped name.  The builder performs the compile-time shape checking that
    the per-batch runtime paths used to repeat on every forward.
    """

    def __init__(self, input_shape: Tuple[int, ...]):
        self.ops: List[GraphOp] = []
        self._shapes: List[Tuple[int, ...]] = [tuple(int(d) for d in input_shape)]
        self._name_stack: List[str] = []

    # -- buffers ---------------------------------------------------------------
    @property
    def input_id(self) -> int:
        return 0

    def shape_of(self, buffer_id: int) -> Tuple[int, ...]:
        return self._shapes[buffer_id]

    def _new_buffer(self, shape: Tuple[int, ...]) -> int:
        self._shapes.append(tuple(int(d) for d in shape))
        return len(self._shapes) - 1

    # -- emission ---------------------------------------------------------------
    def add(self, kind: str, *inputs: int, module: Optional[Module] = None, **attrs) -> int:
        """Emit one op reading ``inputs`` and return its output buffer id."""
        in_shape = self.shape_of(inputs[0]) if inputs else ()
        out_shape = self._infer_shape(kind, inputs, module, attrs)
        out = self._new_buffer(out_shape)
        self.ops.append(
            GraphOp(
                kind=kind,
                inputs=tuple(inputs),
                output=out,
                name=".".join(self._name_stack),
                module=module,
                attrs=attrs,
                in_shape=in_shape,
                out_shape=out_shape,
            )
        )
        return out

    def lower(self, module: Module, x: int, name: str = "") -> int:
        """Lower a child module under a scoped name and return its output buffer."""
        if name:
            self._name_stack.append(name)
        try:
            return module.lower_into(self, x)
        finally:
            if name:
                self._name_stack.pop()

    # -- shape inference ---------------------------------------------------------
    def _infer_shape(
        self, kind: str, inputs: Tuple[int, ...], module: Optional[Module], attrs: Dict
    ) -> Tuple[int, ...]:
        shape = self.shape_of(inputs[0]) if inputs else ()
        name = ".".join(self._name_stack) or kind
        if kind == "conv":
            c, h, w = shape
            if c != module.in_channels:
                raise ValueError(
                    f"layer '{name}' expects {module.in_channels} input channels, "
                    f"the graph provides {c}"
                )
            oh, ow = module.output_shape((h, w))
            return (module.out_channels, oh, ow)
        if kind == "linear":
            if len(shape) != 1 or shape[0] != module.in_features:
                raise ValueError(
                    f"layer '{name}' expects {module.in_features} input features, "
                    f"the graph provides {shape}"
                )
            return (module.out_features,)
        if kind in ("batchnorm", "activation"):
            return shape
        if kind == "pool":
            if attrs.get("pool") == "global_avg":
                return (shape[0],)
            k = attrs["kernel"]
            c, h, w = shape
            if h % k or w % k:
                raise ValueError(
                    f"pool '{name}' kernel {k} must divide spatial dims {(h, w)}"
                )
            return (c, h // k, w // k)
        if kind == "flatten":
            return (int(np.prod(shape)),)
        if kind == "add":
            for other in inputs[1:]:
                if self.shape_of(other) != shape:
                    raise ValueError(
                        f"add '{name}' mixes shapes {shape} and {self.shape_of(other)}"
                    )
            return shape
        raise ValueError(f"unknown graph op kind '{kind}' emitted by '{name}'")


def lower_model(model: Module, input_shape: Tuple[int, ...]) -> NetworkGraph:
    """Lower ``model`` into a :class:`NetworkGraph` for a ``(C, H, W)`` input.

    Raises ``NotImplementedError`` when the model (or one of its children)
    does not implement the ``lower_into`` hook; callers that support a legacy
    fallback (the inference engine, the MCU estimators) catch this.
    """
    if len(input_shape) != 3:
        raise ValueError(f"expected a (C, H, W) input shape, got {input_shape}")
    builder = GraphBuilder(input_shape)
    model.eval()
    output = builder.lower(model, builder.input_id)
    return NetworkGraph(
        ops=builder.ops,
        input_id=builder.input_id,
        output_id=output,
        num_buffers=len(builder._shapes),
        input_shape=tuple(input_shape),
    )
