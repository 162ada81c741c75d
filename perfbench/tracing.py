"""Spans recorded from outside the program, around the public functions of
each ``repro`` layer.

:func:`install` replaces those functions with wrappers that record a span
(name, start, end, parent, request id, thread) while ``Tracer.enabled`` is
set, and call straight through otherwise.  Nothing inside ``src/`` changes:
the wrappers sit on the module attributes and class methods the program
looks up at call time.  :func:`layer_metrics` turns the spans into the
per-layer metrics listed in ``BENCHMARK.json``.

A span's parent is the innermost span open on the same thread.  Three
links cross threads:

* a batch handed to the worker pool (``workers.execute``) lists the request
  ids it carries.  The batcher is first-in first-out, so the ``B`` requests
  of a ``B``-row batch are the ``B`` oldest submitted requests not yet
  dispatched;
* after the run, ``program.run`` on a worker thread gets the
  ``workers.execute`` span whose interval contains it as parent;
* after the run, an HTTP handler's ``predict_request`` gets the client
  request that contains it as parent (:func:`link_http`).
"""

from __future__ import annotations

import collections
import functools
import itertools
import re
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

from stats import median, tail

# Every per-layer metric the benchmark reports: (name, unit, better), in
# the order of BENCHMARK.json's ``per_layer`` list.
SEGMENT_SLOTS = 8
PER_LAYER = [
    ("compress.compress_s", "s", "lower"),
    ("engine.calibrate_s", "s", "lower"),
    ("pipeline.compile_s", "s", "lower"),
    ("pipeline.autotune_s", "s", "lower"),
    ("pipeline.autotune_trials", "count", "lower"),
    ("memory_plan.plan_s", "s", "lower"),
    ("memory_plan.arena_bytes", "bytes", "lower"),
    ("codegen.build_s", "s", "lower"),
    ("codegen.cache_hits", "count", "higher"),
    ("codegen.segment_ms", "ms", "lower"),
    ("codegen.segment_calls", "count", "lower"),
    *[(f"codegen.seg{i}_ms", "ms", "lower") for i in range(SEGMENT_SLOTS)],
    ("kernel_plan.conv_ms", "ms", "lower"),
    ("kernel_plan.conv_calls", "count", "lower"),
    ("kernel_plan.linear_ms", "ms", "lower"),
    ("program.bind_s", "s", "lower"),
    ("program.run_calls", "count", "higher"),
    ("program.rows_per_call", "rows", "higher"),
    ("program.self_ms", "ms", "lower"),
    ("program.tile", "rows", "higher"),
    ("program.n_shards", "count", "higher"),
    ("stream_plan.compile_s", "s", "lower"),
    ("stream_plan.crossover", "ratio", "higher"),
    ("stream_plan.incremental_p50_ms", "ms", "lower"),
    ("stream_plan.full_p50_ms", "ms", "lower"),
    ("stream_plan.frames_incremental", "count", "higher"),
    ("stream_plan.frames_full", "count", "lower"),
    ("stream_plan.frames_cached", "count", "higher"),
    ("stream_plan.dirty_fraction_mean", "ratio", "lower"),
    ("streaming.overhead_ms", "ms", "lower"),
    ("repository.publish_s", "s", "lower"),
    ("repository.load_s", "s", "lower"),
    ("server.submit_us", "us", "lower"),
    ("admission.admitted", "count", "higher"),
    ("admission.shed", "count", "lower"),
    ("batcher.queue_wait_p50_ms", "ms", "lower"),
    ("batcher.queue_wait_p99_ms", "ms", "lower"),
    ("batcher.batches", "count", "lower"),
    ("batcher.batch_size_mean", "rows", "higher"),
    ("workers.execute_p50_ms", "ms", "lower"),
    ("workers.execute_p99_ms", "ms", "lower"),
    ("workers.busy_share", "ratio", "lower"),
    ("http.edge_ms", "ms", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.failed", "count", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_rate_pct", "%", "higher"),
    ("trace.overhead_p50_ms", "ms", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


class Tracer:
    """In-memory span store; spans are written out when the run ends."""

    def __init__(self) -> None:
        self.enabled = False
        self.phase = "setup"
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []
        # Requests submitted to a batcher and not yet dispatched, per batcher.
        self._pending: Dict[int, collections.deque] = collections.defaultdict(
            collections.deque
        )
        self.queue_waits: List[float] = []

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> Optional[int]:
        return getattr(self._local, "rid", None)

    @contextmanager
    def request(self, rid: Optional[int]):
        """Tag every span this thread opens inside the block with ``rid``."""
        previous = self.request_id
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = previous

    def open(self, name: str, stacked: bool = True, **attrs) -> Dict[str, Any]:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1]["id"] if stack else None,
            "rid": self.request_id,
            "thread": threading.get_ident(),
            "phase": self.phase,
            "attrs": attrs,
        }
        if stacked:
            stack.append(span)
        return span

    def close(self, span: Dict[str, Any], stacked: bool = True) -> None:
        span["end"] = time.perf_counter()
        if stacked:
            stack = self._stack()
            if stack and stack[-1] is span:
                stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks).
        Only for moments when the program has no request in flight."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Record a span around ``owner.attr`` (a module function or a
        method); ``annotate(span, args, kwargs, result)`` adds attributes."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span["attrs"]["error"] = type(exc).__name__
                tracer.close(span)
                raise
            if annotate is not None:
                annotate(span, args, kwargs, result)
            tracer.close(span)
            return result

        self._replace(owner, attr, original, traced)

    def _replace(self, owner, attr: str, original, replacement) -> None:
        """Swap ``original`` for ``replacement`` on ``owner`` and in every
        ``repro`` module that imported it by name."""
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                module for key, module in list(sys.modules.items())
                if key.startswith("repro") and module is not owner
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            setattr(target, attr, replacement)
            self._undo.append(functools.partial(setattr, target, attr, original))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- batcher / worker-pool bookkeeping ----------------------------------
    def on_submit(self, batcher_id: int, rid: Optional[int]):
        """Queue a request before the batcher sees it; returns an undo for a
        submit that raises."""
        if not self.enabled:
            return lambda: None
        entry = (rid, time.perf_counter())
        with self._lock:
            queue = self._pending[batcher_id]
            queue.append(entry)

        def undo():
            with self._lock:
                if entry in queue:
                    queue.remove(entry)
        return undo

    def on_dispatch(self, rows: int) -> List[Optional[int]]:
        """Pop the ``rows`` oldest pending requests (FIFO batcher); record
        their queue waits; return their request ids."""
        now = time.perf_counter()
        rids = []
        with self._lock:
            for queue in self._pending.values():
                while queue and len(rids) < rows:
                    rid, arrival = queue.popleft()
                    rids.append(rid)
                    self.queue_waits.append(now - arrival)
        return rids


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every measured ``repro`` layer."""
    import repro.core.codegen as codegen
    import repro.core.compress as compress
    import repro.core.memory_plan as memory_plan
    import repro.core.pipeline as pipeline
    import repro.core.program as program
    import repro.core.stream_plan as stream_plan
    from repro.core.codegen.runtime import NativeExecution
    from repro.core.engine import BitSerialInferenceEngine
    from repro.core.kernel_plan import ConvKernelPlan, LinearKernelPlan
    from repro.serve.batcher import DynamicBatcher
    from repro.serve.repository import ModelRepository
    from repro.serve.server import InferenceServer
    from repro.serve.workers import ThreadWorkerPool

    def attr(key, fn):
        def annotate(span, args, kwargs, result):
            span["attrs"][key] = fn(args, kwargs, result)
        return annotate

    tracer.wrap(compress, "compress_model", "compress.compress_model")
    tracer.wrap(BitSerialInferenceEngine, "calibrate", "engine.calibrate")
    tracer.wrap(program, "compile_network", "pipeline.compile_network")
    tracer.wrap(pipeline, "autotune_schedule", "pipeline.autotune_schedule",
                attr("trials", lambda a, k, r: int(r.get("trials", 0))))
    tracer.wrap(memory_plan, "compile_execution_plan", "memory_plan.compile_execution_plan",
                attr("arena_bytes", lambda a, k, r: int(r.arena_bytes)))
    tracer.wrap(codegen, "build_shared_library", "codegen.build_shared_library",
                attr("cache_hit", lambda a, k, r: bool(r[1])))
    tracer.wrap(NativeExecution, "run_segment", "codegen.run_segment",
                attr("segment", lambda a, k, r: a[1].name))
    tracer.wrap(ConvKernelPlan, "__call__", "kernel_plan.conv")
    tracer.wrap(LinearKernelPlan, "__call__", "kernel_plan.linear")
    tracer.wrap(program.Executor, "__init__", "program.bind",
                attr("tile", lambda a, k, r: a[0].tile))
    tracer.wrap(program.Executor, "run", "program.run",
                attr("rows", lambda a, k, r: int(len(a[1]))))
    tracer.wrap(stream_plan, "compile_stream_plan", "stream_plan.compile",
                attr("crossover", lambda a, k, r: float(r.crossover)))
    tracer.wrap(stream_plan.StreamSession, "process", "stream_plan.process",
                attr("info", lambda a, k, r: {
                    "mode": r[1]["mode"], "dirty_fraction": r[1]["dirty_fraction"]}))
    tracer.wrap(ModelRepository, "publish", "repository.publish")
    tracer.wrap(ModelRepository, "get", "repository.load")
    tracer.wrap(InferenceServer, "predict_async", "server.predict_async")
    tracer.wrap(InferenceServer, "predict_request", "server.predict_request")

    submit = DynamicBatcher.__dict__["submit"]

    @functools.wraps(submit)
    def queued_submit(self, *args, **kwargs):
        undo = tracer.on_submit(id(self), tracer.request_id)
        try:
            return submit(self, *args, **kwargs)
        except BaseException:
            undo()
            raise

    tracer._replace(DynamicBatcher, "submit", submit, queued_submit)

    pool_submit = ThreadWorkerPool.__dict__["submit"]

    @functools.wraps(pool_submit)
    def executed_submit(self, batch, *args, **kwargs):
        if not tracer.enabled:
            return pool_submit(self, batch, *args, **kwargs)
        rids = tracer.on_dispatch(len(batch))
        span = tracer.open("workers.execute", stacked=False, rows=len(batch), rids=rids)
        future = pool_submit(self, batch, *args, **kwargs)
        future.add_done_callback(lambda f: tracer.close(span, stacked=False))
        return future

    tracer._replace(ThreadWorkerPool, "submit", pool_submit, executed_submit)


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------
def _duration(span) -> float:
    return span["end"] - span["start"]


def _covered(span, children) -> float:
    """Length of the part of ``span`` that the union of ``children`` covers."""
    intervals = sorted(
        (max(c["start"], span["start"]), min(c["end"], span["end"])) for c in children
    )
    total, cur_start, cur_end = 0.0, None, None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def link_workers(spans: List[Dict[str, Any]]) -> None:
    """Parent every worker-thread ``program.run`` to the batch containing it."""
    executes = [s for s in spans if s["name"] == "workers.execute"]
    for span in spans:
        if span["name"] != "program.run" or span["parent"] is not None:
            continue
        holders = [
            e for e in executes
            if e["start"] <= span["start"] and span["end"] <= e["end"]
        ]
        if holders:
            holder = max(holders, key=lambda e: e["start"])
            span["parent"] = holder["id"]
            if span["rid"] is None and holder["attrs"].get("rids"):
                span["rid"] = holder["attrs"]["rids"][0]


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id → duration minus the part its child spans cover."""
    children = collections.defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    return {s["id"]: _duration(s) - _covered(s, children[s["id"]]) for s in spans}


def _segment_index(name: str, order: Dict[str, int]) -> int:
    match = re.search(r"(\d+)$", name)
    if match:
        return int(match.group(1))
    return order.setdefault(name, len(order))


def layer_metrics(
    spans: List[Dict[str, Any]],
    counters: Dict[str, float],
    queue_waits: List[float],
    measured_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (0 where a layer did no work).

    Set-up metrics sum the set-up phase's spans; the others come from the
    traced part of the measuring window, whose length is ``measured_s``.
    ``counters`` are the served model's own admission and batching totals
    over that part (``admitted``, ``shed``, ``batches``, ``batched_rows``).
    """
    link_workers(spans)
    link_http(spans)
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    setup = collections.defaultdict(list)
    run = collections.defaultdict(list)
    for span in spans:
        (setup if span["phase"] == "setup" else run)[span["name"]].append(span)

    def total_s(group, name):
        return sum(_duration(s) for s in group[name])

    def mean_ms(values):
        return 1e3 * sum(values) / len(values) if values else 0.0

    m: Dict[str, float] = {name: 0.0 for name in UNITS}
    m["compress.compress_s"] = total_s(setup, "compress.compress_model")
    m["engine.calibrate_s"] = total_s(setup, "engine.calibrate")
    m["pipeline.compile_s"] = total_s(setup, "pipeline.compile_network")
    m["pipeline.autotune_s"] = total_s(setup, "pipeline.autotune_schedule")
    m["pipeline.autotune_trials"] = sum(
        s["attrs"].get("trials", 0) for s in setup["pipeline.autotune_schedule"]
    )
    m["memory_plan.plan_s"] = total_s(setup, "memory_plan.compile_execution_plan")
    m["memory_plan.arena_bytes"] = max(
        [s["attrs"].get("arena_bytes", 0) for s in setup["memory_plan.compile_execution_plan"]]
        or [0]
    )
    m["codegen.build_s"] = total_s(setup, "codegen.build_shared_library")
    m["codegen.cache_hits"] = sum(
        1 for s in setup["codegen.build_shared_library"] if s["attrs"].get("cache_hit")
    )
    m["program.bind_s"] = sum(selfs[s["id"]] for s in setup["program.bind"])
    m["stream_plan.compile_s"] = total_s(setup, "stream_plan.compile")
    m["repository.publish_s"] = total_s(setup, "repository.publish")
    m["repository.load_s"] = total_s(setup, "repository.load")

    segments = run["codegen.run_segment"]
    m["codegen.segment_calls"] = len(segments)
    m["codegen.segment_ms"] = mean_ms([_duration(s) for s in segments])
    per_segment = collections.defaultdict(list)
    order: Dict[str, int] = {}
    for s in segments:
        per_segment[_segment_index(s["attrs"]["segment"], order)].append(_duration(s))
    for index, values in per_segment.items():
        if index < SEGMENT_SLOTS:
            m[f"codegen.seg{index}_ms"] = mean_ms(values)

    # Convolutions a linear layer runs internally belong to the linear call.
    convs = [
        s for s in run["kernel_plan.conv"]
        if s["parent"] is None or by_id.get(s["parent"], {}).get("name") != "kernel_plan.linear"
    ]
    m["kernel_plan.conv_calls"] = len(convs)
    m["kernel_plan.conv_ms"] = mean_ms([_duration(s) for s in convs])
    m["kernel_plan.linear_ms"] = mean_ms([_duration(s) for s in run["kernel_plan.linear"]])

    runs = run["program.run"]
    m["program.run_calls"] = len(runs)
    if runs:
        m["program.rows_per_call"] = sum(s["attrs"].get("rows", 0) for s in runs) / len(runs)
        m["program.self_ms"] = mean_ms([selfs[s["id"]] for s in runs])

    frames = run["stream_plan.process"]
    modes = collections.defaultdict(list)
    for s in frames:
        modes[s["attrs"]["info"]["mode"]].append(s)
    m["stream_plan.frames_incremental"] = len(modes["incremental"])
    m["stream_plan.frames_full"] = len(modes["full"])
    m["stream_plan.frames_cached"] = len(modes["cached"])
    m["stream_plan.incremental_p50_ms"] = 1e3 * median([_duration(s) for s in modes["incremental"]])
    m["stream_plan.full_p50_ms"] = 1e3 * median([_duration(s) for s in modes["full"]])
    if modes["incremental"]:
        m["stream_plan.dirty_fraction_mean"] = sum(
            s["attrs"]["info"]["dirty_fraction"] for s in modes["incremental"]
        ) / len(modes["incremental"])
    crossover = setup["stream_plan.compile"]
    if crossover:
        m["stream_plan.crossover"] = crossover[-1]["attrs"].get("crossover", 0.0)

    client_frames = run["client.frame"]
    overhead = []
    for frame in client_frames:
        inner = [s for s in frames if s["parent"] == frame["id"]]
        if inner:
            overhead.append(_duration(frame) - sum(_duration(s) for s in inner))
    m["streaming.overhead_ms"] = 1e3 * median(overhead)

    m["server.submit_us"] = 1e6 * median([_duration(s) for s in run["server.predict_async"]])
    m["admission.admitted"] = counters.get("admitted", 0)
    m["admission.shed"] = counters.get("shed", 0)
    m["batcher.batches"] = counters.get("batches", 0)
    if m["batcher.batches"]:
        m["batcher.batch_size_mean"] = counters["batched_rows"] / m["batcher.batches"]

    executes = run["workers.execute"]
    waits = [1e3 * w for w in queue_waits]
    m["batcher.queue_wait_p50_ms"] = median(waits)
    m["batcher.queue_wait_p99_ms"] = tail(waits)["value"]
    execute_ms = [1e3 * _duration(s) for s in executes]
    m["workers.execute_p50_ms"] = median(execute_ms)
    m["workers.execute_p99_ms"] = tail(execute_ms)["value"]
    if executes and measured_s > 0:
        window = {"start": min(s["start"] for s in executes), "end": max(s["end"] for s in executes)}
        m["workers.busy_share"] = _covered(window, executes) / measured_s

    m["http.edge_ms"] = 1e3 * median([
        _duration(by_id[h["parent"]]) - _duration(h)
        for h in run["server.predict_request"] if h["parent"] in by_id
    ])
    m["trace.spans"] = len(spans)
    return m


def link_http(spans: List[Dict[str, Any]]) -> None:
    """Give each server-side ``predict_request`` the id of the client request
    it served.

    Each keep-alive connection is served by one handler thread and sends its
    requests one after another, so a handler span belongs to the client
    request whose interval contains it on the connection already matched to
    that thread.
    """
    clients = sorted((s for s in spans if s["name"] == "client.request"), key=lambda s: s["start"])
    handlers = sorted(
        (s for s in spans if s["name"] == "server.predict_request"), key=lambda s: s["start"]
    )
    thread_of_conn: Dict[Any, int] = {}
    for handler in handlers:
        candidates = [
            c for c in clients
            if c["start"] <= handler["start"] and handler["end"] <= c["end"]
            and thread_of_conn.get(c["attrs"]["conn"], handler["thread"]) == handler["thread"]
        ]
        if len(candidates) == 1:
            client = candidates[0]
            thread_of_conn[client["attrs"]["conn"]] = handler["thread"]
            handler["rid"] = client["rid"]
            handler["parent"] = client["id"]
