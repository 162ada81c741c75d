"""The inference server: repository-backed, batched, multi-worker serving.

:class:`InferenceServer` composes the serve stack:

* a :class:`~repro.serve.repository.ModelRepository` supplies compiled
  :class:`~repro.core.program.NetworkProgram` artifacts by name/version
  (latest version wins when none is requested — publishing a new version
  hot-swaps traffic on the next request);
* per served (name, version) a *pipeline* is built lazily: a worker pool
  (threads in-process, or OS processes loading the artifact themselves)
  behind a :class:`~repro.serve.batcher.DynamicBatcher`, plus
  :class:`~repro.serve.stats.ModelStats`;
* ``predict`` / ``predict_async`` submit single samples through the batcher;
  ``predict_batch`` sends a pre-formed batch straight to the worker pool
  (bulk clients should not pay the coalescing delay they do not need).

The programmatic API is thread-safe; the stdlib HTTP front end
(:func:`repro.serve.http.serve_http`) is a thin JSON adapter over it.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.program import Executor, NetworkProgram, auto_backend
from repro.core.stream_plan import StreamUnsupported
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejected,
    BreakerPolicy,
    CircuitBreaker,
    ConcurrencyBudget,
    ResilientDispatcher,
    RetryPolicy,
)
from repro.serve.autoscaler import Autoscaler, AutoscalePolicy, ScaleMetrics
from repro.serve.batcher import (
    BatcherClosed,
    BatchPolicy,
    DeadlineExceeded,
    DynamicBatcher,
)
from repro.serve.clock import SYSTEM_CLOCK, Clock
from repro.serve.cluster.router import ClusterRouter, RouterPool
from repro.serve.faults import FaultPlan
from repro.serve.repository import ModelRepository
from repro.serve.rollout import RolloutController, RolloutPolicy
from repro.serve.stats import ModelStats, ServerStats
from repro.serve.streaming import StreamManager, StreamPolicy
from repro.serve.workers import ProcessWorkerPool, ThreadWorkerPool


class ServerClosed(RuntimeError):
    """The request was (or would be) dropped because the server closed.

    Requests still queued in a pipeline's batcher when ``close()`` runs
    fail with this error — deterministically, before worker-pool teardown —
    instead of racing the teardown ordering.
    """


# Distinguishes "caller passed None to disable" from "caller said nothing"
# for the resilience policies that default to enabled.
_DEFAULT = object()


class _Pipeline:
    """The serving machinery of one (name, version): pool + batcher + stats.

    Thread mode holds the deserialized program (each worker thread builds its
    own executor from it); process mode holds only the artifact path — the
    worker processes load the program themselves, so the parent never pays
    (or duplicates) the deserialization.
    """

    def __init__(
        self,
        server: "InferenceServer",
        name: str,
        version: int,
        path: Path,
        input_shape: Tuple[int, ...],
        program: Optional[NetworkProgram],
        pipeline_report: Optional[Dict] = None,
    ):
        self.server = server
        self.name = name
        self.version = version
        self.path = path
        self.input_shape = tuple(input_shape)
        self.program = program
        # The compile pipeline's report (level, per-pass counters) from the
        # artifact metadata; surfaced under the ``pipeline`` key of /stats.
        self.pipeline_report = pipeline_report
        # An explicitly requested (pinned) version is exempt from hot-swap
        # retirement; set by the server on pinned lookups.
        self.pinned = False
        self.stats = ModelStats(queue_depth_fn=lambda: self.batcher.queue_depth())
        # Per-model circuit breaker: opened by repeated worker crashes (fed
        # through the resilient dispatcher), surfaced in stats and /healthz.
        self.breaker: Optional[CircuitBreaker] = None
        if server.breaker_policy is not None:
            self.breaker = CircuitBreaker(
                server.breaker_policy,
                on_transition=self.stats.record_breaker_transition,
            )
            self.stats.breaker_fn = self.breaker.snapshot
        if server.worker_mode == "cluster":
            # The "pool" is a per-model view of the shared cluster router:
            # batches shard across remote replica nodes, failed shards
            # re-dispatch to survivors, and an empty membership raises
            # NoReplicas (a NoLiveWorkers) — so the resilient dispatcher,
            # breaker, and admission control below apply to the cluster
            # exactly as they do to local pools.
            self.pool = RouterPool(
                server.cluster, name, version, stats=self.stats
            )
        elif server.worker_mode == "process":
            self.pool = ProcessWorkerPool(
                path,
                backend=server.backend,
                num_workers=server.workers,
                mp_context=server.mp_context,
                fault_plan=server.fault_plan,
            )
        else:
            # One shared, internally-sharded executor when the program plans
            # ahead of time (its run() is thread-safe: worker threads check
            # shard arenas out of the executor's pool); otherwise each worker
            # thread builds its own executor — unplanned executors are
            # single-threaded objects (plan caches and scratch).
            # O4 artifacts route to the native backend (rebuilt — or
            # cache-loaded — deterministically from the artifact's persisted
            # source); the executor downgrades to ``plan`` with a surfaced
            # fallback_reason when the host cannot build it.
            backend = auto_backend(server.backend, program)
            probe = Executor(program, backend=backend)
            if probe.thread_safe:
                self.pool = ThreadWorkerPool(
                    lambda: probe,
                    num_workers=server.workers,
                    name=f"serve-{name}-v{version}",
                    shared=True,
                    fault_plan=server.fault_plan,
                )
            else:
                # Per-worker executors; the probe is not wasted — the first
                # worker to ask adopts it instead of binding a second time.
                spare = [probe]

                def factory():
                    try:
                        return spare.pop()
                    except IndexError:
                        return Executor(program, backend=backend)

                self.pool = ThreadWorkerPool(
                    factory,
                    num_workers=server.workers,
                    name=f"serve-{name}-v{version}",
                    fault_plan=server.fault_plan,
                )
        # Batches reach the pool through the resilient dispatcher: bounded
        # retry on worker crashes, gated by the breaker.  With both disabled
        # the pool's submit is used directly (identical fast path).
        if server.retry_policy is not None or self.breaker is not None:
            self.dispatch = ResilientDispatcher(
                self.pool.submit,
                retry=server.retry_policy,
                breaker=self.breaker,
                stats=self.stats,
            )
        else:
            self.dispatch = self.pool.submit
        self.batcher = DynamicBatcher(
            self.dispatch,
            policy=server.policy,
            stats=self.stats,
            name=f"{name}-v{version}",
        )
        # Admission control sits in front of the batcher queue; the breaker
        # also sheds here (fail-fast while hard-open).  Depth is the
        # pipeline-wide backlog (queued + batching + in a worker): the
        # batcher queue itself drains into the pool near-instantly, so its
        # raw size would never reflect overload.
        self.admission = AdmissionController(
            server.admission_policy,
            queue_depth_fn=self.stats.backlog,
            stats=self.stats,
            breaker=self.breaker,
        )
        self.stats.queue_capacity = (
            self.admission.policy.max_queue_depth or server.policy.max_queue
        )
        self.stats.workers_fn = lambda: int(self.pool.num_workers)
        # Baseline for proportional queue-bound scaling: the startup bound
        # was calibrated for this many workers.
        self._base_capacity = self.stats.queue_capacity
        self._base_workers = max(1, server.workers)
        # Streaming sessions (built lazily by the first stream request —
        # compiling a stream plan costs a few full-frame runs, which batch
        # traffic must not pay).
        self.stream_manager: Optional[StreamManager] = None
        self._stream_lock = threading.Lock()

    # -- streaming ---------------------------------------------------------------
    def streaming(self) -> StreamManager:
        """The pipeline's stream manager, building it on first use.

        Capability-gated on the *artifact metadata* before anything is
        built: the ``stream`` block only exists in schema ≥ 3 headers, so a
        pre-schema artifact — or one whose graph has no streaming rules —
        is rejected with :class:`StreamUnsupported` (HTTP 400,
        ``stream_unsupported``) instead of a KeyError deep in the stack.
        """
        with self._stream_lock:
            if self.stream_manager is not None:
                return self.stream_manager
            meta = self.server.repository.metadata(self.name, self.version)
            stream_meta = meta.get("stream")
            if stream_meta is None:
                raise StreamUnsupported(
                    f"artifact {self.name!r} v{self.version} predates the "
                    f"streaming metadata schema (program schema >= 3); "
                    f"re-export and republish it to stream"
                )
            if not stream_meta.get("supported"):
                raise StreamUnsupported(
                    f"model {self.name!r} v{self.version} cannot stream: "
                    f"its program has ops without streaming rules"
                )
            program = self.program
            if program is None:
                # Process/cluster pipelines hold only the artifact path; the
                # stream plan runs in this process, so load (LRU-cached).
                program = self.server.repository.get(self.name, self.version).program
            self.stream_manager = StreamManager(
                program,
                policy=self.server.stream_policy,
                clock=self.server.clock,
                name=f"{self.name}-v{self.version}",
            )
            return self.stream_manager

    # -- autoscaler target adapter ----------------------------------------------
    def metrics(self) -> ScaleMetrics:
        """One control-loop sample (the autoscaler's view of this pipeline)."""
        return ScaleMetrics(
            backlog=self.stats.backlog(),
            workers=int(self.pool.num_workers),
            submitted=self.stats.submitted,
            queue_wait_p95_ms=self.stats.queue_wait_p95_ms(),
        )

    def resize(self, workers: int) -> int:
        """Resize the worker pool; the admission queue bound (and the
        capacity ``/healthz`` judges saturation against) scales with it."""
        actual = int(self.pool.resize(workers))
        policy = self.server.autoscale_policy
        if policy is not None and policy.scale_queue_bound and self._base_capacity:
            bound = max(
                1, math.ceil(self._base_capacity * actual / self._base_workers)
            )
            if self.admission.policy.max_queue_depth is not None:
                self.admission.set_queue_bound(bound)
            self.stats.queue_capacity = bound
        return actual

    def plan_info(self) -> Optional[Dict]:
        """Planner/runtime counters of this pipeline's executor(s), if any.

        Thread mode reads the shared executor directly; process mode reports
        what a worker sent back in its ready handshake (``None`` until one
        has).  The same counters appear in
        :meth:`repro.core.program.NetworkProgram.metadata`, so bench records
        and the ``/stats`` endpoint agree.
        """
        executor = getattr(self.pool, "shared_executor", None)
        if executor is not None and getattr(executor, "plan_info", None):
            info = dict(executor.plan_info)
            info["max_shards_used"] = int(getattr(executor, "max_shards_used", 0))
            info["workers"] = len(getattr(self.pool, "_threads", ())) or 1
            return info
        info = getattr(self.pool, "plan_info", None)
        if info:
            info = dict(info)
            info["workers"] = len(getattr(self.pool, "_workers", ())) or 1
            return info
        return None

    def close(self, drain: bool = True, error: Optional[BaseException] = None) -> None:
        """Stop the pipeline.  ``drain=True`` flushes queued requests
        through the pool first (hot-swap retirement); ``drain=False`` fails
        them immediately with ``error`` (server shutdown)."""
        self.batcher.close(drain=drain, error=error)
        self.pool.close()
        with self._stream_lock:
            if self.stream_manager is not None:
                self.stream_manager.close()


class InferenceServer:
    """Serve compiled network programs with dynamic batching.

    Parameters
    ----------
    repository:
        A :class:`ModelRepository` (or a path, which constructs one).
    policy:
        Dynamic batching policy shared by every served model.
    workers:
        Worker count per served model version.
    worker_mode:
        ``"thread"`` (default; in-process executors), ``"process"`` (each
        worker is an OS process loading the artifact itself), or
        ``"cluster"`` (batches shard across remote replica nodes through
        the :class:`~repro.serve.cluster.router.ClusterRouter` passed as
        ``cluster=``; see docs/CLUSTER.md).
    backend:
        Executor backend for every pipeline (``plan`` / ``reference`` /
        ``cost`` — any registered name).
    mp_context:
        Start method for process workers (``fork``/``spawn``), ``None`` for
        the platform default.
    admission:
        Per-model :class:`~repro.serve.admission.AdmissionPolicy` (queue
        depth / concurrency budget / priority classes); the default policy
        sheds only while a circuit breaker is hard-open.
    retry:
        :class:`~repro.serve.admission.RetryPolicy` for batches that fail
        with a worker crash — bounded exponential backoff re-dispatch to
        surviving workers.  Enabled by default; pass ``None`` to disable.
    breaker:
        :class:`~repro.serve.admission.BreakerPolicy` for the per-model
        circuit breaker (closed → open on repeated crashes → half-open
        probe → closed).  Enabled by default; pass ``None`` to disable.
    default_deadline_ms:
        Deadline applied to requests that do not carry one; ``None`` (the
        default) leaves such requests unbounded.
    fault_plan:
        Optional :class:`~repro.serve.faults.FaultPlan` injected into every
        worker pool — deterministic chaos for tests; ``None`` (the
        default) injects nothing.
    autoscale:
        Optional :class:`~repro.serve.autoscaler.AutoscalePolicy`.  When
        set, every pipeline is watched by an :class:`Autoscaler` that
        grows/shrinks its worker pool with load (``workers`` is the
        *initial* size) and parks idle pipelines entirely (scale-to-zero:
        the compiled program stays warm in the repository cache, so the
        next request revives it with identical predictions).
    budget:
        Optional per-model concurrency budgets: a
        :class:`~repro.serve.admission.ConcurrencyBudget`, or a mapping of
        model name → cap (converted to one).  Enforced at admission across
        all pipelines, so one hot model cannot starve the rest.
    clock:
        Injectable :class:`~repro.serve.clock.Clock` driving the
        autoscaler's ticker (wall-clock by default; the deterministic test
        harness substitutes a virtual clock).
    cluster:
        The :class:`~repro.serve.cluster.router.ClusterRouter` serving
        ``worker_mode="cluster"``.  Owned by the caller: the server's
        ``close()`` leaves it (and its replica membership/heartbeats)
        running, so it can be shared or torn down independently.
    stream:
        :class:`~repro.serve.streaming.StreamPolicy` governing stateful
        stream sessions (TTL, capacity, tile size, diff threshold); the
        default policy applies when omitted.  Sessions are built lazily by
        the first ``stream_request`` against each pipeline.
    """

    def __init__(
        self,
        repository: Union[ModelRepository, str],
        policy: Optional[BatchPolicy] = None,
        workers: int = 1,
        worker_mode: str = "thread",
        backend: str = "plan",
        mp_context: Optional[str] = None,
        admission: Optional[AdmissionPolicy] = None,
        retry=_DEFAULT,
        breaker=_DEFAULT,
        default_deadline_ms: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        autoscale: Optional[AutoscalePolicy] = None,
        budget: Optional[Union[ConcurrencyBudget, Mapping[str, int]]] = None,
        clock: Clock = SYSTEM_CLOCK,
        cluster: Optional[ClusterRouter] = None,
        stream: Optional[StreamPolicy] = None,
    ):
        if worker_mode not in ("thread", "process", "cluster"):
            raise ValueError(
                f"worker_mode must be 'thread', 'process' or 'cluster', "
                f"got {worker_mode!r}"
            )
        if worker_mode == "cluster" and cluster is None:
            raise ValueError("worker_mode='cluster' needs a ClusterRouter (cluster=...)")
        self.repository = (
            repository if isinstance(repository, ModelRepository) else ModelRepository(repository)
        )
        self.policy = policy or BatchPolicy()
        self.workers = workers
        self.worker_mode = worker_mode
        self.backend = backend
        self.mp_context = mp_context
        self.admission_policy = admission or AdmissionPolicy()
        self.retry_policy: Optional[RetryPolicy] = (
            RetryPolicy() if retry is _DEFAULT else retry
        )
        self.breaker_policy: Optional[BreakerPolicy] = (
            BreakerPolicy() if breaker is _DEFAULT else breaker
        )
        self.default_deadline_ms = default_deadline_ms
        self.fault_plan = fault_plan
        # Cluster mode: the shared router every pipeline shards through.
        # The router's lifecycle belongs to whoever built it (tests reuse
        # one across servers), so close() leaves it running.
        self.cluster = cluster
        self.server_stats = ServerStats()
        self.clock = clock
        self.autoscale_policy = autoscale
        if budget is not None and not isinstance(budget, ConcurrencyBudget):
            budget = ConcurrencyBudget(budget)
        self.budget: Optional[ConcurrencyBudget] = budget
        # Streaming sessions: one policy shared by every pipeline's
        # StreamManager (built lazily on the first stream request).
        self.stream_policy: StreamPolicy = stream or StreamPolicy()
        self._lock = threading.Lock()
        self._pipelines: Dict[Tuple[str, int], _Pipeline] = {}
        self._rollouts: Dict[str, RolloutController] = {}
        # Keys ("name/version") the autoscaler parked (scale-to-zero); a
        # rebuild of such a key counts as a warm revival.
        self._parked: set = set()
        self._closed = False
        self.autoscaler: Optional[Autoscaler] = None
        if autoscale is not None:
            self.autoscaler = Autoscaler(
                autoscale, clock=clock, on_park=self._park
            ).start()

    # -- pipelines ---------------------------------------------------------------
    def _pipeline(self, name: str, version: Optional[int] = None) -> _Pipeline:
        """The pipeline for (name, version-or-latest), building it on demand.

        With ``version=None`` the latest published version is re-resolved on
        every call (a directory listing), which is what makes hot-swap work:
        publish version N+1 and the very next request builds its pipeline and
        drains the old one.  An explicitly pinned version is marked and never
        retired by hot-swap; its pipeline lives until ``close()``.
        """
        if self._closed:
            raise ServerClosed("server is closed")
        pinned = version is not None
        if pinned:
            # Fast path: a pinned, already-built pipeline needs no disk I/O.
            with self._lock:
                pipeline = self._pipelines.get((name, version))
                if pipeline is not None:
                    pipeline.pinned = True
                    return pipeline
        name, version, path = self.repository.resolve(name, version)
        key = (name, version)
        with self._lock:
            pipeline = self._pipelines.get(key)
            if pipeline is not None:
                if pinned:
                    pipeline.pinned = True
                return pipeline
        # Build outside the lock: artifact deserialization and worker spawns
        # are slow and must not stall traffic to already-built pipelines.  A
        # concurrent build of the same key is resolved by re-checking on
        # insert (the loser is closed before it ever saw a request).
        if self.worker_mode in ("process", "cluster"):
            # Workers (or replica nodes) load the artifact themselves; the
            # parent only needs the path and the input shape (header-only
            # read).  Cluster replicas hold their own synced repositories —
            # the digest in the header guarantees they serve the same bytes.
            meta = self.repository.metadata(name, version)
            candidate = _Pipeline(
                self, name, version, path, tuple(meta["input_shape"]), None,
                pipeline_report=meta.get("pipeline"),
            )
        else:
            loaded = self.repository.get(name, version)
            candidate = _Pipeline(
                self, name, version, loaded.path,
                tuple(loaded.program.input_shape), loaded.program,
                pipeline_report=(loaded.metadata or {}).get("pipeline"),
            )
        retired: List[_Pipeline] = []
        loser: Optional[_Pipeline] = None
        installed = False
        revived = False
        key_str = f"{name}/{version}"
        with self._lock:
            if self._closed:
                loser = candidate
                pipeline = None
            else:
                pipeline = self._pipelines.get(key)
                if pipeline is None:
                    pipeline = candidate
                    self._pipelines[key] = pipeline
                    installed = True
                    revived = key_str in self._parked
                    self._parked.discard(key_str)
                else:
                    loser = candidate
                if pinned:
                    pipeline.pinned = True
                for k in list(self._pipelines):
                    old = self._pipelines[k]
                    if k[0] == name and k[1] < version and not old.pinned:
                        retired.append(self._pipelines.pop(k))
        if loser is not None:
            loser.close()
        if installed and self.autoscaler is not None:
            self.autoscaler.watch(key_str, pipeline, revived=revived)
        # Retire superseded versions on a background thread: close() drains
        # the old queue (accepted requests still resolve), which can take as
        # long as the backlog — the request that happened to trigger the
        # hot-swap must not stall for it.
        for old in retired:
            if self.autoscaler is not None:
                self.autoscaler.unwatch(f"{old.name}/{old.version}")
            threading.Thread(
                target=old.close, name=f"retire-{old.name}-v{old.version}", daemon=True
            ).start()
        if pipeline is None:
            raise ServerClosed("server is closed")
        return pipeline

    def serving(self) -> List[Tuple[str, int]]:
        """(name, version) pairs with a live pipeline."""
        with self._lock:
            return sorted(self._pipelines)

    def _park(self, key: str) -> None:
        """Autoscaler scale-to-zero callback: retire the idle pipeline.

        The pipeline (pool, batcher, breaker) is torn down completely; the
        compiled program stays warm in the repository's LRU cache, so the
        next request rebuilds the pipeline from a cache hit — the *same*
        program object, hence bitwise-identical predictions after revival.
        """
        name, _, version_s = key.rpartition("/")
        try:
            version = int(version_s)
        except ValueError:
            return
        with self._lock:
            if self._closed:
                return
            pipeline = self._pipelines.pop((name, version), None)
            if pipeline is not None:
                self._parked.add(key)
        if pipeline is not None:
            # Idle by definition (that is why it parked), so the drain is
            # instant; drain=True still covers a last-instant straggler.
            pipeline.close(drain=True)

    # -- canary rollout ----------------------------------------------------------
    def start_rollout(
        self,
        name: str,
        canary: Optional[int] = None,
        stable: Optional[int] = None,
        policy: Optional[RolloutPolicy] = None,
    ) -> RolloutController:
        """Begin a staged canary rollout for ``name``.

        ``canary`` defaults to the latest published version, ``stable`` to
        the highest version below it.  Both pipelines are built (and pinned
        against hot-swap retirement) up front, then unversioned requests are
        routed through the controller's weighted router until it promotes
        or rolls back.  One rollout per model at a time.
        """
        with self._lock:
            existing = self._rollouts.get(name)
        if existing is not None and existing.state == "canary":
            raise ValueError(
                f"a rollout for {name!r} is already in progress "
                f"(stage {existing.stage_index}); abort or finish it first"
            )
        name, canary_version, _ = self.repository.resolve(name, canary)
        if stable is None:
            versions = self.repository.versions(name)
            below = [v for v in versions if v < canary_version]
            if not below:
                raise ValueError(
                    f"no stable version below canary v{canary_version} for {name!r}"
                )
            stable = below[-1]
        else:
            self.repository.resolve(name, stable)  # existence check
        controller = RolloutController(
            name, stable=stable, canary=canary_version, policy=policy
        )
        # Pin both arms before any routed traffic: a canary build must
        # never hot-swap-retire the stable pipeline mid-rollout.
        self._pipeline(name, stable)
        self._pipeline(name, canary_version)
        with self._lock:
            self._rollouts[name] = controller
        return controller

    def rollout_status(self, name: str) -> Optional[Dict]:
        """The model's rollout snapshot, or ``None`` when none is installed."""
        with self._lock:
            controller = self._rollouts.get(name)
        return controller.snapshot() if controller is not None else None

    def abort_rollout(self, name: str, reason: str = "aborted by operator") -> None:
        """Manually roll the model's canary back (no-op after promotion)."""
        with self._lock:
            controller = self._rollouts.get(name)
        if controller is not None:
            controller.abort(reason)

    def end_rollout(self, name: str) -> None:
        """Remove the model's rollout controller and return to normal
        latest-version resolution.  After a rollback, supersede or delete
        the bad version first — otherwise "latest" routes to it again."""
        with self._lock:
            self._rollouts.pop(name, None)

    def _route_version(
        self, name: str, version: Optional[int]
    ) -> Tuple[Optional[int], Optional[RolloutController]]:
        """Apply the model's rollout router to unversioned requests."""
        if version is not None:
            return version, None  # explicit pins bypass the rollout
        with self._lock:
            controller = self._rollouts.get(name)
        if controller is None:
            return None, None
        return controller.route(), controller

    def _settle_rollout(
        self,
        controller: RolloutController,
        version: int,
        error: bool,
        latency_ms: Optional[float],
    ) -> None:
        controller.record(version, error=error, latency_ms=latency_ms)
        controller.evaluate()

    # -- inference ---------------------------------------------------------------
    def _resolve_deadline(
        self, timeout_ms: Optional[float], deadline: Optional[float]
    ) -> Optional[float]:
        """Absolute perf_counter deadline from either form (or the server
        default); an explicit ``deadline`` wins over ``timeout_ms``."""
        if deadline is not None:
            return deadline
        if timeout_ms is None:
            timeout_ms = self.default_deadline_ms
        if timeout_ms is None:
            return None
        return time.perf_counter() + timeout_ms / 1e3

    @staticmethod
    def _await(
        future: Future, timeout: Optional[float], deadline: Optional[float]
    ):
        """``future.result`` bounded by the request deadline: a dispatched
        batch that outlives the deadline fails the *request* with
        :class:`DeadlineExceeded` instead of blocking on the batch."""
        if deadline is not None:
            remaining = deadline - time.perf_counter()
            timeout = remaining if timeout is None else min(timeout, remaining)
            if timeout <= 0:
                timeout = 0
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            if deadline is not None and time.perf_counter() >= deadline:
                future.cancel()  # drop it from the window if still queued
                raise DeadlineExceeded(
                    "request deadline expired while the batch executed"
                ) from None
            raise

    def predict_async(
        self,
        name: str,
        sample: np.ndarray,
        version: Optional[int] = None,
        priority: Optional[str] = None,
        timeout_ms: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> Future:
        """Submit one sample; the future resolves to its output row.

        The sample shape is validated here, before coalescing, so one
        malformed request fails alone instead of failing the batch it would
        have joined.  The request passes admission control first (shedding
        raises :class:`~repro.serve.admission.AdmissionRejected` without
        queueing anything) and carries its deadline — ``timeout_ms``
        relative, or ``deadline`` as an absolute ``time.perf_counter``
        timestamp — into the batcher, where expired requests are dropped
        from forming batches.
        """
        sample = np.asarray(sample)
        deadline = self._resolve_deadline(timeout_ms, deadline)
        version, rollout = self._route_version(name, version)
        start = time.perf_counter()
        budget = self.budget
        try:
            for attempt in (0, 1):
                pipeline = self._pipeline(name, version)
                if sample.shape != pipeline.input_shape:
                    raise ValueError(
                        f"sample shape {sample.shape} does not match model "
                        f"'{name}' input shape {pipeline.input_shape}"
                    )
                admission = pipeline.admission
                if budget is not None:
                    budget.acquire(name, stats=pipeline.stats)
                try:
                    admission.admit(priority)
                except BaseException:
                    if budget is not None:
                        budget.release(name)
                    raise
                try:
                    future = pipeline.batcher.submit(sample, deadline=deadline)
                except BatcherClosed:
                    # Lost the race against a concurrent hot-swap retirement;
                    # the retired pipeline is already out of the table, so the
                    # retry resolves to the replacement.
                    admission.release()
                    if budget is not None:
                        budget.release(name)
                    if attempt:
                        raise
                    continue
                except BaseException:
                    admission.release()
                    if budget is not None:
                        budget.release(name)
                    raise

                def _done(f, a=admission, served=pipeline.version):
                    a.release()
                    if budget is not None:
                        budget.release(name)
                    if rollout is not None and not f.cancelled():
                        self._settle_rollout(
                            rollout, served,
                            error=f.exception() is not None,
                            latency_ms=(time.perf_counter() - start) * 1e3,
                        )

                future.add_done_callback(_done)
                return future
            raise AssertionError("unreachable")  # pragma: no cover
        except AdmissionRejected:
            raise  # overload is never evidence against a rollout arm
        except BaseException:
            # Synchronous failures (shape mismatch, expired deadline) count
            # against the routed arm: a canary that rejects every request
            # must still trip the rollback gate.
            if rollout is not None and version is not None:
                self._settle_rollout(rollout, version, error=True, latency_ms=None)
            raise

    def predict(
        self,
        name: str,
        sample: np.ndarray,
        version: Optional[int] = None,
        timeout: Optional[float] = None,
        priority: Optional[str] = None,
        timeout_ms: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> np.ndarray:
        """Blocking single-sample inference through the dynamic batcher."""
        deadline = self._resolve_deadline(timeout_ms, deadline)
        future = self.predict_async(
            name, sample, version, priority=priority, deadline=deadline
        )
        return self._await(future, timeout, deadline)

    def predict_batch(
        self,
        name: str,
        batch: np.ndarray,
        version: Optional[int] = None,
        timeout: Optional[float] = None,
        priority: Optional[str] = None,
        timeout_ms: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> np.ndarray:
        """Run a pre-formed batch directly on the worker pool (no coalescing).

        Counts each row as a request in the model's stats (submitted,
        completed/failed, latency), so bulk traffic shows up consistently
        next to batched single-sample traffic.  The batch passes admission
        (concurrency budget and breaker apply; the queue-depth bound does
        not, since nothing queues) and dispatches through the resilient
        dispatcher, so crash retry and the circuit breaker cover bulk
        traffic too.
        """
        batch = np.asarray(batch)
        deadline = self._resolve_deadline(timeout_ms, deadline)
        version, rollout = self._route_version(name, version)
        pipeline = self._pipeline(name, version)
        admission = pipeline.admission
        budget = self.budget
        if budget is not None:
            budget.acquire(name, count=len(batch), stats=pipeline.stats)
        try:
            admission.admit(priority, count=len(batch))
        except BaseException:
            if budget is not None:
                budget.release(name, count=len(batch))
            raise
        stats = pipeline.stats
        stats.record_submit(count=len(batch))
        stats.record_batch(len(batch))
        start = time.perf_counter()
        ok = False
        try:
            outputs = self._await(
                pipeline.dispatch(batch), timeout, deadline
            )
            ok = True
        except BaseException:
            stats.record_done(time.perf_counter() - start, ok=False, count=len(batch))
            raise
        finally:
            admission.release(count=len(batch))
            if budget is not None:
                budget.release(name, count=len(batch))
            if rollout is not None:
                self._settle_rollout(
                    rollout, pipeline.version, error=not ok,
                    latency_ms=(time.perf_counter() - start) * 1e3 if ok else None,
                )
        stats.record_done(time.perf_counter() - start, ok=True, count=len(batch))
        return outputs

    # -- introspection -----------------------------------------------------------
    def models(self) -> Dict[str, List[int]]:
        """Published models and versions (from the repository)."""
        return self.repository.list_models()

    def metadata(self, name: str, version: Optional[int] = None) -> Dict:
        """Cheap program metadata of a published model version."""
        return self.repository.metadata(name, version)

    def predict_request(
        self,
        name: str,
        inputs: np.ndarray,
        version: Optional[int] = None,
        timeout: Optional[float] = None,
        priority: Optional[str] = None,
        timeout_ms: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[int, np.ndarray, bool]:
        """Serve one request body: a single sample or a batch of them.

        ``inputs`` either has the model's input shape (one sample) or one
        extra leading axis (a batch whose rows join the dynamic-batching
        window individually).  One pipeline resolution covers validation,
        inference, and the reported version, so the returned
        ``(version, outputs, batched)`` names the version that served —
        this is the HTTP front end's request path.  Raises
        :class:`ValueError` on a shape that matches neither form.

        If a hot-swap retires the pipeline mid-submission, rows already
        accepted still resolve on the retiring pipeline (its close() drains
        them) and only the remaining rows continue on the replacement — no
        row is inferred twice.  The reported version is then the
        replacement's (the one that served the request's tail).
        """
        inputs = np.asarray(inputs)
        deadline = self._resolve_deadline(timeout_ms, deadline)
        version, rollout = self._route_version(name, version)
        start = time.perf_counter()
        budget = self.budget
        futures: List[Future] = []
        try:
            for attempt in (0, 1):
                pipeline = self._pipeline(name, version)
                expected = pipeline.input_shape
                if inputs.shape == expected:
                    rows, batched = inputs[None], False
                elif inputs.ndim == len(expected) + 1 and inputs.shape[1:] == expected:
                    rows, batched = inputs, True
                else:
                    raise ValueError(
                        f"inputs shape {inputs.shape} matches neither the model's "
                        f"input shape {expected} nor a batch of it"
                    )
                admission = pipeline.admission
                try:
                    while len(futures) < len(rows):
                        # Row-wise admission: a shed mid-request fails the
                        # request; rows already accepted still resolve (and
                        # release their budget) through their own futures.
                        if budget is not None:
                            budget.acquire(name, stats=pipeline.stats)
                        try:
                            admission.admit(priority)
                        except BaseException:
                            if budget is not None:
                                budget.release(name)
                            raise
                        try:
                            future = pipeline.batcher.submit(
                                rows[len(futures)], deadline=deadline
                            )
                        except BaseException:
                            admission.release()
                            if budget is not None:
                                budget.release(name)
                            raise

                        def _release(_, a=admission):
                            a.release()
                            if budget is not None:
                                budget.release(name)

                        future.add_done_callback(_release)
                        futures.append(future)
                except BatcherClosed:
                    if attempt:  # see predict_async: hot-swap retirement race
                        raise
                    continue
                outputs = np.stack(
                    [self._await(future, timeout, deadline) for future in futures]
                )
                if rollout is not None:
                    self._settle_rollout(
                        rollout, pipeline.version, error=False,
                        latency_ms=(time.perf_counter() - start) * 1e3,
                    )
                return pipeline.version, outputs if batched else outputs[0], batched
            raise AssertionError("unreachable")  # pragma: no cover
        except AdmissionRejected:
            raise  # overload is never evidence against a rollout arm
        except BaseException:
            if rollout is not None and version is not None:
                self._settle_rollout(rollout, version, error=True, latency_ms=None)
            raise

    # -- streaming ---------------------------------------------------------------
    def stream_request(
        self,
        name: str,
        frames: np.ndarray,
        version: Optional[int] = None,
        session: Optional[str] = None,
        threshold: Optional[float] = None,
        close_session: bool = False,
    ):
        """Serve a chunk of one client's frame stream through its session.

        ``frames`` is one frame (the model's input shape) or a stack of
        them (one extra leading axis), processed **in order** through the
        session named by ``session`` — or a fresh session when ``None``
        (its id is returned; the client sends it back with the next chunk:
        that is the affinity token).  Returns ``(version, session_id,
        results)`` where ``results`` lazily yields one payload per frame
        (``outputs`` plus the execution mode and dirty-tile accounting), so
        the HTTP front end can stream each result as soon as it computes.
        ``close_session=True`` drops the session after the last frame.

        Streaming is capability-gated on the artifact metadata: programs
        without the schema-v3 ``stream`` block (or with non-streamable
        graphs) raise :class:`StreamUnsupported` before any state is built.
        Stream frames bypass the dynamic batcher — temporal state makes
        cross-client coalescing meaningless — but live in the same
        pipeline, so hot-swap retirement and ``close()`` drop sessions with
        the pipeline (clients re-open and the first frame recomputes in
        full: correct, just slower once).
        """
        frames = np.asarray(frames, dtype=np.float64)
        pipeline = self._pipeline(name, version)
        manager = pipeline.streaming()
        expected = pipeline.input_shape
        if frames.shape == expected:
            rows = frames[None]
        elif frames.ndim == len(expected) + 1 and frames.shape[1:] == expected:
            rows = frames
        else:
            raise ValueError(
                f"frames shape {frames.shape} matches neither the model's "
                f"input shape {expected} nor a stack of it"
            )
        if session is not None:
            manager._get(session)  # unknown ids fail before any work
            sid = session
        else:
            sid = manager.open(threshold=threshold)

        def results():
            try:
                for row in rows:
                    yield manager.process(sid, row)
            finally:
                if close_session:
                    manager.close_session(sid)

        return pipeline.version, sid, results()

    def stats(self, name: str, version: Optional[int] = None) -> Dict:
        """Stats snapshot for (name, version-or-latest).

        Read-only: never builds a pipeline.  A model that has served no
        traffic reports zeroed counters (the name/version must still exist —
        unknown models raise :class:`ModelNotFound`).
        """
        name, version, _ = self.repository.resolve(name, version)
        with self._lock:
            pipeline = self._pipelines.get((name, version))
        if pipeline is None:
            return ModelStats().snapshot()
        return self._pipeline_snapshot(pipeline)

    @staticmethod
    def _pipeline_snapshot(pipeline: _Pipeline) -> Dict:
        """One pipeline's stats, with the executor's planner counters
        (arena bytes, steps fused, shards) and the compile pipeline's
        report (optimization level, per-pass counters, verifier runs)
        attached when it has them."""
        snap = pipeline.stats.snapshot()
        plan_info = pipeline.plan_info()
        if plan_info:
            snap["executor"] = plan_info
        if pipeline.stream_manager is not None:
            snap["streaming"] = pipeline.stream_manager.snapshot()
        # Prefer the live program's report over the stored artifact header:
        # the executor's native (O4) bind updates it in place — recording a
        # ``fallback_reason``/``effective_level`` downgrade on hosts that
        # cannot build, or clearing a compile-time fallback when the build
        # cache satisfied O4 — and /stats must report what actually runs.
        report = None
        if pipeline.program is not None:
            report = pipeline.program.pipeline_report
        if report is None:
            report = pipeline.pipeline_report
        if report:
            snap["pipeline"] = report
        return snap

    def snapshot(self) -> Dict:
        """Stats snapshots of every live pipeline, keyed ``name/version``."""
        with self._lock:
            pipelines = dict(self._pipelines)
        return {
            f"{name}/{version}": self._pipeline_snapshot(pipeline)
            for (name, version), pipeline in sorted(pipelines.items())
        }

    def control_plane(self) -> Dict:
        """Autoscaler, rollout, and budget state (empty without any of them).

        Surfaced as the ``control_plane`` key of ``/stats`` and ``/healthz``
        so scaler decisions and rollout stages are auditable from outside.
        """
        payload: Dict = {}
        if self.autoscaler is not None:
            payload["autoscaler"] = self.autoscaler.snapshot()
        if self.cluster is not None:
            # Membership (alive/suspect/dead per replica), shard retry
            # counters, and the bounded transition log — the cluster's
            # whole failure-detection state is auditable from /healthz.
            payload["cluster"] = self.cluster.snapshot()
        with self._lock:
            rollouts = dict(self._rollouts)
        if rollouts:
            payload["rollouts"] = {
                name: controller.snapshot()
                for name, controller in sorted(rollouts.items())
            }
        if self.budget is not None:
            payload["budget"] = self.budget.snapshot()
        return payload

    def health(self) -> Dict:
        """Readiness rollup for ``/healthz``: ``ok`` / ``degraded`` / ``closed``.

        Degraded when any live pipeline's circuit breaker is open or its
        queue is saturated past the admission bound (the *current* bound:
        autoscaler resizes retarget it, so a scaled-up server is judged on
        its scaled capacity) — traffic to that model would be shed, so load
        balancers should prefer other replicas.
        """
        if self._closed:
            return {"status": "closed", "degraded": [], "models": {}, "totals": {}}
        rollup = self.server_stats.rollup(self.snapshot())
        control = self.control_plane()
        if control:
            rollup["control_plane"] = control
        return rollup

    # -- lifecycle ---------------------------------------------------------------
    def close(self, drain: bool = False) -> None:
        """Stop every pipeline; further predicts raise.

        By default (``drain=False``) shutdown is deterministic under load:
        requests still queued in a batcher fail immediately with
        :class:`ServerClosed` *before* the worker pools tear down; batches
        already dispatched to a pool still complete and resolve.  With
        ``drain=True`` queued requests are flushed through the pools first
        (shutdown then takes as long as the backlog).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pipelines = list(self._pipelines.values())
            self._pipelines.clear()
            self._rollouts.clear()
        if self.autoscaler is not None:
            # Stop the control loop before tearing down its targets.
            self.autoscaler.close()
        error = None if drain else ServerClosed("server is closed")
        for pipeline in pipelines:
            pipeline.close(drain=drain, error=error)

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
