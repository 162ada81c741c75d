"""Model serving for compiled network programs.

This package turns the offline compile pipeline (calibrate → lower →
optimize → :class:`~repro.core.program.Executor`) into a request-serving
system — the deployment story of ``docs/SERVING.md``:

* :class:`ModelRepository` (:mod:`repro.serve.repository`) — on-disk store of
  :func:`~repro.core.export.save_program` artifacts, versioned by name, with
  LRU-cached loading and atomic hot-swap publishing.
* :class:`DynamicBatcher` / :class:`BatchPolicy` (:mod:`repro.serve.batcher`)
  — coalesce single-sample requests into executor-sized batches under a
  max-batch / max-delay policy.
* :class:`ThreadWorkerPool` / :class:`ProcessWorkerPool`
  (:mod:`repro.serve.workers`) — shard batches across worker threads
  sharing one executor, or processes each owning one (any registered
  backend); a crashed process worker fails its in-flight requests instead
  of hanging them.
* :class:`InferenceServer` (:mod:`repro.serve.server`) — the programmatic
  API tying the above together, with per-model latency/throughput/queue
  stats (:mod:`repro.serve.stats`).
* :class:`AdmissionController` / :class:`CircuitBreaker` /
  :class:`ResilientDispatcher` (:mod:`repro.serve.admission`) — overload
  safety: load shedding before queueing, per-model circuit breaking, and
  bounded crash retries with exponential backoff.
* :class:`FaultPlan` (:mod:`repro.serve.faults`) — deterministic seeded
  fault injection (worker crashes, slowdowns, queue stalls, corrupt
  artifacts, crashes mid-resize) for chaos testing; a no-op unless
  explicitly enabled.
* :class:`Autoscaler` / :class:`AutoscalePolicy`
  (:mod:`repro.serve.autoscaler`) — the control plane: a tick-driven
  scaler growing/shrinking worker pools with load (hysteresis + cooldown),
  parking idle pipelines (scale-to-zero with warm program-cache revival),
  all through an injectable :class:`Clock` (:mod:`repro.serve.clock`).
* :class:`RolloutController` / :class:`RolloutPolicy`
  (:mod:`repro.serve.rollout`) — staged canary rollout of new artifact
  versions with deterministic weighted routing and automatic rollback on
  error/latency regression; :class:`ConcurrencyBudget`
  (:mod:`repro.serve.admission`) isolates models from each other under
  load.
* :func:`serve_http` (:mod:`repro.serve.http`) — a stdlib JSON-over-HTTP
  front end with an overload-aware status-code contract (429/503/504 +
  ``Retry-After``).
* :class:`StreamManager` / :class:`StreamPolicy` (:mod:`repro.serve.streaming`)
  — stateful streaming inference: per-client sessions running the core's
  dirty-tile incremental executor (:mod:`repro.core.stream_plan`) with
  session affinity, TTL/LRU eviction, and reset-and-retry fault semantics;
  served over chunked HTTP at ``POST /v1/models/<name>/stream``.
* :mod:`repro.serve.cluster` — fault-tolerant multi-node serving:
  :class:`ReplicaNode` daemons behind a socket transport,
  :class:`ClusterRouter` sharding batches across health-checked replicas
  with retry-on-replica-failure, and digest-verified repository sync
  (``docs/CLUSTER.md``).

Quickstart::

    from repro.serve import InferenceServer, ModelRepository, serve_http

    repo = ModelRepository("model-repo")
    repo.publish(engine.compile(), "resnet14")      # or engine.export(path)

    server = InferenceServer(repo)
    logits = server.predict("resnet14", image)       # batched under the hood

    front = serve_http(server, port=8080)            # curl-able; see docs
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejected,
    BreakerPolicy,
    CircuitBreaker,
    CircuitOpen,
    ConcurrencyBudget,
    ResilientDispatcher,
    RetryPolicy,
)
from repro.serve.autoscaler import (
    AutoscalePolicy,
    Autoscaler,
    ScaleMetrics,
    ScalerDecision,
)
from repro.serve.batcher import (
    BatcherClosed,
    BatchPolicy,
    DeadlineExceeded,
    DynamicBatcher,
    QueueFull,
)
from repro.serve.clock import SYSTEM_CLOCK, Clock, Ticker, TimerHandle
from repro.serve.cluster import (
    ClusterRouter,
    MembershipPolicy,
    NoReplicas,
    ReplicaNode,
    TcpReplica,
    pull_from_node,
    sync_to_node,
)
from repro.serve.faults import (
    FaultPlan,
    FaultSession,
    FaultSpec,
    InjectedFault,
    NetFaultSession,
    ScaleFaultSession,
)
from repro.serve.http import HttpFrontEnd, serve_http
from repro.serve.repository import LoadedModel, ModelNotFound, ModelRepository
from repro.serve.rollout import RolloutController, RolloutPolicy
from repro.serve.server import InferenceServer, ServerClosed
from repro.serve.stats import LatencyWindow, ModelStats, ServerStats
from repro.serve.streaming import StreamManager, StreamPolicy, UnknownSession
from repro.serve.workers import (
    NoLiveWorkers,
    ProcessWorkerPool,
    ThreadWorkerPool,
    WorkerCrashed,
    WorkerError,
)

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AdmissionRejected",
    "BreakerPolicy",
    "CircuitBreaker",
    "CircuitOpen",
    "ConcurrencyBudget",
    "ResilientDispatcher",
    "RetryPolicy",
    "AutoscalePolicy",
    "Autoscaler",
    "ScaleMetrics",
    "ScalerDecision",
    "BatchPolicy",
    "BatcherClosed",
    "DeadlineExceeded",
    "DynamicBatcher",
    "QueueFull",
    "Clock",
    "SYSTEM_CLOCK",
    "Ticker",
    "TimerHandle",
    "ClusterRouter",
    "MembershipPolicy",
    "NoReplicas",
    "ReplicaNode",
    "TcpReplica",
    "pull_from_node",
    "sync_to_node",
    "FaultPlan",
    "FaultSession",
    "FaultSpec",
    "InjectedFault",
    "NetFaultSession",
    "ScaleFaultSession",
    "HttpFrontEnd",
    "serve_http",
    "RolloutController",
    "RolloutPolicy",
    "LoadedModel",
    "ModelNotFound",
    "ModelRepository",
    "InferenceServer",
    "ServerClosed",
    "LatencyWindow",
    "ModelStats",
    "ServerStats",
    "StreamManager",
    "StreamPolicy",
    "UnknownSession",
    "NoLiveWorkers",
    "ProcessWorkerPool",
    "ThreadWorkerPool",
    "WorkerCrashed",
    "WorkerError",
]
