"""Stateful streaming inference: per-client sessions over the stream plan.

The core's :class:`~repro.core.stream_plan.StreamSession` exploits temporal
redundancy between consecutive frames of one client's stream — which makes
it *stateful*: the previous frame's intermediate buffers must survive
between requests, and frames of one stream must always reach the session
holding them.  This module is the serve-side of that contract:

* :class:`StreamManager` — one per served (name, version) pipeline.  Owns
  the compiled :class:`~repro.core.stream_plan.StreamPlan` (shared,
  immutable) and a table of named sessions (per-client state).  Session
  affinity is structural: a session id maps to exactly one session object,
  and the manager serializes execution so concurrent requests can never
  interleave half-updated state (one lock covers every session; the plan
  itself holds no mutable state across calls — crops allocate their
  temporaries per call and pass no kernel scratch).
* TTL eviction — sessions idle past ``session_ttl_s`` are dropped by a
  sweep ticker driven by the server's injectable clock (the deterministic
  test harness advances a virtual clock; production uses wall time), and
  lazily whenever the table is touched.  ``max_sessions`` bounds resident
  state by evicting the least-recently-used session.
* Fault semantics — an exception inside a session's incremental step resets
  the session (dropping all persistent state) and retries the frame as a
  full recompute, exactly once.  A fault can therefore cost latency, never
  a wrong answer; a second failure evicts the session and surfaces as a
  retriable :class:`~repro.serve.workers.WorkerError`.

Capability gating lives in :meth:`InferenceServer.stream_request`: the
artifact's metadata must carry the schema-v3 ``stream`` block and declare
``supported`` — anything else is rejected with
:class:`~repro.core.stream_plan.StreamUnsupported` *before* any state is
built, which the HTTP front end maps to a 400 with reason
``stream_unsupported`` (see docs/SERVING.md).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.core.program import NetworkProgram
from repro.core.stream_plan import StreamUnsupported, compile_stream_plan
from repro.serve.clock import SYSTEM_CLOCK, Clock, Ticker
from repro.serve.workers import WorkerError

__all__ = ["StreamPolicy", "StreamManager", "UnknownSession"]


class UnknownSession(KeyError):
    """The request named a session id this server does not hold.

    Expected after TTL eviction or a capacity eviction: the client re-opens
    by sending its next frame without a session id (the first frame of a
    fresh session is a full recompute, so recovery is always correct).
    """

    def __str__(self) -> str:  # KeyError quotes its payload; keep it readable
        return self.args[0] if self.args else ""


@dataclass
class StreamPolicy:
    """Streaming behaviour of a server (shared by every served model).

    ``tile``/``crossover``/``verify`` feed :func:`compile_stream_plan`
    (``crossover=None`` measures it at compile time); ``threshold`` is the
    default per-session diff threshold (0 ⇒ bit-exact); ``session_ttl_s``
    and ``max_sessions`` bound resident per-client state;
    ``sweep_interval_s`` is the eviction ticker period.
    """

    session_ttl_s: float = 300.0
    max_sessions: int = 64
    sweep_interval_s: float = 30.0
    tile: int = 8
    crossover: Optional[float] = None
    threshold: float = 0.0
    verify: bool = True

    def __post_init__(self) -> None:
        if self.session_ttl_s <= 0:
            raise ValueError(f"session_ttl_s must be > 0, got {self.session_ttl_s}")
        if self.max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {self.max_sessions}")
        if self.sweep_interval_s <= 0:
            raise ValueError(
                f"sweep_interval_s must be > 0, got {self.sweep_interval_s}"
            )


class StreamManager:
    """Session table + shared stream plan of one served pipeline."""

    def __init__(
        self,
        program: NetworkProgram,
        policy: Optional[StreamPolicy] = None,
        clock: Clock = SYSTEM_CLOCK,
        name: str = "model",
    ):
        self.policy = policy or StreamPolicy()
        self.clock = clock
        self.name = name
        self.plan = compile_stream_plan(
            program,
            tile=self.policy.tile,
            crossover=self.policy.crossover,
            verify=self.policy.verify,
        )
        self._sessions: Dict[str, Any] = {}  # sid -> StreamSession
        self._lock = threading.Lock()  # the session table
        self._exec_lock = threading.Lock()  # frame execution (affinity)
        self._ids = itertools.count(1)
        self._closed = False
        # Lifetime counters (evictions happen silently between requests, so
        # they must be visible in /stats rather than in any response).
        self.opened = 0
        self.expired = 0  # TTL sweeps
        self.evicted = 0  # capacity (LRU) evictions
        self.faults = 0  # session resets on execution failure
        self._ticker = Ticker(
            self.policy.sweep_interval_s, self.sweep, clock=clock,
            name=f"stream-sweep-{name}",
        ).start()

    # -- session lifecycle -------------------------------------------------------
    def open(self, threshold: Optional[float] = None) -> str:
        """Create a session; returns its id (the client's affinity token)."""
        with self._lock:
            if self._closed:
                raise WorkerError("stream manager is closed")
            sid = f"{self.name}-s{next(self._ids)}"
            session = self.plan.session(
                threshold=self.policy.threshold if threshold is None else threshold
            )
            session.last_used = self.clock.now()
            self._sessions[sid] = session
            self.opened += 1
            self._evict_over_capacity_locked()
        return sid

    def close_session(self, sid: str) -> bool:
        """Drop a session explicitly; ``False`` if it was not held."""
        with self._lock:
            return self._sessions.pop(sid, None) is not None

    def sweep(self) -> int:
        """Evict sessions idle past the TTL; returns how many."""
        horizon = self.clock.now() - self.policy.session_ttl_s
        with self._lock:
            stale = [
                sid for sid, session in self._sessions.items()
                if session.last_used <= horizon
            ]
            for sid in stale:
                del self._sessions[sid]
            self.expired += len(stale)
        return len(stale)

    def _evict_over_capacity_locked(self) -> None:
        while len(self._sessions) > self.policy.max_sessions:
            lru = min(self._sessions, key=lambda s: self._sessions[s].last_used)
            del self._sessions[lru]
            self.evicted += 1

    def _get(self, sid: str):
        with self._lock:
            session = self._sessions.get(sid)
        if session is None:
            raise UnknownSession(
                f"unknown stream session {sid!r} (expired, evicted, or never "
                f"opened here) — re-open by streaming without a session id"
            )
        return session

    # -- the per-frame entry point -----------------------------------------------
    def process(self, sid: str, frame: np.ndarray) -> Dict[str, Any]:
        """Run one frame through the session; returns the result payload.

        Fault path: an exception mid-frame leaves the session's buffers
        half-updated, so the session is reset (all persistent state dropped)
        and the frame retried as a full recompute — a delayed answer, never
        a wrong one.  A failure of the retry itself evicts the session and
        raises :class:`WorkerError` (HTTP 503, retriable).
        """
        session = self._get(sid)
        with self._exec_lock:
            session.last_used = self.clock.now()
            try:
                outputs, info = session.process(frame)
            except ValueError:
                raise  # malformed frame: the caller's error, state untouched
            except Exception as exc:
                self.faults += 1
                session.reset()
                try:
                    outputs, info = session.process(frame)
                except Exception:
                    self.close_session(sid)
                    raise WorkerError(
                        f"stream session {sid!r} failed even after a reset "
                        f"({type(exc).__name__}: {exc})"
                    ) from exc
                info["recovered"] = True
        return {"session": sid, "outputs": outputs, **info}

    # -- introspection / lifecycle -----------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Aggregate streaming stats (the ``streaming`` key of /stats)."""
        with self._lock:
            sessions = dict(self._sessions)
        frames = full = incremental = cached = state_bytes = 0
        for session in sessions.values():
            stats = session.stats()
            frames += stats["frames"]
            full += stats["full"]
            incremental += stats["incremental"]
            cached += stats["cached"]
            state_bytes += stats["state_bytes"]
        return {
            "sessions": len(sessions),
            "opened": self.opened,
            "expired": self.expired,
            "evicted": self.evicted,
            "faults": self.faults,
            "frames": frames,
            "full": full,
            "incremental": incremental,
            "cached": cached,
            "state_bytes": state_bytes,
            "crossover": self.plan.crossover,
            "tile": self.plan.tile,
        }

    def close(self) -> None:
        self._ticker.stop()
        with self._lock:
            self._closed = True
            self._sessions.clear()
