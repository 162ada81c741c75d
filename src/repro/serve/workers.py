"""Executor worker pools: shard batches across threads or processes.

Two interchangeable pools sit behind the dynamic batcher; both expose
``submit(batch) -> Future`` and ``close()``:

* :class:`ThreadWorkerPool` — N threads.  With ``shared=True`` (what the
  server uses for planned executors) the factory builds **one**
  :class:`~repro.core.program.Executor` whose shard pool all worker threads
  share: each concurrently-submitted batch checks out whatever shard
  arenas are idle, so a single large batch can still fan out across cores
  while concurrent batches divide the pool between them.  Without sharing
  (the default, and the fallback for non-thread-safe executors) each worker
  owns its own executor built by the factory — unplanned executors are
  single-threaded objects.  NumPy releases the GIL inside the hot kernels,
  so threads overlap real work either way.
* :class:`ProcessWorkerPool` — N OS processes, each loading the compiled
  program artifact from disk (:func:`repro.core.export.load_program`) and
  building its own executor with any registered backend.  Batches and
  results cross through per-worker :mod:`multiprocessing.shared_memory`
  rings — fixed slots the parent copies a batch into and the worker reads
  zero-copy (and symmetrically for results) — falling back to pickled
  queue payloads when a slot is unavailable or an array does not fit, so
  the ring is purely a fast path.  A dead worker is detected by its
  result-reader thread: every batch in flight on it fails with
  :class:`WorkerCrashed` (requests get an error, never a hung future) and,
  with ``respawn=True``, a replacement worker boots from the same artifact
  with fresh rings.

Batches are assigned to the least-loaded live worker, so a slow worker
backs up only its own queue.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue
import threading
import time
import traceback
from concurrent.futures import Future
from multiprocessing import shared_memory
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np


class WorkerError(RuntimeError):
    """The pool cannot execute the batch (closed, or no live workers)."""


class WorkerCrashed(WorkerError):
    """A worker process died while (or before) executing this batch."""


class NoLiveWorkers(WorkerError):
    """Every worker in the pool is currently dead (respawn may be underway).

    Distinct from a closed pool: this is a *transient* infrastructure
    failure the resilience layer may retry (the respawn loop usually brings
    a replacement up within its backoff), whereas a closed pool is final.
    """


class _RemoteError(RuntimeError):
    """An exception raised inside a worker process, with its traceback."""


# One-shot stop sentinel for ThreadWorkerPool.resize() shrinks: whichever
# worker thread dequeues it exits (close() keeps using None per thread).
_STOP_ONE = object()


def artifact_slot_bytes(
    artifact_path: Union[str, Path], rows: int = 64,
    floor: int = 1 << 20, ceiling: int = 32 << 20,
) -> int:
    """Slot size for a program artifact: room for a ``rows``-row batch of
    the larger of the program's input/output (8 bytes per element), clamped
    to ``[floor, ceiling]``.

    This is the geometry both transports share: the shared-memory rings size
    their slots with it, and the cluster transport derives its per-frame
    payload bound from it — so a batch that fits a replica's ring also fits
    the wire frame that carries it there.  Falls back to ``floor`` when the
    header cannot be read (the caller's fallback path still works).
    """
    try:
        from repro.core.export import read_program_metadata

        meta = read_program_metadata(artifact_path)
        sample = max(
            int(np.prod(meta["input_shape"], dtype=np.int64)),
            int(np.prod(meta["output_shape"], dtype=np.int64)),
        )
        return int(np.clip(rows * sample * 8, floor, ceiling))
    except Exception:
        return floor


class ThreadWorkerPool:
    """N worker threads running batches on per-worker or one shared executor.

    By default ``executor_factory`` is called once per worker, inside the
    worker thread, so pool construction is cheap and per-worker state
    (compiled plans, scratch) is never shared.  With ``shared=True``
    the factory is called once, in the constructor, and every worker runs
    batches on the same executor — sound only for thread-safe executors
    (planned executors whose ``run`` checks shard arenas out of a pool); a
    shared executor without ``thread_safe=True`` is serialized behind a
    lock so misconfiguration degrades to correct-but-serial.
    """

    def __init__(self, executor_factory: Callable[[], object], num_workers: int = 1,
                 name: str = "worker", shared: bool = False, fault_plan=None):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.fault_plan = fault_plan
        self._scale_faults = None
        if fault_plan is not None:
            from repro.serve.faults import ScaleFaultSession

            self._scale_faults = ScaleFaultSession(fault_plan)
        # Crashes injected by during_scale faults: any worker thread failing
        # a batch decrements this (threads pull from one shared queue, so a
        # specific victim thread cannot be targeted the way a process can).
        self._scale_crash_pending = 0
        self._factory = executor_factory
        self._name = name
        self._tasks: "queue.Queue" = queue.Queue()
        self._closed = False
        # Orders submit() against close(): nothing can land behind the stop
        # sentinels, so every accepted task is drained before shutdown.
        self._submit_lock = threading.Lock()
        self.shared_executor = None
        self._shared_run_lock: Optional[threading.Lock] = None
        if shared:
            self.shared_executor = executor_factory()
            if not getattr(self.shared_executor, "thread_safe", False):
                self._shared_run_lock = threading.Lock()
        self._target_workers = num_workers
        self._next_index = num_workers
        self._threads = [
            threading.Thread(
                target=self._run, args=(executor_factory, i),
                name=f"{name}-{i}", daemon=True,
            )
            for i in range(num_workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def num_workers(self) -> int:
        """The pool's target size (shrinks settle as queued work drains)."""
        return self._target_workers

    def resize(self, num_workers: int) -> int:
        """Grow or shrink the pool to ``num_workers`` threads.

        Growth starts new threads immediately.  Shrinking enqueues one-shot
        stop sentinels behind whatever work is already queued, so accepted
        batches drain before a thread retires — the target is reflected in
        :attr:`num_workers` at once, the thread count follows.  Returns the
        new target.
        """
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        with self._submit_lock:
            if self._closed:
                raise WorkerError("worker pool is closed")
            current = self._target_workers
            if num_workers > current:
                for _ in range(num_workers - current):
                    index = self._next_index
                    self._next_index += 1
                    thread = threading.Thread(
                        target=self._run, args=(self._factory, index),
                        name=f"{self._name}-{index}", daemon=True,
                    )
                    self._threads.append(thread)
                    thread.start()
            elif num_workers < current:
                for _ in range(current - num_workers):
                    self._tasks.put(_STOP_ONE)
            self._target_workers = num_workers
            if self._scale_faults is not None:
                # Injected mid-scale crashes: each fired spec fails one
                # subsequent batch with WorkerCrashed (see _run).
                self._scale_crash_pending += len(self._scale_faults.on_resize())
        return num_workers

    def submit(self, batch: np.ndarray) -> Future:
        """Run one batch on some worker; resolves to the stacked outputs."""
        future: Future = Future()
        with self._submit_lock:
            if self._closed:
                raise WorkerError("worker pool is closed")
            self._tasks.put((batch, future))
        return future

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Drain queued batches, then stop every worker thread."""
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._threads:
                self._tasks.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)
        if self.shared_executor is not None:
            close = getattr(self.shared_executor, "close", None)
            if close is not None:
                close()

    def _run(self, executor_factory, index: int = 0) -> None:
        build_error = None
        # Thread workers never respawn, so the fault session is always the
        # slot's first (and only) incarnation.
        faults = (
            self.fault_plan.session(worker=index, spawn=0)
            if self.fault_plan is not None
            else None
        )
        if self.shared_executor is not None:
            executor = self.shared_executor
        else:
            try:
                executor = executor_factory()
            except Exception as exc:  # surface the build failure on every task
                executor = None
                build_error = exc
        while True:
            task = self._tasks.get()
            if task is None:
                return
            if task is _STOP_ONE:
                # resize() shrink: this thread retires after the queue
                # drained up to the sentinel.
                with self._submit_lock:
                    try:
                        self._threads.remove(threading.current_thread())
                    except ValueError:
                        pass
                return
            batch, future = task
            if executor is None:
                future.set_exception(
                    WorkerError(f"executor construction failed: {build_error}")
                )
                continue
            try:
                if self._scale_crash_pending > 0:
                    with self._submit_lock:
                        fire = self._scale_crash_pending > 0
                        if fire:
                            self._scale_crash_pending -= 1
                    if fire:
                        raise WorkerCrashed(
                            f"injected crash during resize (worker {index})"
                        )
                if faults is not None:
                    for fault in faults.on_batch():
                        if fault.kind in ("slow", "stall"):
                            time.sleep(fault.delay_ms / 1e3)
                        elif fault.kind == "crash":
                            # A thread cannot die like a process; simulate the
                            # transient crash the batch would have observed.
                            raise WorkerCrashed(
                                f"injected crash on worker {index} "
                                f"(batch {faults.batches})"
                            )
                if self._shared_run_lock is not None:
                    with self._shared_run_lock:
                        result = executor.run(batch)
                else:
                    result = executor.run(batch)
                future.set_result(result)
            except Exception as exc:
                future.set_exception(exc)


# ---------------------------------------------------------------------------
# Process pool: shared-memory rings + worker process
# ---------------------------------------------------------------------------
class _ShmRing:
    """Fixed-size slots in one :class:`multiprocessing.shared_memory` segment.

    The ring itself is dumb storage — slot ownership is coordinated through
    the pool's existing task/result queues (the parent owns the free lists
    of its input rings; each worker owns the free list of its output ring),
    so no extra synchronisation primitives cross the process boundary.

    Every segment this process creates is tracked in :attr:`_live` until its
    ``unlink()`` runs — the faults suite asserts the set drains to empty
    after pool teardown, so a leaked ``/dev/shm`` segment (a worker dying
    between recycle and respawn used to strand one) fails a test instead of
    accumulating on the host.
    """

    _live: set = set()  # names of segments created (not yet unlinked) here
    _live_lock = threading.Lock()

    def __init__(self, shm: shared_memory.SharedMemory, slots: int, slot_bytes: int):
        self.shm = shm
        self.slots = slots
        self.slot_bytes = slot_bytes

    @classmethod
    def create(cls, slots: int, slot_bytes: int) -> "_ShmRing":
        shm = shared_memory.SharedMemory(create=True, size=slots * slot_bytes)
        with cls._live_lock:
            cls._live.add(shm.name)
        return cls(shm, slots, slot_bytes)

    @classmethod
    def live_segments(cls) -> set:
        """Names of segments created by this process and not yet unlinked."""
        with cls._live_lock:
            return set(cls._live)

    @classmethod
    def attach(cls, name: str, slots: int, slot_bytes: int) -> "_ShmRing":
        # Workers are multiprocessing children, so they inherit the parent's
        # resource tracker: attaching re-registers the same name in the same
        # tracker (a set — no-op) and the parent's unlink() deregisters it
        # exactly once.  No per-process unregister gymnastics needed.
        return cls(shared_memory.SharedMemory(name=name), slots, slot_bytes)

    def view(self, slot: int, shape: Tuple[int, ...], dtype_str: str) -> np.ndarray:
        dtype = np.dtype(dtype_str)
        count = int(np.prod(shape, dtype=np.int64))
        offset = slot * self.slot_bytes
        return np.frombuffer(
            self.shm.buf, dtype=dtype, count=count, offset=offset
        ).reshape(shape)

    def write(self, slot: int, array: np.ndarray) -> Tuple[int, Tuple[int, ...], str]:
        view = self.view(slot, array.shape, array.dtype.str)
        view[...] = array
        return slot, tuple(array.shape), array.dtype.str

    def close(self) -> None:
        try:
            self.shm.close()
        except (OSError, BufferError):
            pass

    def unlink(self) -> None:
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass
        finally:
            with _ShmRing._live_lock:
                _ShmRing._live.discard(self.shm.name)


def _ring_payload(ring: Optional[_ShmRing], free: List[int], array: np.ndarray):
    """Encode ``array`` for the queue: a shm slot descriptor, or the array
    itself when the ring is absent/full/too small (the always-correct
    fallback path)."""
    if ring is not None and free and array.nbytes <= ring.slot_bytes:
        slot = free.pop()
        return ("shm", ring.write(slot, np.ascontiguousarray(array)))
    return ("raw", array)


def _process_worker_main(
    artifact_path, backend, active_bits, task_q, result_q, rings, fault_state=None
):
    """Worker process entry: load the artifact, serve batches until ``None``.

    Result tuples are ``("ready"|"ok"|"err"|"fatal", job_id, payload,
    freed_input_slot)``.  Batches and results ride the shared-memory rings
    when a slot is free (``payload = ("shm", (slot, shape, dtype))``), and
    fall back to pickled arrays otherwise.  Every exception is caught and
    shipped back as a string — a worker only dies on hard crashes (signal,
    OOM), which the parent's reader detects.

    ``fault_state`` is an optional ``(FaultPlan, worker_index, spawn)``
    triple (see :mod:`repro.serve.faults`): ``corrupt_artifact`` faults
    fire before the artifact read (→ the ``fatal`` startup path), ``crash``
    hard-exits the process mid-batch (→ the parent's crash detector), and
    ``slow``/``stall`` sleep deterministically.
    """
    faults = None
    if fault_state is not None:
        plan, worker_index, spawn = fault_state
        faults = plan.session(worker=worker_index, spawn=spawn)
    in_ring = out_ring = None
    try:
        if faults is not None:
            fault = faults.on_artifact_load()
            if fault is not None:
                from repro.serve.faults import InjectedFault

                raise InjectedFault(
                    f"injected corrupt artifact read: {artifact_path}"
                )
        if backend == "cost":
            import repro.mcu  # noqa: F401  (registers the cost backend)
        from repro.core.export import load_program
        from repro.core.program import Executor, auto_backend

        program = load_program(artifact_path)
        executor = Executor(
            program, backend=auto_backend(backend, program), active_bits=active_bits
        )
        if rings is not None:
            in_name, out_name, slots, slot_bytes = rings
            in_ring = _ShmRing.attach(in_name, slots, slot_bytes)
            out_ring = _ShmRing.attach(out_name, slots, slot_bytes)
    except BaseException:
        result_q.put(("fatal", None, traceback.format_exc(), None))
        return
    result_q.put(("ready", None, getattr(executor, "plan_info", None), None))
    free_out = list(range(out_ring.slots)) if out_ring is not None else []
    try:
        while True:
            message = task_q.get()
            if message is None:
                return
            if message[0] == "free":  # parent finished reading a result slot
                free_out.append(message[1])
                continue
            _, job_id, payload = message
            in_slot: Optional[int] = None
            try:
                if faults is not None:
                    for fault in faults.on_batch():
                        if fault.kind in ("slow", "stall"):
                            time.sleep(fault.delay_ms / 1e3)
                        elif fault.kind == "crash":
                            # A real death, not an exception: the parent must
                            # find out through its crash detector, exactly as
                            # it would for a SIGKILL or an OOM kill.
                            import os

                            os._exit(17)
                if payload[0] == "shm":
                    in_slot, shape, dtype_str = payload[1]
                    batch = in_ring.view(in_slot, shape, dtype_str)
                else:
                    batch = payload[1]
                result = executor.run(batch)
                out_payload = _ring_payload(out_ring, free_out, result)
                result_q.put(("ok", job_id, out_payload, in_slot))
            except Exception:
                result_q.put(("err", job_id, traceback.format_exc(), in_slot))
    finally:
        if in_ring is not None:
            in_ring.close()
        if out_ring is not None:
            out_ring.close()


class _ProcessWorker:
    """One worker process plus its queues, rings, reader and in-flight jobs."""

    def __init__(self, pool: "ProcessWorkerPool", index: int, spawn: int = 0):
        self.pool = pool
        self.index = index
        self.spawn = spawn  # incarnation of this slot (respawns increment)
        ctx = pool._ctx
        self.task_q = ctx.Queue()
        self.result_q = ctx.Queue()
        self.inflight: Dict[int, Future] = {}
        self.dead = False
        self.ready = False  # saw the worker's "ready" handshake
        # Set by resize() before a graceful tail-shrink stop: the death
        # handler must not respawn a worker the pool retired on purpose.
        self.retiring = False
        # Shared-memory rings: parent copies batches into in_ring slots the
        # worker reads zero-copy; results come back through out_ring.  The
        # parent owns in_free (under the pool lock); freed result slots are
        # returned to the worker via ("free", slot) task messages.
        self.in_ring: Optional[_ShmRing] = None
        self.out_ring: Optional[_ShmRing] = None
        self.in_free: List[int] = []
        rings_desc = None
        try:
            if pool.shm_slot_bytes:
                try:
                    self.in_ring = _ShmRing.create(pool.shm_slots, pool.shm_slot_bytes)
                    self.out_ring = _ShmRing.create(pool.shm_slots, pool.shm_slot_bytes)
                    self.in_free = list(range(pool.shm_slots))
                    rings_desc = (
                        self.in_ring.shm.name,
                        self.out_ring.shm.name,
                        pool.shm_slots,
                        pool.shm_slot_bytes,
                    )
                    pool._register_rings(self.in_ring, self.out_ring)
                except OSError:
                    # No usable /dev/shm: run on pickled queue payloads alone.
                    self._destroy_rings()
            fault_state = (
                (pool.fault_plan, index, spawn) if pool.fault_plan is not None else None
            )
            self.process = ctx.Process(
                target=_process_worker_main,
                args=(
                    str(pool.artifact_path),
                    pool.backend,
                    pool.active_bits,
                    self.task_q,
                    self.result_q,
                    rings_desc,
                    fault_state,
                ),
                daemon=True,
            )
            self.process.start()
            self.reader = threading.Thread(
                target=self._read_results, name=f"serve-worker-{index}-reader", daemon=True
            )
            self.reader.start()
        except BaseException:
            # Failed mid-construction (process start / fd limits): without
            # this, the freshly created rings have no owner to tear them
            # down and the segments outlive the interpreter.
            self._destroy_rings()
            raise

    def _destroy_rings(self) -> None:
        rings, self.in_ring, self.out_ring = (self.in_ring, self.out_ring), None, None
        self.in_free = []
        for ring in rings:
            if ring is not None:
                try:
                    ring.close()
                finally:
                    ring.unlink()
                self.pool._forget_ring(ring)

    def _decode_result(self, payload) -> np.ndarray:
        if payload[0] == "shm":
            slot, shape, dtype_str = payload[1]
            result = np.array(self.out_ring.view(slot, shape, dtype_str))
            try:
                self.task_q.put(("free", slot))
            except (ValueError, OSError):
                pass  # worker going down; slot accounting dies with it
            return result
        return payload[1]

    def _read_results(self) -> None:
        while True:
            try:
                status, job_id, payload, in_slot = self.result_q.get(timeout=0.2)
            except queue.Empty:
                if not self.process.is_alive():
                    self._mark_dead("worker process exited unexpectedly")
                    return
                continue
            except (EOFError, OSError):
                self._mark_dead("worker result channel broke")
                return
            if status == "ready":
                self.ready = True
                if payload is not None:
                    self.pool.plan_info = payload
                continue
            if status == "fatal":
                self._mark_dead(f"worker failed to start:\n{payload}")
                return
            with self.pool._lock:
                future = self.inflight.pop(job_id, None)
                if in_slot is not None:
                    self.in_free.append(in_slot)
            if future is None:
                continue
            if status == "ok":
                try:
                    future.set_result(self._decode_result(payload))
                except Exception as exc:  # corrupt descriptor; fail the batch
                    future.set_exception(
                        _RemoteError(f"worker {self.index} returned an unreadable result: {exc}")
                    )
            else:
                future.set_exception(
                    _RemoteError(f"batch failed in worker {self.index}:\n{payload}")
                )

    def _mark_dead(self, reason: str) -> None:
        with self.pool._lock:
            self.dead = True
            doomed = list(self.inflight.values())
            self.inflight.clear()
        for future in doomed:
            future.set_exception(
                WorkerCrashed(f"worker {self.index} died with the batch in flight ({reason})")
            )
        self._destroy_rings()
        self.pool._on_worker_death(self, reason)

    def stop(self) -> None:
        try:
            try:
                self.task_q.put(None)
            except (ValueError, OSError):
                pass
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=2.0)
        finally:
            # Unlink even when the join/terminate path blows up — a stop
            # that fails must not strand the segments.
            self._destroy_rings()


class ProcessWorkerPool:
    """N executor processes serving batches from a compiled program artifact.

    Parameters
    ----------
    artifact_path:
        A ``save_program`` archive; each worker loads it independently (the
        artifact is the single source of truth — exactly what a
        :class:`~repro.serve.repository.ModelRepository` stores).
    backend:
        Any registered executor backend (``plan`` / ``reference`` / ``cost``).
    mp_context:
        Multiprocessing start method; defaults to ``spawn``.  The parent is
        heavily multithreaded (batcher collectors, HTTP handlers, reader
        threads) and workers are also respawned *from* a reader thread, so
        ``fork`` would snapshot arbitrarily-held locks into the child — the
        classic fork-with-threads deadlock.  Pass ``"fork"`` explicitly only
        for single-threaded embedding where the faster start matters.
    respawn:
        Replace a crashed worker with a fresh one (in-flight batches on the
        dead worker still fail with :class:`WorkerCrashed`; only subsequent
        batches reach the replacement).
    use_shared_memory:
        Pass batches/results through per-worker shared-memory rings instead
        of pickling arrays over the queues (pickling remains the fallback
        for oversized arrays or a momentarily-full ring).  Slot geometry
        derives from the artifact's input/output shapes.
    """

    def __init__(
        self,
        artifact_path: Union[str, Path],
        backend: str = "plan",
        num_workers: int = 1,
        active_bits: Optional[int] = None,
        mp_context: Optional[str] = None,
        respawn: bool = True,
        use_shared_memory: bool = True,
        shm_slots: int = 4,
        shm_slot_bytes: Optional[int] = None,
        fault_plan=None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.artifact_path = Path(artifact_path)
        if not self.artifact_path.exists():
            raise FileNotFoundError(f"program artifact not found: {self.artifact_path}")
        self.backend = backend
        self.active_bits = active_bits
        self.respawn = respawn
        # Optional deterministic fault injection (repro.serve.faults); the
        # picklable plan ships to each worker with its (slot, spawn) identity.
        self.fault_plan = fault_plan
        self._scale_faults = None
        if fault_plan is not None:
            from repro.serve.faults import ScaleFaultSession

            self._scale_faults = ScaleFaultSession(fault_plan)
        # Planner counters reported by a worker's ready handshake (all
        # workers load the same artifact, so any worker's answer serves).
        self.plan_info: Optional[Dict] = None
        self.shm_slots = shm_slots
        self.shm_slot_bytes = 0
        if use_shared_memory:
            if shm_slot_bytes is not None:
                self.shm_slot_bytes = int(shm_slot_bytes)
            else:
                self.shm_slot_bytes = self._default_slot_bytes()
        self._ctx = multiprocessing.get_context(mp_context or "spawn")
        self._lock = threading.Lock()
        self._closed = False
        self._job_ids = itertools.count()
        self._last_death: Optional[str] = None
        # Consecutive replacements that died before their "ready" handshake.
        # A persistently unstartable worker (artifact deleted, bad backend)
        # must not become an unbounded process-spawn loop.
        self._start_failures = 0
        self._MAX_START_FAILURES = 3
        # Worker slots currently being respawned: exactly one thread owns a
        # slot's respawn at a time, so a replacement dying mid-respawn cannot
        # fork a second, concurrent respawn loop for the same slot.
        self._respawning: set = set()
        # Incarnation counter per slot: respawns increment it, and fault
        # plans target (slot, spawn) pairs so "crash once, then recover" is
        # expressible deterministically.
        self._spawn_counts: Dict[int, int] = {i: 0 for i in range(num_workers)}
        # Every ring any of this pool's workers ever created, until its
        # owner destroys it: close() sweeps the leftovers, so a worker that
        # died between recycle and respawn (its replacement's rings exist
        # but the replacement was never installed) cannot leak segments
        # past pool teardown.
        self._all_rings: Dict[str, _ShmRing] = {}
        self._workers: List[_ProcessWorker] = [
            _ProcessWorker(self, i) for i in range(num_workers)
        ]

    def _register_rings(self, *rings: _ShmRing) -> None:
        with self._lock:
            for ring in rings:
                self._all_rings[ring.shm.name] = ring

    def _forget_ring(self, ring: _ShmRing) -> None:
        with self._lock:
            self._all_rings.pop(ring.shm.name, None)

    def _default_slot_bytes(self) -> int:
        """Ring slot size from the artifact header (see
        :func:`artifact_slot_bytes` — shared with the cluster transport)."""
        return artifact_slot_bytes(self.artifact_path)

    def submit(self, batch: np.ndarray) -> Future:
        """Run one batch on the least-loaded live worker.

        The batch rides the worker's shared-memory ring when a slot is free
        and it fits; otherwise it is pickled through the task queue.
        """
        batch = np.asarray(batch)
        with self._lock:
            if self._closed:
                raise WorkerError("worker pool is closed")
            live = [w for w in self._workers if not w.dead]
            if not live:
                raise NoLiveWorkers(
                    "no live workers"
                    + (f" (last death: {self._last_death})" if self._last_death else "")
                )
            worker = min(live, key=lambda w: len(w.inflight))
            job_id = next(self._job_ids)
            future: Future = Future()
            worker.inflight[job_id] = future
            in_ring = worker.in_ring
            slot: Optional[int] = None
            if (
                in_ring is not None
                and worker.in_free
                and batch.nbytes <= in_ring.slot_bytes
            ):
                slot = worker.in_free.pop()
        payload = ("raw", batch)
        if slot is not None:
            try:
                payload = ("shm", in_ring.write(slot, np.ascontiguousarray(batch)))
            except Exception:
                # Ring torn down under us (worker died between the liveness
                # check and the write): return the slot and fall back to the
                # pickled path — the queue put below settles the future.
                with self._lock:
                    worker.in_free.append(slot)
        try:
            worker.task_q.put(("job", job_id, payload))
        except (ValueError, OSError) as exc:
            with self._lock:
                worker.inflight.pop(job_id, None)
                if payload[0] == "shm":
                    worker.in_free.append(slot)
            future.set_exception(WorkerCrashed(f"could not reach worker: {exc}"))
        return future

    def _on_worker_death(self, worker: _ProcessWorker, reason: str) -> None:
        if worker.retiring:
            return  # a resize() shrink, not a death: no respawn, no alarm
        with self._lock:
            self._last_death = reason
            if self._closed or not self.respawn:
                return
            if worker.ready:
                self._start_failures = 0
            else:
                self._start_failures += 1
                if self._start_failures >= self._MAX_START_FAILURES:
                    self._last_death = (
                        f"{reason} (respawn disabled after "
                        f"{self._start_failures} consecutive start failures)"
                    )
                    return
            try:
                index = self._workers.index(worker)
            except ValueError:
                # A replacement that died before being installed: the thread
                # that owns the slot's respawn retries (the failure was
                # counted above).
                return
            if index in self._respawning:
                return  # another thread already owns this slot's respawn
            self._respawning.add(index)
            backoff = 0.2 * self._start_failures
        try:
            self._respawn_slot(index, backoff)
        finally:
            with self._lock:
                self._respawning.discard(index)

    def _respawn_slot(self, index: int, backoff: float) -> None:
        """Spawn replacements into ``index`` until one survives startup or
        the start-failure cap / close() stops the loop."""
        while True:
            if backoff:
                time.sleep(backoff)
            with self._lock:
                self._spawn_counts[index] = self._spawn_counts.get(index, 0) + 1
                spawn = self._spawn_counts[index]
            try:
                replacement = _ProcessWorker(self, index, spawn=spawn)
            except Exception as exc:  # spawn itself failed (fd/memory limits)
                with self._lock:
                    self._start_failures += 1
                    self._last_death = f"respawn failed: {exc}"
                    if self._start_failures >= self._MAX_START_FAILURES or self._closed:
                        return
                    backoff = 0.2 * self._start_failures
                continue
            with self._lock:
                # The slot may have been shrunk away by a concurrent
                # resize(); a replacement for a retired slot is abandoned.
                if self._closed or index >= len(self._workers):
                    doomed = replacement
                else:
                    self._workers[index] = replacement
                    doomed = None
            if doomed is not None:
                doomed.stop()
                return
            if not replacement.dead:
                # Healthy so far.  If it dies from here on, its reader's
                # death handler finds the slot un-owned and respawns anew.
                return
            # Died between construction and installation (its death handler
            # saw it uninstalled, counted the failure, and left the slot to
            # us); check the cap and try again.
            with self._lock:
                if self._start_failures >= self._MAX_START_FAILURES or self._closed:
                    return
                backoff = 0.2 * max(self._start_failures, 1)

    @property
    def num_workers(self) -> int:
        """Current worker-slot count (the pool's size after any resize)."""
        with self._lock:
            return len(self._workers)

    def resize(self, num_workers: int) -> int:
        """Grow or shrink the pool to ``num_workers`` processes.

        Growth spawns fresh workers into new tail slots (each loads the
        artifact itself, exactly like startup).  Shrinking retires workers
        **from the tail** so surviving slot indices stay aligned with their
        fault-plan and spawn-count identities; a retiring worker drains its
        queued batches, exits gracefully, and is never respawned.  Returns
        the new slot count.
        """
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        victims: List[_ProcessWorker] = []
        to_stop: List[_ProcessWorker] = []
        grow_indices: List[Tuple[int, int]] = []
        with self._lock:
            if self._closed:
                raise WorkerError("worker pool is closed")
            if self._scale_faults is not None:
                # Injected mid-scale crashes: hard-terminate the victim's
                # process (a real death — the crash detector, in-flight
                # failure, and respawn paths all run), chosen before the
                # resize applies so the crash lands in the transition window.
                for spec in self._scale_faults.on_resize():
                    live = [
                        w for w in self._workers
                        if not w.dead and not w.retiring and w not in victims
                    ]
                    target = next(
                        (w for w in live
                         if spec.worker is None or w.index == spec.worker),
                        None,
                    )
                    if target is not None:
                        victims.append(target)
            current = len(self._workers)
            if num_workers < current:
                for worker in self._workers[num_workers:]:
                    worker.retiring = True
                    to_stop.append(worker)
                del self._workers[num_workers:]
            for index in range(current, num_workers):
                # Re-grown slots get a fresh incarnation number, exactly as
                # a respawn would — fault plans with spawn=0 keep targeting
                # only the original startup workers.
                if index in self._spawn_counts:
                    self._spawn_counts[index] += 1
                else:
                    self._spawn_counts[index] = 0
                grow_indices.append((index, self._spawn_counts[index]))
        for worker in victims:
            try:
                worker.process.terminate()
            except Exception:
                pass
        # Spawns and graceful stops happen outside the lock: both are slow
        # (process start / queue drain) and must not stall submit().
        grown: List[_ProcessWorker] = [
            _ProcessWorker(self, index, spawn=spawn) for index, spawn in grow_indices
        ]
        stranded: List[_ProcessWorker] = []
        with self._lock:
            if self._closed:
                stranded = grown
            else:
                self._workers.extend(grown)
        for worker in stranded:
            worker.stop()
        for worker in to_stop:
            worker.stop()
        with self._lock:
            return len(self._workers)

    def worker_pids(self) -> List[int]:
        """PIDs of the current worker processes (dead ones excluded)."""
        with self._lock:
            return [w.process.pid for w in self._workers if not w.dead]

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop every worker process (queued batches are drained first)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        try:
            for worker in workers:
                worker.stop()
        finally:
            # Defensive sweep: rings belonging to workers that were never
            # installed (died between recycle and respawn) or whose stop()
            # failed still get unlinked before the pool goes away.
            with self._lock:
                leftovers = list(self._all_rings.values())
                self._all_rings.clear()
            for ring in leftovers:
                try:
                    ring.close()
                finally:
                    ring.unlink()
