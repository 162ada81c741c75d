"""The workloads, each driving the public API of ``repro``.

Every workload has a ``setup(seed, workdir)`` that builds everything from
the seed (model, compression, calibration, compiled executors, published
artifact, server) and returns a state object, and a ``measure(state,
seconds, tracer)`` that runs the timed operations, checks every output and
returns the samples.  ``finish(state)`` releases what set-up started.

Models are random-init (no training): ``resnet14_tiny`` at 32x32, and
``tinyconv`` at 64x64 for streaming, compressed with ``compress_model`` and
calibrated on seeded inputs.
"""

from __future__ import annotations

import collections
import http.client
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from stats import distribution, median, tail
import yardstick

RESNET = "resnet14_tiny"
RESNET_SHAPE = (3, 32, 32)
TINYCONV_SHAPE = (3, 64, 64)
BATCH_SIZE = 64
# Offered rates of the two open-loop phases: ~35% and ~60% of the ~85
# single-sample requests/s a default server with one thread worker sustains
# on a 2-CPU host.
SERVE_PHASES = (("low", 30.0), ("mid", 50.0))
# The four phases run this many times in turn, so that each of them
# samples the whole window, as the interleaved executors of ``batch`` do.
SERVE_CYCLES = 4
GOODPUT_LIMIT_S = 0.100
HTTP_CONNECTIONS = 2
STREAM_CHANGE = 0.01
# Frames between scene cuts, drawn uniformly: a stream phase sees a few
# hundred frames, and its tail needs ten full recomputes beyond it.
STREAM_CUT_GAP = (20, 30)
# The oracle of a streamed frame costs more than the frame itself, so it
# runs on every full frame and on this share of the others.
STREAM_CHECK_SHARE = 0.25
REFERENCE_CHECK_IMAGES = 4
# Yardstick runs timed after each batch round, and before each serve phase
# and after the last.
YARD_RUNS_PER_ROUND = 4
YARD_RUNS_PER_PHASE = 3


# Request ids for the spans of a traced run, unique within the process.
_request_ids = itertools.count(1)


def _fresh_native_cache(workdir: Path) -> None:
    """Each set-up builds its native code from scratch, as a new deployment."""
    cache = workdir / f"native-{time.perf_counter_ns()}"
    cache.mkdir(parents=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(cache)


def _images(seed: int, count: int, shape) -> np.ndarray:
    from repro.datasets import PatternLibrary

    library = PatternLibrary(num_classes=10, channels=shape[0], image_size=shape[1], seed=seed)
    rng = np.random.default_rng(seed)
    images, _ = library.sample_batch(rng.integers(0, 10, size=count), rng)
    return np.ascontiguousarray(images, dtype=np.float64)


def _calibrated_engine(name: str, shape, pool_size: int, seed: int):
    from repro.core import (
        BitSerialInferenceEngine,
        CompressionPolicy,
        EngineConfig,
        compress_model,
    )
    from repro.models import create_model
    from repro.nn import DataLoader
    from repro.nn.data.dataset import ArrayDataset

    kwargs = {"image_size": shape[1]} if name == "tinyconv" else {}
    model = create_model(name, num_classes=10, in_channels=shape[0], rng=seed, **kwargs)
    result = compress_model(
        model, shape, pool_size=pool_size, policy=CompressionPolicy(group_size=8), seed=seed
    )
    calibration = _images(seed + 1, 16, shape)
    loader = DataLoader(ArrayDataset(calibration, np.zeros(len(calibration), dtype=np.int64)), batch_size=16)
    engine = BitSerialInferenceEngine(
        result.model, result.pool,
        EngineConfig(activation_bitwidth=8, lut_bitwidth=8, calibration_batches=1),
    )
    engine.calibrate(loader)
    return engine


def _compile(engine, level: str, shape):
    from repro.core import compile_network

    return compile_network(
        engine.model, shape, lut=engine.lut, activation_params=engine.activation_params,
        act_bitwidth=engine.config.activation_bitwidth, level=level,
    )


def _decisions(executor) -> Dict[str, Any]:
    native = (executor.plan_info or {}).get("native") or {}
    return {
        "backend": executor.backend,
        "tile": int(executor.tile or 0),
        "n_shards": int(executor.n_shards),
        "native_cache_hit": int(native.get("cache_hit", 0)),
    }


class Samples:
    """What one or more measuring windows produced.  ``counts`` hold totals
    (requests, seconds), so that windows add up; rates are taken at
    report time."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.elapsed = 0.0
        self.series: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = collections.Counter()

    def add(self, key: str, value: float) -> None:
        self.series.setdefault(key, []).append(value)

    def extend(self, key: str, values: List[float]) -> None:
        self.series.setdefault(key, []).extend(values)

    @classmethod
    def merged(cls, parts: List["Samples"]) -> "Samples":
        total = cls()
        for part in parts:
            total.attempted += part.attempted
            total.failed += part.failed
            total.mismatches += part.mismatches
            total.elapsed += part.elapsed
            for key, values in part.series.items():
                total.extend(key, values)
            total.counts.update(part.counts)
        return total


# ---------------------------------------------------------------------------
# batch: offline classification through Executor.run, closed loop
# ---------------------------------------------------------------------------
class Batch:
    """Seeded 64-image batches through three executors, run interleaved so
    that drift hits all three: O4 native and O3 plan at 8-bit activations,
    and O4 native at ``active_bits=4`` (the runtime-bitwidth trade)."""

    main_executor = "o4"
    # The gated metric each path fills: see README.md.
    gated = {
        "path1_ref": "batch_run_p50_ref",
        "path2_ref": "batch_plan_p50_ref",
        "path3_ref": "batch_a4_p50_ref",
    }

    def setup(self, seed: int, workdir: Path):
        from repro.core import Executor, save_program

        # One core, as on the paper's microcontrollers; the yardstick then
        # runs on the vCPU the executors run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        _fresh_native_cache(workdir)
        engine = _calibrated_engine(RESNET, RESNET_SHAPE, 64, seed)
        programs = {
            "o4": _compile(engine, "O4", RESNET_SHAPE),
            "o3": _compile(engine, "O3", RESNET_SHAPE),
            "a4": _compile(engine, "O4", RESNET_SHAPE),
        }
        executors = {
            "o4": Executor(programs["o4"], backend="native", n_shards=1),
            "o3": Executor(programs["o3"], backend="plan", n_shards=1),
            "a4": Executor(programs["a4"], backend="native", active_bits=4, n_shards=1),
        }
        artifact = workdir / f"batch-{time.perf_counter_ns()}.npz"
        save_program(programs["o4"], artifact)
        return {
            "engine": engine,
            "executors": executors,
            "batches": [_images(seed + 2 + i, BATCH_SIZE, RESNET_SHAPE) for i in range(4)],
            "artifact_bytes": artifact.stat().st_size,
        }

    def counters(self, state) -> Dict[str, float]:
        return {}

    def decisions(self, state) -> Dict[str, Any]:
        return {name: _decisions(ex) for name, ex in state["executors"].items()}

    def measure(self, state, seconds: float, tracer) -> Samples:
        samples = Samples()
        executors = state["executors"]
        batches = state["batches"]
        start = time.perf_counter()
        rounds = 0
        while time.perf_counter() - start < seconds or rounds < 2:
            x = batches[rounds % len(batches)]
            labels = {}
            for name, executor in executors.items():
                with tracer.request(next(_request_ids)):
                    t0 = time.perf_counter()
                    out = executor.run(x)
                    dt = time.perf_counter() - t0
                samples.add(f"{name}_ms", 1e3 * dt)
                labels[name] = out.argmax(axis=1)
                samples.attempted += len(x)
            wrong = int((labels["o4"] != labels["o3"]).sum())
            samples.mismatches += wrong
            samples.failed += wrong
            samples.extend("yard_ms", yardstick.measure(YARD_RUNS_PER_ROUND))
            rounds += 1
        samples.elapsed = time.perf_counter() - start
        return samples

    def check(self, state) -> Dict[str, Any]:
        """A fixed subset through the O0 reference oracle at the same
        precision, after the timed window."""
        from repro.core import Executor

        engine = state["engine"]
        x = state["batches"][0][:REFERENCE_CHECK_IMAGES]
        reference = _compile(engine, "O0", RESNET_SHAPE)
        result = {}
        for name, bits in (("o4", None), ("o3", None), ("a4", 4)):
            oracle = Executor(reference, backend="reference", active_bits=bits).run(x)
            got = state["executors"][name].run(x)
            result[name] = int((oracle.argmax(axis=1) != got.argmax(axis=1)).sum())
        return result

    def report(self, state, samples: Samples) -> Dict[str, Any]:
        s = samples.series
        ref = median(s["yard_ms"])

        def ips(name):  # work completed per second: images over time spent
            return BATCH_SIZE * len(s[f"{name}_ms"]) / (sum(s[f"{name}_ms"]) / 1e3)

        def run_ref(name):  # the median run in yardstick runs
            return median(s[f"{name}_ms"]) / ref

        n = len(s["o4_ms"])
        return {
            "headline": {"rate": ips("o4"), "p50": median(s["o4_ms"])},
            "named": {
                "batch_ips": (ips("o4"), "img/s", n),
                "batch_ips_plan": (ips("o3"), "img/s", len(s["o3_ms"])),
                "batch_ips_a4": (ips("a4"), "img/s", len(s["a4_ms"])),
                "batch_run_p50_ms": (median(s["o4_ms"]), "ms", n),
                "batch_run_p50_ref": (run_ref("o4"), "ref", n),
                "batch_plan_p50_ref": (run_ref("o3"), "ref", len(s["o3_ms"])),
                "batch_a4_p50_ref": (run_ref("a4"), "ref", len(s["a4_ms"])),
                "batch_speedup_a4": (ips("a4") / ips("o4"), "x", len(s["a4_ms"])),
                "batch_speedup_o4_over_o3": (ips("o4") / ips("o3"), "x", len(s["o3_ms"])),
                "yardstick_ms": (ref, "ms", len(s["yard_ms"])),
            },
        }

    def finish(self, state) -> None:
        for executor in state["executors"].values():
            executor.close()


class FrameSource:
    """Seeded ``PatternStream`` frames at 1% change, with a scene cut (a
    whole new frame from a fresh stream) every ``STREAM_CUT_GAP`` frames."""

    def __init__(self, seed: int):
        from repro.datasets import PatternLibrary

        self.library = PatternLibrary(num_classes=4, channels=3, image_size=TINYCONV_SHAPE[1], seed=seed)
        self.rng = np.random.default_rng(seed + 5)
        self._new_stream()

    def _new_stream(self):
        self.stream = self.library.stream(
            int(self.rng.integers(0, 4)), change_fraction=STREAM_CHANGE,
            rng=int(self.rng.integers(0, 2**31)),
        )
        self.until_cut = int(self.rng.integers(STREAM_CUT_GAP[0], STREAM_CUT_GAP[1] + 1))
        return self.stream.frame

    def next(self) -> np.ndarray:
        self.until_cut -= 1
        if self.until_cut <= 0:
            return self._new_stream()
        return self.stream.next()


# ---------------------------------------------------------------------------
# serve: published artifacts behind an InferenceServer
# ---------------------------------------------------------------------------
class Serve:
    """Two published models behind one default ``InferenceServer`` (one
    thread worker), driven in four phases of equal length:

    * ``low`` and ``mid``: open-loop single-sample ``predict_async`` calls
      on the O4 ``resnet14_tiny`` artifact at seeded Poisson arrivals from
      one generator thread, each request timed from when it was due;
    * ``http``: closed-loop JSON ``POST /v1/models/<name>/predict`` calls on
      the same model through ``serve_http``, on two keep-alive connections;
    * ``stream``: one client session through ``stream_request`` on the
      ``tinyconv`` artifact, frame by frame, closed loop, threshold 0.

    Every prediction's argmax is checked against the offline O4 executor
    built while compiling the artifact; streamed outputs are checked bitwise
    against a batch-1 ``Executor.run`` of the same frame.
    """

    main_executor = "served"
    gated = {
        "path1_ref": "serve_low_p50_ref",
        "path2_ref": "http_p50_ref",
        "path3_ref": "stream_p99_ref",
    }

    def setup(self, seed: int, workdir: Path):
        from repro.core import Executor
        from repro.serve import InferenceServer, ModelRepository, StreamPolicy, serve_http

        _fresh_native_cache(workdir)
        engine = _calibrated_engine(RESNET, RESNET_SHAPE, 64, seed)
        program = _compile(engine, "O4", RESNET_SHAPE)
        offline = Executor(program, backend="native")
        repo = ModelRepository(workdir / f"repo-{time.perf_counter_ns()}")
        version = repo.publish(program, "resnet14")
        stream_engine = _calibrated_engine("tinyconv", TINYCONV_SHAPE, 16, seed)
        repo.publish(_compile(stream_engine, "O2", TINYCONV_SHAPE), "tinyconv")
        server = InferenceServer(repo, stream=StreamPolicy(threshold=0.0))
        front = serve_http(server, port=0)
        pool = _images(seed + 2, 256, RESNET_SHAPE)
        # Bodies are encoded here so the client's own JSON work is not timed.
        bodies = [json.dumps({"inputs": image.tolist()}).encode() for image in pool[:64]]
        conns = [http.client.HTTPConnection(*front.address, timeout=60) for _ in range(HTTP_CONNECTIONS)]
        for conn in conns:  # the first request builds the serving pipeline
            self._post(conn, bodies[0])
        frames = FrameSource(seed)
        # The first stream request compiles the stream plan.
        _, sid, results = server.stream_request("tinyconv", frames.next())
        next(results)
        return {
            "offline": offline,
            "server": server,
            "front": front,
            "conns": conns,
            "pool": pool,
            "bodies": bodies,
            "rng": np.random.default_rng(seed + 3),
            "frames": frames,
            "sid": sid,
            "frame_oracle": Executor(repo.get("tinyconv").program, backend="plan"),
            "artifact_bytes": repo.artifact_path("resnet14", version).stat().st_size,
        }

    def counters(self, state) -> Dict[str, float]:
        """The served model's admission and batching totals so far."""
        stats = state["server"].stats("resnet14")
        return {
            "admitted": stats["resilience"]["admitted"],
            "shed": stats["resilience"]["shed_total"],
            "batches": stats["batches"]["count"],
            "batched_rows": stats["requests"]["completed"] + stats["requests"]["failed"],
        }

    def decisions(self, state):
        server = state["server"]
        info = server.stats("resnet14").get("executor") or {}
        streaming = server.stats("tinyconv").get("streaming") or {}
        return {
            "offline": _decisions(state["offline"]),
            "served": {
                "backend": info.get("backend"),
                "tile": info.get("tile"),
                "n_shards": info.get("n_shards"),
                "native_cache_hit": (info.get("native") or {}).get("cache_hit"),
            },
            "frame_oracle": _decisions(state["frame_oracle"]),
            "stream_crossover": streaming.get("crossover"),
            "stream_tile": streaming.get("tile"),
        }

    @staticmethod
    def _post(conn, body: bytes):
        conn.request("POST", "/v1/models/resnet14/predict", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()

    @staticmethod
    def _offline_labels(state, indices, tracer) -> np.ndarray:
        with tracer.paused():  # the benchmark's own check is not the program's work
            return state["offline"].run(state["pool"][np.asarray(indices, dtype=np.int64)]).argmax(axis=1)

    def _open_loop(self, state, rate: float, seconds: float, tracer, samples: Samples, key: str):
        server, pool, rng = state["server"], state["pool"], state["rng"]
        # A Poisson process conditioned on its count: sorted uniform arrival
        # times, so every run offers exactly ``rate * seconds`` requests.
        dues = np.sort(rng.uniform(0.0, seconds, size=int(round(rate * seconds))))
        picks = rng.integers(0, len(pool), size=len(dues))
        done = [None] * len(dues)
        futures = []
        start = time.perf_counter()
        for i, due in enumerate(dues):
            wait = start + due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            samples.add("late_ms", 1e3 * max(0.0, time.perf_counter() - start - due))
            try:
                with tracer.request(next(_request_ids)):
                    future = server.predict_async("resnet14", pool[picks[i]])
            except Exception:  # shed at admission: a failed request
                futures.append(None)
                continue
            future.add_done_callback(lambda f, i=i: done.__setitem__(i, time.perf_counter()))
            futures.append(future)
        labels, ok = [], []
        for i, future in enumerate(futures):
            if future is None:
                continue
            try:
                labels.append(int(np.argmax(future.result(timeout=60.0))))
                ok.append(i)
            except Exception:  # a failed request
                pass
        expected = self._offline_labels(state, picks[ok], tracer) if ok else []
        # The phase lasts from its start until its last answer arrived.
        elapsed = max(done[i] for i in ok) - start if ok else seconds
        good = wrong = 0
        for i, label, want in zip(ok, labels, expected):
            if label != want:
                wrong += 1
                continue
            latency = done[i] - (start + dues[i])
            samples.add(f"{key}_ms", 1e3 * latency)
            good += latency <= GOODPUT_LIMIT_S
        failed = len(dues) - len(ok) + wrong
        samples.mismatches += wrong
        samples.attempted += len(dues)
        samples.failed += failed
        samples.counts[f"{key}_good"] += good
        samples.counts[f"{key}_elapsed"] += elapsed
        samples.counts[f"{key}_sent"] += len(dues)
        samples.counts["loadgen_sent"] += len(dues)
        samples.counts["loadgen_failed"] += failed

    def _closed_loop_http(self, state, seconds: float, tracer, samples: Samples):
        bodies = state["bodies"]
        picks = iter(state["rng"].integers(0, len(bodies), size=1 << 16))
        lock = threading.Lock()
        results = []  # (pick, status, label, latency_s)
        start = time.perf_counter()
        stop = start + seconds

        def client(index: int, conn) -> None:
            while time.perf_counter() < stop:
                with lock:
                    pick = int(next(picks))
                with tracer.request(next(_request_ids)), tracer.span("client.request", conn=index):
                    t0 = time.perf_counter()
                    try:
                        status, payload = self._post(conn, bodies[pick])
                    except (OSError, http.client.HTTPException):
                        status, payload = None, b""
                    latency = time.perf_counter() - t0
                label = int(np.argmax(json.loads(payload)["outputs"])) if status == 200 else None
                with lock:
                    results.append((pick, status, label, latency))

        threads = [threading.Thread(target=client, args=(i, c)) for i, c in enumerate(state["conns"])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        ok = [r for r in results if r[1] == 200]
        expected = self._offline_labels(state, [r[0] for r in ok], tracer) if ok else []
        wrong = 0
        for (pick, status, label, latency), want in zip(ok, expected):
            if label != want:
                wrong += 1
                continue
            samples.add("http_ms", 1e3 * latency)
        samples.mismatches += wrong
        samples.attempted += len(results)
        samples.failed += len(results) - len(ok) + wrong
        samples.counts["http_ok"] += len(ok) - wrong
        samples.counts["http_elapsed"] += elapsed
        samples.counts["http_sent"] += len(results)

    def _stream(self, state, seconds: float, tracer, samples: Samples):
        server, oracle, frames = state["server"], state["frame_oracle"], state["frames"]
        check = state["rng"]
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            frame = frames.next()
            with tracer.request(next(_request_ids)), tracer.span("client.frame"):
                t0 = time.perf_counter()
                _, _, results = server.stream_request("tinyconv", frame, session=state["sid"])
                payload = next(results)
                dt = time.perf_counter() - t0
            samples.attempted += 1
            samples.add("frame_ms", 1e3 * dt)
            if payload["mode"] != "incremental" or check.random() < STREAM_CHECK_SHARE:
                with tracer.paused():
                    t0 = time.perf_counter()
                    expected = oracle.run(frame[None])[0]
                    samples.add("recompute_ms", 1e3 * (time.perf_counter() - t0))
                if not np.array_equal(payload["outputs"], expected):
                    samples.mismatches += 1
                    samples.failed += 1

    def measure(self, state, seconds: float, tracer) -> Samples:
        samples = Samples()
        start = time.perf_counter()
        phase = seconds / (SERVE_CYCLES * (len(SERVE_PHASES) + 2))
        # The yardstick runs between phases, never beside the server, so
        # that it neither competes with the server nor waits on it.
        yard = lambda: samples.extend("yard_ms", yardstick.measure(YARD_RUNS_PER_PHASE))
        for _ in range(SERVE_CYCLES):
            for key, rate in SERVE_PHASES:
                yard()
                self._open_loop(state, rate, phase, tracer, samples, key)
            yard()
            self._closed_loop_http(state, phase, tracer, samples)
            yard()
            self._stream(state, phase, tracer, samples)
        yard()
        samples.elapsed = time.perf_counter() - start
        return samples

    def report(self, state, samples: Samples) -> Dict[str, Any]:
        s, c = samples.series, samples.counts
        ref = median(s["yard_ms"])
        low, mid = distribution(s.get("low_ms", [])), distribution(s.get("mid_ms", []))
        web = distribution(s.get("http_ms", []))
        frame = distribution(s.get("frame_ms", []))
        goodput = c["mid_good"] / c["mid_elapsed"]
        http_rps = c["http_ok"] / c["http_elapsed"]
        # Frames/s streamed over frames/s recomputed in full, both timed in
        # the same loop: the temporal-memoization speedup.
        stream_speedup = (sum(s["recompute_ms"]) / len(s["recompute_ms"])) / (
            sum(s["frame_ms"]) / len(s["frame_ms"]))
        late = tail(s.get("late_ms", []))
        return {
            # Closed-loop rate and a median: open-loop goodput is set by the
            # offered load, so it would hide a tracing overhead.
            "headline": {"rate": http_rps, "p50": mid["p50"]},
            "named": {
                "artifact_kb": (state["artifact_bytes"] / 1024, "KiB", 1),
                "serve_low_p50_ms": (low["p50"], "ms", low["n"]),
                "serve_low_p50_ref": (low["p50"] / ref, "ref", low["n"]),
                "serve_low_p99_ms": (low["tail"], f"ms@p{low['tail_pct']:.1f}", low["n"]),
                "serve_mid_p50_ms": (mid["p50"], "ms", mid["n"]),
                "serve_mid_p99_ms": (mid["tail"], f"ms@p{mid['tail_pct']:.1f}", mid["n"]),
                "serve_mid_p50_ref": (mid["p50"] / ref, "ref", mid["n"]),
                "serve_goodput_rps": (goodput, "1/s", int(c["mid_sent"])),
                "http_p50_ms": (web["p50"], "ms", web["n"]),
                "http_p99_ms": (web["tail"], f"ms@p{web['tail_pct']:.1f}", web["n"]),
                "http_p50_ref": (web["p50"] / ref, "ref", web["n"]),
                "http_rps": (http_rps, "1/s", int(c["http_sent"])),
                "stream_p50_ms": (frame["p50"], "ms", frame["n"]),
                "stream_p99_ms": (frame["tail"], f"ms@p{frame['tail_pct']:.1f}", frame["n"]),
                "stream_p99_ref": (frame["tail"] / ref, f"ref@p{frame['tail_pct']:.1f}", frame["n"]),
                "stream_p50_ref": (frame["p50"] / ref, "ref", frame["n"]),
                "stream_speedup": (stream_speedup, "x", len(s["recompute_ms"])),
                "loadgen_late_p99_ms": (late["value"], f"ms@p{late['pct']:.1f}", late["n"]),
                "yardstick_ms": (ref, "ms", len(s["yard_ms"])),
            },
            "loadgen": {"sent": c["loadgen_sent"], "failed": c["loadgen_failed"],
                        "late_p99_ms": late["value"]},
        }

    def finish(self, state) -> None:
        for conn in state["conns"]:
            conn.close()
        state["front"].close()
        state["server"].close()
        state["offline"].close()
        state["frame_oracle"].close()


WORKLOADS = {"batch": Batch, "serve": Serve}
