"""Streaming inference: dirty-tile incremental execution over a frame stream.

This walks the temporal-memoization path documented in
docs/ARCHITECTURE.md §4c and docs/SERVING.md ("Streaming inference"):

1. compress + calibrate a small CNN on synthetic pattern data and compile
   the whole-network program (as in quickstart.py, minus the training),
2. compile a StreamPlan and drive a session over a drifting-patch
   PatternStream, printing the per-frame mode (full / incremental /
   cached), dirty-tile counts, and the incremental-vs-full speedup —
   verifying every streamed prediction is bit-identical to the plain
   executor,
3. publish the program and serve the same stream through
   InferenceServer.stream_request (stateful sessions, session affinity),
4. replay it over the chunked-ndjson HTTP endpoint
   POST /v1/models/<name>/stream, continuing the same server-side session
   across two requests.

Run with:  python examples/stream_quickstart.py           (full demo)
           python examples/stream_quickstart.py --fast    (CI smoke)
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
import urllib.request

import numpy as np

from repro.core import (
    BitSerialInferenceEngine,
    CompressionPolicy,
    EngineConfig,
    compile_stream_plan,
    compress_model,
    stream_support,
)
from repro.datasets import PatternLibrary
from repro.models import create_model
from repro.nn import DataLoader
from repro.nn.data.dataset import ArrayDataset
from repro.serve import InferenceServer, ModelRepository, StreamPolicy, serve_http


def main(seed: int = 0, fast: bool = False, port: int = 0) -> None:
    image_size = 32 if fast else 64
    frames_per_burst = 4 if fast else 12

    # ------------------------------------------- 1. compress + calibrate + compile
    library = PatternLibrary(num_classes=4, channels=3, image_size=image_size, seed=seed)
    model = create_model(
        "tinyconv", num_classes=4, in_channels=3, rng=seed, image_size=image_size
    )
    result = compress_model(
        model, (3, image_size, image_size), pool_size=16,
        policy=CompressionPolicy(group_size=8), seed=seed,
    )
    rng = np.random.default_rng(seed)
    calib_images, calib_labels = library.sample_batch(
        rng.integers(0, 4, size=32), rng=seed
    )
    loader = DataLoader(ArrayDataset(calib_images, calib_labels), batch_size=16)
    engine = BitSerialInferenceEngine(
        result.model, result.pool,
        EngineConfig(activation_bitwidth=8, lut_bitwidth=8, calibration_batches=2),
    )
    engine.calibrate(loader)
    program = engine.compile(level="O2")
    support = stream_support(program)
    print(f"Compiled tinyconv@{image_size}: {len(program.ops)} ops, "
          f"streamable prefix of {support['cutoff_index']} schedule steps")

    # ------------------------------------------------- 2. core streaming session
    plan = compile_stream_plan(program, tile=8, seed=seed)
    print(f"StreamPlan: tile {plan.tile}px, measured crossover at "
          f"{plan.crossover:.0%} dirty area\n")
    stream = library.stream(0, change_fraction=0.05, rng=seed)
    session = plan.session(threshold=0.0)

    frames = [stream.frame] + [stream.next() for _ in range(frames_per_burst - 1)]
    frames += [frames[-1]]  # an unchanged frame: the cached fast path
    stream_s = full_s = 0.0
    for index, frame in enumerate(frames):
        start = time.perf_counter()
        outputs, info = session.process(frame)
        stream_s += time.perf_counter() - start
        start = time.perf_counter()
        oracle = plan.executor.run(frame[None])[0]
        full_s += time.perf_counter() - start
        assert np.array_equal(outputs, oracle), "streamed != full recompute"
        dirty = ("-" if info["dirty_tiles"] is None
                 else f"{info['dirty_tiles']}/{info['total_tiles']}")
        print(f"  frame {index:2d}: {info['mode']:<11s} dirty tiles {dirty:>7s} "
              f"argmax {int(np.argmax(outputs))}")
    print(f"\nAll {len(frames)} streamed predictions bit-identical to the full "
          f"recompute; steady-state speedup "
          f"{full_s / stream_s:.2f}x (see BENCH_stream.json for the sweep)\n")

    # ------------------------------------------------- 3. served stream sessions
    repo_root = tempfile.mkdtemp(prefix="model-repo-")
    repository = ModelRepository(repo_root)
    repository.publish(program, "tinyconv")
    server = InferenceServer(
        repository, stream=StreamPolicy(session_ttl_s=120.0, tile=8)
    )
    burst = np.stack(frames[: max(2, frames_per_burst // 2)])
    version, sid, results = server.stream_request("tinyconv", burst)
    modes = [result["mode"] for result in results]
    print(f"Served stream session {sid} (v{version}): modes {modes}")
    _, _, results = server.stream_request("tinyconv", burst[-1], session=sid)
    result, = list(results)
    print(f"Same session, unchanged frame -> {result['mode']} "
          f"(argmax {int(np.argmax(result['outputs']))})")
    print("Streaming stats:",
          json.dumps(server.stats("tinyconv")["streaming"], indent=2))

    # ------------------------------------------------- 4. chunked HTTP streaming
    front = serve_http(server, port=port)
    url = front.url
    print(f"\nHTTP front end on {url}")

    def post_stream(payload):
        request = urllib.request.Request(
            f"{url}/v1/models/tinyconv/stream",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=300.0) as response:
            sid = response.headers["X-Stream-Session"]
            lines = [json.loads(line) for line in response if line.strip()]
        return sid, lines

    http_sid, lines = post_stream({"frames": burst.tolist()})
    print(f"POST /v1/models/tinyconv/stream -> session {http_sid}, "
          f"{len(lines)} ndjson lines, modes {[line['mode'] for line in lines]}")
    _, lines = post_stream(
        {"frames": burst[-1].tolist(), "session": http_sid, "close_session": True}
    )
    print(f"Continued + closed {http_sid}: frame {lines[0]['frame']} was "
          f"'{lines[0]['mode']}'")
    print("\nTry it yourself:")
    print(f"  curl -N -X POST {url}/v1/models/tinyconv/stream "
          "-H 'Content-Type: application/json' -d '{\"frames\": [[[0.0, ...]]]}'")

    front.close()
    server.close()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--fast", action="store_true",
        help="tiny-scale smoke run (used by CI): smaller frames, fewer of them",
    )
    parser.add_argument("--port", type=int, default=0,
                        help="HTTP port (0 binds an ephemeral port)")
    args = parser.parse_args()
    main(seed=args.seed, fast=args.fast, port=args.port)
