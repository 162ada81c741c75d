#!/usr/bin/env python3
"""Benchmark of the whole system: offline batch classification, and serving
(open loop, through the HTTP edge, and streaming), on models built from the
seed.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0

``--workload`` is ``batch``, ``serve``, or ``all`` (each workload in its
own process, one after another).  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, and the
spans are written under ``.perfbench_out/``.  The lines before it give the
host fingerprint, the program's decisions and every workload metric by
name, unit and sample count.  See README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# One BLAS thread, set before NumPy loads.  A second OpenBLAS thread
# spin-waits through every executor run, so each run held both vCPUs of
# the two-vCPU host the benchmark was built on, for no gain in speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_kb": "KiB",
    "path1_ref": "ref",
    "path2_ref": "ref",
    "path3_ref": "ref",
}
# Which windows of a traced run are traced: untraced, traced, traced,
# untraced, so that a steady drift of the host adds the same to both sides.
TRACE_ORDER = (False, True, True, False)
# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3


def process_age() -> float:
    """Seconds since this process started (Linux ``/proc``; elsewhere,
    since this module was imported)."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        uptime = float(Path("/proc/uptime").read_text().split()[0])
        return max(0.0, uptime - started)
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _IMPORTED


_IMPORTED = time.perf_counter()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def say(label: str, payload) -> None:
    print(f"# {label}: {json.dumps(payload, sort_keys=True, default=str)}", flush=True)


def setup_in_child(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def only_setup(name: str, seed: int, workdir: Path) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    state = workload.setup(seed, workdir)
    setup_s = process_age()
    workload.finish(state)
    print(json.dumps({"setup_s": setup_s}), flush=True)
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> int:
    from stats import fingerprint
    from tracing import UNITS, Tracer, install, layer_metrics
    from workloads import WORKLOADS, Samples

    workload = WORKLOADS[name]()
    tracer = Tracer()
    if trace:
        install(tracer)
        tracer.enabled = True  # spans carry phase "setup" until the window starts
    state = workload.setup(seed, workdir)
    setup_s = process_age()
    tracer.enabled = False
    counters = collections.Counter()
    try:
        if trace:
            # Half the window untraced, half traced: the difference between
            # the two is the tracing overhead.  The program's own counters
            # are summed over the traced windows.
            windows = {False: [], True: []}
            tracer.phase = "measure"
            tracer.queue_waits.clear()  # the set-up's requests waited too
            for traced in TRACE_ORDER:
                before = workload.counters(state)
                tracer.enabled = traced
                windows[traced].append(workload.measure(state, seconds / len(TRACE_ORDER), tracer))
                tracer.enabled = False
                if traced:
                    counters.update({k: v - before[k] for k, v in workload.counters(state).items()})
            runs = [Samples.merged(windows[False]), Samples.merged(windows[True])]
        else:
            runs = [workload.measure(state, seconds, tracer)]
        rss = peak_rss_mb()
        decisions = workload.decisions(state)
        reference = workload.check(state) if hasattr(workload, "check") else {}
    finally:
        workload.finish(state)
        tracer.uninstall()

    # Set-up is repeated in fresh processes, after the timed window, so that
    # its median is steady and the repeats neither disturb the measurement
    # nor add their garbage to this process's peak memory.
    setups = [setup_s] + ([] if trace else [setup_in_child(name, seed) for _ in range(SETUP_REPEATS - 1)])
    setup_s = sorted(setups)[len(setups) // 2]

    reports = [workload.report(state, samples) for samples in runs]
    report = reports[-1]
    attempted = sum(s.attempted for s in runs)
    failed = sum(s.failed for s in runs) + sum(reference.values())
    mismatches = sum(s.mismatches for s in runs) + sum(reference.values())
    head = report["headline"]

    say("fingerprint", fingerprint(ROOT, seed))
    say("decisions", decisions)
    say("setup_s_each", setups)
    say("gated", workload.gated)
    for key, (value, unit, n) in sorted(report["named"].items()):
        print(f"{name}: {key} = {value:.6g} {unit} (n={n})")
    print(f"{name}: setup_s = {setup_s:.6g} s (median of {len(setups)})")
    print(f"{name}: peak_rss_mb = {rss:.6g} MB")
    print(f"{name}: attempted = {attempted}, failed = {failed}, mismatches = {mismatches}")
    if reference:
        say("reference_check_mismatches", reference)

    if trace:
        metrics = layer_metrics(tracer.spans, counters, tracer.queue_waits, runs[-1].elapsed)
        main = decisions[workload.main_executor]
        metrics["program.tile"] = main["tile"] or 0
        metrics["program.n_shards"] = main["n_shards"] or 0
        loadgen = report.get("loadgen")
        if loadgen:
            metrics["loadgen.sent"] = loadgen["sent"]
            metrics["loadgen.failed"] = loadgen["failed"]
            metrics["loadgen.late_p99_ms"] = loadgen["late_p99_ms"]
        plain_head = reports[0]["headline"]
        if plain_head["rate"]:
            metrics["trace.overhead_rate_pct"] = 100.0 * (head["rate"] - plain_head["rate"]) / plain_head["rate"]
        metrics["trace.overhead_p50_ms"] = head["p50"] - plain_head["p50"]
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"{name}-seed{seed}-spans.jsonl"
        with spans_path.open("w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span, default=str) + "\n")
        print(f"{name}: {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        units = UNITS
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "artifact_kb": state["artifact_bytes"] / 1024.0,
            **{slot: report["named"][key][0] for slot, key in workload.gated.items()},
        }
        units = END_TO_END
    result = {
        "correct": mismatches == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            key: {"value": float(value), "unit": units[key]} for key, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if mismatches == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the whole system; see perfbench/README.md.")
    parser.add_argument("--workload", required=True, choices=["batch", "serve", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Internal: one set-up in a fresh process, for the set-up repeats.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in ("batch", "serve"):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd).returncode)
        return code

    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still removes its temporary directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    temp_root = ROOT / ".perfbench_tmp"
    temp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=temp_root))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        if args.setup_only:
            return only_setup(args.workload, args.seed, workdir)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            temp_root.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
