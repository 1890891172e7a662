"""The dqmf benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Load comes from one client in one process
(a closed loop).  A run repeats a fresh-interpreter pass of identical work
(see passes.py) once per PASS_SECONDS of --seconds, at least MIN_PASSES
times, and takes each op's median over the passes.  With --trace 0 it prints
the end-to-end metrics of BENCHMARK.json; with --trace 1 it runs one
untraced and one traced pass of identical work and prints the per-layer
metrics, the tracing overhead among them.  The last line of standard output
is one JSON object {correct, attempted, failed, metrics}; the exit code is
nonzero iff some op failed.  Spans and a result record with the Python
version, CPU count, commit and source digest go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("serve", "certify", "oracle")
MIN_PASSES = 3
# a run makes one pass per PASS_SECONDS of --seconds, so the pass count never
# depends on the code's speed; these are a pass's seconds on a 2-vCPU x86 machine
PASS_SECONDS = {"serve": 10.0, "certify": 6.0, "oracle": 10.0}
DEADLINE_S = 150.0  # no pass starts once it could end past this; runs end within 180 s
PASS_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def run_pass(workload, seed, trace_out, timeout):
    """Run one pass in a fresh interpreter; returns (record or None, seconds, error)."""
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", workload, "--seed", seed]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, f"pass {seed} timed out after {timeout:.0f} s"
    took = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, took, f"pass {seed} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(lines[-1]), took, None
    except json.JSONDecodeError:
        return None, took, f"pass {seed} printed no result: {lines[-1][:200]}"


def percentile_ms(samples, pct):
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1] * 1e3


def end_to_end(passes):
    """The end-to-end metrics, and a note on the latency sample.

    Every pass of a run does identical work, so op i's latency is taken as
    its median over the passes.
    """
    runs = [p["latencies"] for p in passes]
    if len({len(r) for r in runs}) == 1:
        lat = [statistics.median(col) for col in zip(*runs)]
    else:  # a pass lost ops to a failure; pool what there is
        lat = [x for r in runs for x in r]
    busy = sum(lat)
    p99 = percentile_ms(lat, 99)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": busy,
        "ops_per_s": len(lat) / busy,
        "latency_p50_ms": percentile_ms(lat, 50),
        "latency_p99_ms": p99,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    beyond = sum(1 for x in lat if x * 1e3 > p99)
    unscaled = {k: statistics.median(p[k] for p in passes)
                for k in ("raw_setup_s", "raw_wall_s", "to_reference")}
    note = (f"passes {len(passes)}  latency samples {len(lat)}  beyond p99 {beyond}\n"
            f"unscaled: setup {unscaled['raw_setup_s']:.6g} s  wall {unscaled['raw_wall_s']:.6g} s"
            f"  to-reference factor {unscaled['to_reference']:.4g}")
    return metrics, note


def context():
    """Python version, CPU count, commit and a digest of the dqmf sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dqmf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dqmf" / "__init__.py").is_file():
        print(f"perfbench: no dqmf sources at {ROOT / 'src' / 'dqmf'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # byte-compile once so that no pass's set-up pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "dqmf")],
                   cwd=ROOT, capture_output=True, timeout=60)
    ctx = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, **context()}
    print("context " + " ".join(f"{k}={v}" for k, v in ctx.items()))

    passes, errors = [], []
    t0 = time.perf_counter()
    if args.trace:
        stem = f"trace-{args.workload}-{args.seed}"
        for trace_out in (None, OUT_DIR / f"{stem}.jsonl"):
            rec, _, err = run_pass(args.workload, str(args.seed), trace_out, PASS_TIMEOUT_S)
            passes.append(rec)
            if err:
                errors.append(err)
    else:
        took = []
        for _ in range(max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))):
            elapsed = time.perf_counter() - t0
            if took and elapsed + max(took) > DEADLINE_S:
                break
            rec, secs, err = run_pass(args.workload, str(args.seed), None,
                                      PASS_TIMEOUT_S - elapsed)
            took.append(secs)
            if err:
                errors.append(err)
            else:
                passes.append(rec)

    done = [p for p in passes if p is not None]
    attempted = sum(p["attempted"] for p in done) + len(errors)
    failed = sum(p["failed"] for p in done) + len(errors)
    for err in errors:
        print(f"perfbench: {err}", file=sys.stderr)
    for p in done:
        for what in p["failures"]:
            print(f"perfbench: failed op: {what}", file=sys.stderr)

    metrics, units = {}, {}
    if args.trace and len(done) == 2:
        base, traced = done
        metrics.update(traced["layers"])
        units.update({k: ("count" if k.endswith("_calls") else "s") for k in traced["layers"]})
        metrics["serve.repeat_share"] = traced["repeat_share"]
        metrics["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
        units["serve.repeat_share"] = units["trace.overhead_ratio"] = "1"
        for name in traced["absent"]:
            print(f"absent probe {name}")
    elif not args.trace and done:
        metrics, note = end_to_end(done)
        units = END_TO_END_UNITS
        print(note)
    print(f"fail_ratio {failed / max(attempted, 1):.6g} ({failed} of {attempted} ops)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, context=ctx, passes=[
        {k: v for k, v in p.items() if k != "latencies"} for p in done])
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
