#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as one JSON line.

    python3 blas_bench/run.py --workload W --seed N --seconds S --trace 0|1

Builds blas_bench from this checkout's sources (into .bench_build/), runs
workload W for S measured seconds on inputs generated from seed N, and
prints as the last stdout line {"correct", "attempted", "failed",
"metrics"}: with --trace 0 the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics (a traced run, analysed by
trace_report.py, whose untraced first half gives the service.* timings).
Build and run logs go to stderr. Exits non-zero, with no result line, when
the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "blas_bench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
RUN_TIMEOUT_S = 160

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import trace_report  # noqa: E402


def build():
    """Configures and builds blas_bench; returns the binary's path. The
    compiler's temporary files stay inside the checkout too."""
    jobs = str(min(4, os.cpu_count() or 1))
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {**os.environ, "TMPDIR": tmp}
    for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR],
                ["cmake", "--build", BUILD_DIR, "--target", "blas_bench",
                 "-j", jobs]):
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD_DIR, "blas_bench")


def run_binary(binary, workload, seed, seconds, trace_path=None):
    """Runs one workload; returns the program's JSON report (its `checks`
    say whether every answer was right). Raises on a crash or timeout."""
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--duration_s={seconds}", f"--tmp_dir={RUN_DIR}"]
    if trace_path:
        cmd.append(f"--trace={trace_path}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"blas_bench exited {proc.returncode}")
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    trace_path = None
    if args.trace:
        trace_path = os.path.join(RUN_DIR, f"trace-{os.getpid()}.jsonl")
    try:
        report = run_binary(binary, args.workload, args.seed, args.seconds,
                            trace_path)
        values = {**report["metrics"], **report["layers"]}
        # The program's timings (qps, latency_*, first_match_*) are
        # reported, without a bound, as the service layer's: service.qps.
        values.update({f"service.{k}": v for k, v in report["metrics"].items()})
        if trace_path:
            traced = trace_report.analyze(trace_path).get(args.workload)
            if traced is None or not traced["ok"]:
                raise RuntimeError("trace_report found no usable trace")
            for name, (value, unit, _n) in traced["metrics"].items():
                values[name] = {"value": value, "unit": unit}
    except (OSError, RuntimeError, subprocess.TimeoutExpired,
            ValueError, KeyError) as e:
        print(f"run.py: run failed: {e}", file=sys.stderr)
        return 1
    finally:
        if trace_path and os.path.exists(trace_path):
            os.remove(trace_path)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"run.py: metric {m['name']} missing", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]]["value"],
                              "unit": m["unit"]}
    checks = report["checks"]
    print(json.dumps({"correct": bool(checks["ok"]),
                      "attempted": checks["attempted"],
                      "failed": checks["failed"] + checks["wrong"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
