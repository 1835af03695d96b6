#!/usr/bin/env python3
"""End-to-end benchmark of the Sia simulator and sia_serve.

Builds the program from source (CMake, Release) into .bench_build at the
root of the source tree, runs one workload for one seed, and prints one JSON
result line last:

  python3 perfbench/run.py --workload philly-sia --seed 1 --seconds 24 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

Other modes:
  --steady N      run the workload N times (seeds --seed .. --seed+N-1) and
                  print, per metric, the median, quartiles and spread next to
                  the metric's bound in BENCHMARK.json
  --self-test     build and run the output checks' own test
  --trace-seed N  sample the job traces from another seed (held-out check)

Everything the benchmark writes stays inside the source tree: the build in
.bench_build (or $CARGO_TARGET_DIR) and served state in .bench_run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["philly-sia", "newtrace-sia", "philly-pollux", "serve-sia"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    """Configures (once) and builds the named targets; exits non-zero on failure."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    with open(log_path, "a") as build_log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
        for cmd in steps:
            if subprocess.call(cmd, stdout=build_log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                # A failed configure leaves a cache that would skip the next one.
                if "-S" in cmd:
                    try:
                        os.remove(os.path.join(out, "CMakeCache.txt"))
                    except OSError:
                        pass
                log("perfbench: build failed (%s)" % " ".join(cmd))
                sys.exit(1)
    return out


def run_once(binary, serve_bin, workload, seed, seconds, trace, trace_seed):
    """Runs the benchmark program once; returns (exit code, parsed result or None)."""
    work_dir = os.path.join(".bench_run", "%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--trace-seed=%d" % trace_seed, "--serve-bin=" + serve_bin,
           "--work-dir=" + work_dir, "--t0-ns=%d" % time.monotonic_ns()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, None
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    return 0, json.loads(lines[-1])


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steady(binary, serve_bin, args):
    """Runs the workload N times with consecutive seeds and prints spreads."""
    values, shares = {}, set()
    for i in range(args.steady):
        seed = args.seed + i
        code, result = run_once(binary, serve_bin, args.workload, seed, args.seconds,
                                args.trace, args.trace_seed)
        if code != 0 or result is None:
            log("run with seed %d failed" % seed)
            return 1
        shares.add(result["failed"] / result["attempted"])
        log("seed %d: correct=%s %s" % (seed, result["correct"], json.dumps(
            {k: round(v["value"], 6) for k, v in result["metrics"].items()})))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    limit = bounds()
    # A spread within a third of its bound leaves room for a noisier host.
    print("%-28s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in sorted(values):
        q1, med, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = limit.get(name)
        mark = "" if bound is None else "  ok" if spread <= bound / 3 else "  within" if spread <= bound else "  OVER"
        print("%-28s %12.6g %12.6g %12.6g %8.4f %6s%s" % (
            name, med, q1, q3, spread, "-" if bound is None else bound, mark))
    print("failed share per run: %s" % sorted(shares))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-seed", type=int, default=1)
    parser.add_argument("--steady", type=int, default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        out = build(["perfbench_checks_test"])
        return subprocess.call([os.path.join(out, "perfbench_checks_test")])
    if args.workload is None:
        parser.error("--workload is required")
    out = build(["perfbench", "sia_serve"])
    binary = os.path.join(out, "perfbench")
    serve_bin = os.path.join(out, "sia_serve")
    if args.steady > 0:
        return steady(binary, serve_bin, args)
    code, result = run_once(binary, serve_bin, args.workload, args.seed, args.seconds,
                            args.trace, args.trace_seed)
    if code != 0 or result is None:
        return code or 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
