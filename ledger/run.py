#!/usr/bin/env python3
"""Build and run the benchmark for one workload, or for each in turn.

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ledger/run.py --workload all ...   # every workload in turn, gated or not
    python3 ledger/run.py --test        # build and run the benchmark's own tests

Builds ledger/ (which compiles the library from ../src) in Release under
.bench_build/ledger at the root of the checkout, runs ledger_bench, checks
that its result line names exactly the metrics BENCHMARK.json declares, and
passes its output through.  The last line of stdout is the result object.
With --trace 1 the Chrome trace goes to .bench_build/traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "ledger")
RUN_TIMEOUT_S = 170
# Run by name and by 'all', but not gated by BENCHMARK.json (see README.md).
UNGATED_WORKLOADS = ["serve_small"]


def fail(msg, code):
    print(f"ledger: {msg}", file=sys.stderr)
    sys.exit(code)


def build(env, targets):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            fail("configure failed", 3)
    cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1), "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
        fail("build failed", 3)


def declared_metrics(trace):
    """(name -> unit) of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}", 4)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}", 4)


def check_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events or any(e["ph"] != "X" or e["dur"] < 0 for e in events):
        fail(f"malformed trace {path}", 4)


def run_one(env, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout, exit code) once its result checks out."""
    cmd = [os.path.join(BUILD, "ledger_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    trace_path = None
    if trace:
        os.makedirs(os.path.join(BUILD_ROOT, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD_ROOT, "traces", f"{workload}-seed{seed}.json")
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ledger_bench did not finish within {RUN_TIMEOUT_S} s", 5)
    lines = proc.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"ledger_bench exited {proc.returncode} without a result", proc.returncode or 5)
    check_result(lines[-1], trace)
    if trace_path:
        check_trace(trace_path)
    return proc.stdout, proc.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    os.makedirs(os.path.join(BUILD_ROOT, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))

    if args.test:
        build(env, ["ledger_tests"])
        sys.exit(subprocess.run([os.path.join(BUILD, "ledger_tests")], cwd=ROOT, env=env).returncode)

    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    build(env, ["ledger_bench"])

    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]] + UNGATED_WORKLOADS
    else:
        workloads = [args.workload]
    code = 0
    for workload in workloads:
        out, rc = run_one(env, workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        sys.stdout.flush()
        code = code or rc
    sys.exit(code)


if __name__ == "__main__":
    main()
