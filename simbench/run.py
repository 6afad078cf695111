#!/usr/bin/env python3
"""Builds and runs the simulator's host-cost benchmark (see README.md).

From the repository root:

  python3 simbench/run.py --workload dapp-flood --seed 1 --seconds 30 --trace 0
      One measured run. The last stdout line is the result JSON.
  python3 simbench/run.py --all [--seed 1] [--seconds 30]
      Every workload at the seed, again at the same seed in a new process
      (digests and exact counts must match), and at SECOND_SEED; then the
      list of per-layer counts that read 0 on every workload.
  python3 simbench/run.py --self-check
      Every workload at a tiny length; fails when a metric BENCHMARK.json
      names is missing, has no unit, or is not a finite number.

--seconds defaults to BENCHMARK.json's run_seconds.

The benchmark is compiled from ../src with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the repository root; spans and full results go
to <build>/simbench/out.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dapp-flood", "vote-plane", "faults-retry"]
# The other seed --all runs every workload at, so that a claim can be
# re-checked on a seed not used while writing it.
SECOND_SEED = 2
# A stuck build or run is killed rather than left hanging. A measured run takes
# about --seconds plus one traced pass.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"simbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "simbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def stop(proc):
    """Kills proc and every process it started, then waits for proc."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_checked(cmd, timeout):
    """Runs cmd with its stdout on our stderr; returns its exit code."""
    with subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          start_new_session=True) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            stop(proc)
            fail(f"timed out: {' '.join(cmd)}")
        except BaseException:
            stop(proc)
            raise


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run_checked(["cmake", "-S", HERE, "-B", out], BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    if run_checked(["cmake", "--build", out, "-j", jobs, "--target", "simbench"],
                   BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    os.makedirs(os.path.join(out, "out"), exist_ok=True)
    return os.path.join(out, "simbench")


def run_bench(binary, workload, seed, seconds, trace, tiny=False, echo=True):
    """Runs one workload; returns (exit code, stdout lines, full results)."""
    out_dir = os.path.join(build_dir(), "out")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out", out_dir]
    if tiny:
        cmd.append("--tiny")
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stop(proc)
            fail(f"timed out: {' '.join(cmd)}")
        except BaseException:
            stop(proc)
            raise
    if echo:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    results = None
    path = os.path.join(out_dir, f"{workload}-seed{seed}.results.json")
    if proc.returncode in (0, 1) and os.path.isfile(path):
        with open(path) as f:
            results = json.load(f)
    return proc.returncode, stdout.splitlines(), results


def exact_counts(results):
    return {name: m["value"] for name, m in results["metrics"].items() if m["exact"]}


def digests(results):
    return [(c["label"], c["digest"]) for c in results["cells"]]


def run_all(binary, seed, seconds):
    ok = True
    first_results = {}
    for workload in WORKLOADS:
        print(f"\n==== {workload} seed {seed}")
        code, _, results = run_bench(binary, workload, seed, seconds, 1)
        print(f"\n==== {workload} seed {seed}, second process")
        code2, _, again = run_bench(binary, workload, seed, seconds, 1)
        print(f"\n==== {workload} seed {SECOND_SEED}")
        code3, _, other = run_bench(binary, workload, SECOND_SEED, seconds, 1)
        if None in (results, again, other) or code or code2 or code3:
            print(f"FAIL {workload}: a run failed (exit {code}, {code2}, {code3})")
            ok = False
            continue
        if digests(results) != digests(again) or exact_counts(results) != exact_counts(again):
            print(f"FAIL {workload}: same-seed runs differ in digests or exact counts")
            ok = False
        first_results[workload] = results
        for s, r in ((seed, results), (SECOND_SEED, other)):
            rate = r["metrics"]["cell_error_rate"]["value"]
            print(f"{workload} seed {s}: cell_error_rate {rate}")
            ok = ok and rate == 0
    print("\n==== end-to-end summary (seed %d)" % seed)
    for workload, results in first_results.items():
        row = [f"{name} {m['value']:.6g} {m['unit']}"
               for name, m in results["metrics"].items() if m["kind"] == "end_to_end"]
        print(f"{workload:13s} " + "  ".join(row))
    if len(first_results) == len(WORKLOADS):
        names = list(next(iter(first_results.values()))["metrics"])
        zero = [name for name in names
                if all(r["metrics"][name]["exact"] and r["metrics"][name]["unit"] == "count"
                       and r["metrics"][name]["value"] == 0
                       for r in first_results.values())]
        print("counts that read 0 on every workload: " + (" ".join(zero) or "none"))
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def self_check(binary, spec):
    named = {"end_to_end": [m["name"] for m in spec["end_to_end"]],
             "per_layer": [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, results = run_bench(binary, workload, 1, 0.1, trace, tiny=True,
                                             echo=False)
            where = f"{workload} --trace {trace}"
            if code != 0 or results is None or not lines:
                problems.append(f"{where}: exit {code}")
                continue
            line = json.loads(lines[-1])
            if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(line)}")
            if not line.get("correct"):
                problems.append(f"{where}: not correct")
            for name in named[kind]:
                metric = line.get("metrics", {}).get(name)
                if metric is None:
                    problems.append(f"{where}: {name} missing")
                elif not metric.get("unit"):
                    problems.append(f"{where}: {name} has no unit")
                elif not isinstance(metric.get("value"), (int, float)) or \
                        not math.isfinite(metric["value"]):
                    problems.append(f"{where}: {name} is {metric.get('value')}")
            extra = set(line.get("metrics", {})) - set(named[kind])
            if extra:
                problems.append(f"{where}: unnamed metrics {sorted(extra)}")
            if "cell_error_rate" not in results["metrics"]:
                problems.append(f"{where}: cell_error_rate missing")
        print(f"self-check {workload}: done")
    for problem in problems:
        print("FAIL " + problem)
    print("self-check passed" if not problems else "self-check FAILED")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    # Being terminated unwinds like an exception, which stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (args.all or args.self_check or args.workload):
        parser.error("give --workload, --all or --self-check")

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    binary = build()
    if args.self_check:
        return self_check(binary, spec)
    if args.all:
        return run_all(binary, args.seed, seconds)
    code, _, _ = run_bench(binary, args.workload, args.seed, seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
