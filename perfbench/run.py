#!/usr/bin/env python3
"""Repository benchmark runner.

Builds the benchmark (perfbench/CMakeLists.txt, on top of the repository's
own CMake configuration, Release) from source in the build directory, then
runs one workload per process.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run.  The last line of stdout is the JSON result.
  python3 perfbench/run.py [--seed N] [--seconds S]
      Every workload, untraced then traced, each in its own process, and a
      summary of every end-to-end metric.
  python3 perfbench/run.py --selftest
      The harness's own tests.

The build directory is $CARGO_TARGET_DIR if set, else .bench_build, relative
to the current directory (the repository root).  Build output goes to
stderr, each run's own stderr to <build>/logs/, traced runs' spans to
<build>/spans/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["prr_sweep", "fault_campaign", "service_stream", "schedule_search"]
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    """Configure once, then build @targets; False on any failure."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json asks for, or None when it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, seed, seconds, trace):
    """Run one workload process; return (exit code, result dict or None)."""
    spans_dir = os.path.join(build_dir(), "spans")
    cmd = [os.path.join(build_dir(), "sramlp_perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl")]
    # The service logs every job at info level; keep that out of this
    # script's output, in a file next to the spans.
    log_dir = os.path.join(build_dir(), "logs")
    os.makedirs(log_dir, exist_ok=True)
    log_path = os.path.join(
        log_dir, f"{workload}-seed{seed}-trace{1 if trace else 0}.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1, None
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-20:]))
        return proc.returncode, None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(stdout)
        print("perfbench: no JSON result line", file=sys.stderr)
        return 1, None
    wanted = expected_metrics(trace)
    if wanted is not None and sorted(result["metrics"]) != sorted(wanted):
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(result['metrics'])} vs {sorted(wanted)}", file=sys.stderr)
        return 1, None
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 1
        return subprocess.run([os.path.join(build_dir(), "perfbench_selftest")]).returncode

    if not build(["sramlp_perfbench"]):
        return 1
    if args.workload:
        code, _ = run_one(args.workload, args.seed, args.seconds, args.trace == 1)
        return code

    summary = []
    for workload in WORKLOADS:
        for trace in (False, True):
            code, result = run_one(workload, args.seed, args.seconds, trace)
            if code != 0:
                return code
            summary.append((workload, trace, result))
    print("\nsummary (seed %d, %g s per run):" % (args.seed, args.seconds))
    for workload, trace, result in summary:
        print(f"  {workload} {'traced' if trace else 'untraced'}: correct="
              f"{result['correct']} failed {result['failed']} of {result['attempted']}")
        for name, m in result["metrics"].items():
            print(f"    {name:34s} {m['value']:.6g} {m['unit']}")
    return 0 if all(r["correct"] for _, _, r in summary) else 1


if __name__ == "__main__":
    sys.exit(main())
