#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against the checked-in baseline.

Usage: compare_bench.py CURRENT.json [BASELINE.json]

Prints the host fingerprint (CPU model, num_cpus) of both files, with a
GitHub Actions ::notice:: when they differ, then one line per benchmark with
the slowdown ratio, and emits a ::warning:: annotation for anything past the
regression threshold.
Shared CI runners are far too noisy to gate a build on timings, so the
script NEVER fails the job: it always exits 0 unless the inputs are
unreadable (a crash upstream should already have failed the run step).
"""

import json
import sys

THRESHOLD = 1.5  # warn past a 1.5x slowdown vs the baseline

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# bench_perf adds cpu_model to the JSON context; the library records
# num_cpus.  The baseline keeps the same keys in its "host" block.
HOST_KEYS = ("cpu_model", "num_cpus")


def load(path):
    with open(path) as f:
        return json.load(f)


def host_of(data):
    """Host fingerprint: a baseline's "host" block, else a run's context."""
    block = data.get("host") or data.get("context") or {}
    return {key: str(block.get(key, "unknown")) for key in HOST_KEYS}


def describe(host):
    return ", ".join(f"{key}={host[key]}" for key in HOST_KEYS)


def load_times(data):
    """name -> real_time in ns (aggregate entries like _mean are skipped)."""
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        times[name] = bench["real_time"] * UNIT_NS[bench.get("time_unit", "ns")]
    return times


def main(argv):
    if len(argv) < 2:
        print(f"usage: {argv[0]} CURRENT.json [BASELINE.json]")
        return 2
    current_data = load(argv[1])
    baseline_data = load(argv[2] if len(argv) > 2 else "ci/bench_baseline.json")
    current_host = host_of(current_data)
    baseline_host = host_of(baseline_data)
    print(f"current host:  {describe(current_host)}")
    print(f"baseline host: {describe(baseline_host)}")
    if current_host != baseline_host:
        print("::notice title=different bench host::the baseline was "
              "recorded on another host; the ratios below mix host and code "
              "differences")
    current = load_times(current_data)
    baseline = load_times(baseline_data)

    regressions = []
    for name, base_ns in sorted(baseline.items()):
        if name not in current:
            print(f"::warning::benchmark '{name}' missing from the current run")
            continue
        ratio = current[name] / base_ns
        marker = "  <-- REGRESSION" if ratio > THRESHOLD else ""
        print(f"{name}: {current[name] / 1e6:.2f} ms vs baseline "
              f"{base_ns / 1e6:.2f} ms ({ratio:.2f}x){marker}")
        if ratio > THRESHOLD:
            regressions.append((name, ratio))

    for name, ratio in regressions:
        print(f"::warning title=perf regression::{name} is {ratio:.2f}x the "
              f"checked-in baseline (threshold {THRESHOLD}x); runners are "
              f"noisy — compare the uploaded BENCH_*.json artifacts before "
              f"acting")
    if not regressions:
        print(f"all benchmarks within {THRESHOLD}x of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
