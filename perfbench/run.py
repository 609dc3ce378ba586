#!/usr/bin/env python3
"""Builds and runs the Azul service benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

The first form builds `perfbench/` (a Cargo package of its own that
depends on the repository's crates by path) and runs one workload; the
last line of its standard output is the result JSON. The second form runs
every workload untraced and traced, prints every metric by name and unit
plus the tracing overhead, and exits non-zero if any run failed, gave a
wrong answer or saw a counter mismatch. Run it from the repository root.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["cold_table4", "warm_busy16", "warm_paper4k"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds the benchmark binary and returns its path, or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(os.path.abspath(target), "release", "azul-perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def run_all(binary, seed, seconds):
    ok = True
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            code, result = run_one(binary, workload, seed, seconds, trace)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} --trace {trace}: FAILED (exit {code})")
                ok = False
            results[trace] = result
        for trace in (0, 1):
            result = results[trace]
            if result is None:
                continue
            print(f"{workload} --trace {trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            for name, m in result["metrics"].items():
                print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
        if results[0] and results[1]:
            traced = results[1]["metrics"]["serve.latency_p50_s"]["value"]
            untraced = results[0]["metrics"]["latency_p50_s"]["value"]
            print(f"  {'tracing overhead (p50)':<30} {traced - untraced:>16.6g} s")
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    os.chdir(ROOT)
    binary = build()
    if binary is None:
        print("error: the benchmark did not build", file=sys.stderr)
        return 1
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--workload") == "all":
        return run_all(binary, int(opts.get("--seed", 1)), opts.get("--seconds", "10"))
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
