#!/usr/bin/env python3
"""Builds and runs the layered end-to-end benchmark.

    python3 perfbench/run.py --workload <synth-cold|explore|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark package is built from
source with cargo (offline) into $CARGO_TARGET_DIR, `.bench_build` by
default. An untraced run starts the workload in PROCESSES processes of
its own, one after the other, each measuring its own part of the seed's
inputs for a share of --seconds, and reports each metric as the median
over them: a process that lands on a busy stretch of the host, or on
unusually hard inputs, moves one of three values, not the result. A
traced run is one process (part 0). Standard output starts with a
`# host` line (the run's host fingerprint), then the workload's report
lines, and ends with one JSON object: `correct`, `attempted`, `failed`,
`metrics`. Exits non-zero, without that object, when the build, a run
or its result fails.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synth-cold", "explore", "serve-mix")
# Workload processes of an untraced run.
PROCESSES = 3
# A run must end within 180 s; leave room for the processes to wind down.
RUN_TIMEOUT_S = 170


def read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def command_output(args):
    try:
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cgroup_quota():
    """The cgroup CPU quota in CPUs, or "max" when unlimited."""
    v2 = read("/sys/fs/cgroup/cpu.max")
    if v2:
        quota, period = (v2.split() + ["100000"])[:2]
        return "max" if quota == "max" else round(int(quota) / int(period), 3)
    quota = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota and period and int(quota) > 0:
        return round(int(quota) / int(period), 3)
    return "max"


def host_fingerprint():
    cpuinfo = read("/proc/cpuinfo") or ""
    model = next(
        (l.split(":", 1)[1].strip() for l in cpuinfo.splitlines() if l.startswith("model name")),
        platform.processor() or "unknown",
    )
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = command_output(["git", "rev-parse", "HEAD"])
    return {
        "cpu_model": model,
        "nproc": nproc,
        "cgroup_cpu_quota": cgroup_quota(),
        "rustc": command_output(["rustc", "--version"]),
        "git_sha": sha,
        "PCHLS_THREADS": os.environ.get("PCHLS_THREADS"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    host = host_fingerprint()
    print("# host " + json.dumps(host, sort_keys=True), flush=True)
    if host["PCHLS_THREADS"] is not None:
        print("perfbench: PCHLS_THREADS must be unset: users get the default thread count",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    binary = os.path.join(ROOT, target, "release", "perfbench")

    scratch = os.path.join(ROOT, ".bench_build", "perfbench-run")
    os.makedirs(scratch, exist_ok=True)
    processes = PROCESSES if args.trace == "0" else 1
    results = []
    started = time.monotonic()
    for k in range(processes):
        tmp = os.path.join(scratch, "%s-%d-%d" % (args.workload, os.getpid(), k))
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / processes), "--trace", args.trace, "--tmp", tmp,
               "--part", str(k)]
        if args.trace == "1":
            cmd += ["--trace-out", os.path.join(scratch, "%s-seed%d.trace.json"
                                                % (args.workload, args.seed))]
        print("# process %d of %d" % (k + 1, processes), flush=True)
        try:
            run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                                 timeout=max(1.0, RUN_TIMEOUT_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            print("perfbench: the run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        lines = run.stdout.splitlines()
        try:
            result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
        except (ValueError, TypeError, AssertionError):
            sys.stdout.write(run.stdout)
            print("perfbench: the run failed (exit %d) or printed no result" % run.returncode,
                  file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        results.append(result)
    metrics = {
        name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
               "unit": m["unit"]}
        for name, m in results[0]["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
