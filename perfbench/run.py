#!/usr/bin/env python3
"""Builds and runs the Skip It benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `perfbench` package in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), pins the
benchmark process to one CPU under SCHED_BATCH, runs it, and records the
host manifest beside every result under `perfbench/out/`. The last line of
its standard output is the result as one JSON object; with `--workload all`
it is an object holding one result per workload.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["cbo_flush_8c", "pds_hash_2t", "svc_storm_2t"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# One run must end within this many seconds, or it is stopped and fails.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark; returns the path of its executable."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def source_rev():
    """The git commit, or a digest of the sources when there is no git."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        for path in sorted(walk(os.path.join(ROOT, top))):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def walk(path):
    if os.path.isfile(path):
        yield path
        return
    for d, dirs, files in os.walk(path):
        dirs[:] = [x for x in dirs if x not in ("out", "target")]
        for name in files:
            yield os.path.join(d, name)


def pin():
    """Pins this process, and so the benchmark it starts, to one CPU: the
    highest-numbered one it may use. Thread-mode workloads then hand off
    between host threads on one CPU instead of waking each other across
    CPUs.

    It also moves the process to SCHED_BATCH, which any user may do. A
    thread woken by a hand-off then does not preempt the thread that woke
    it, so hand-offs take the same path through the scheduler. Under the
    default policy some do and some do not: one pds_hash_2t run's block
    times ranged over 2x, against 1.2x under SCHED_BATCH."""
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except OSError as e:
        sys.exit(f"perfbench: cannot set SCHED_BATCH: {e}")
    return {"pinned_cpu": cpu, "allowed_cpus": allowed, "policy": "SCHED_BATCH"}


def manifest(args, placement):
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
    return {
        "nproc": os.cpu_count(),
        "placement": placement,
        "rustc": rustc.stdout.strip(),
        "rev": source_rev(),
        "profile": "release",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(exe, workload, args, host):
    """Runs one workload; prints its report and returns its result object."""
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    try:
        # On timeout, run() kills the benchmark and waits for it to end.
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} exited with code {done.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump({"workload": workload, "manifest": host, "result": result}, f, indent=1)
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    exe = build()
    host = manifest(args, pin())
    print("# manifest " + json.dumps(host, sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: run_one(exe, w, args, host) for w in workloads}
    last = results[args.workload] if args.workload != "all" else results
    print(json.dumps(last), flush=True)


if __name__ == "__main__":
    main()
