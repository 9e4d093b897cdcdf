#!/usr/bin/env python3
"""Build and run the libscript benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds a RelWithDebInfo tree (the repository's
default build type) of libscript plus the benchmark under
.bench_build/perfbench (later calls rebuild incrementally).
The benchmark's stdout is passed through; its last line is the result
object {"correct", "attempted", "failed", "metrics"}. Build or run
failures exit non-zero without printing a result.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("rendezvous_anon", "lockdb_wire")


BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def git_commit():
    """Commit id from .git in the checkout, without leaving it."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def run_logged(cmd, log, timeout):
    """Run a build step; on timeout stop its whole process group."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT, start_new_session=True)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise


def build(target):
    bdir = BUILD_DIR
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            rc = run_logged(["cmake", "-S", HERE, "-B", bdir,
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                            log, BUILD_TIMEOUT_S)
            if rc != 0:
                return None, log
        rc = run_logged(["cmake", "--build", bdir, "--target", target,
                         "-j4"], log, BUILD_TIMEOUT_S)
    return (os.path.join(bdir, target) if rc == 0 else None), log


def fail(msg, log=None):
    sys.stderr.write("perfbench: " + msg + "\n")
    if log and os.path.exists(log):
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    target = "perfbench_selftest" if args.self_test else "perfbench"
    try:
        exe, log = build(target)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if exe is None:
        fail("build failed", log)

    if args.self_test:
        sys.exit(subprocess.run([exe], cwd=ROOT).returncode)

    out_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        fail("benchmark printed no result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
