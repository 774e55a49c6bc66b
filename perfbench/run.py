#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload write-h --seed 1 --seconds 10 --trace 0

Each call configures and builds perfbench/CMakeLists.txt (the FIDR
libraries plus the fidr_perfbench binary) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that is unset.  The first call compiles
everything; later calls rebuild incrementally in a second or two.
Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result.  The exit code is the benchmark binary's: 0
when every output checked correct, nonzero otherwise or when the build
fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("write-h", "write-l", "mixed-zipf-gc")


def git_sha(root):
    # Only the checkout's own repository: git would otherwise report the
    # HEAD of any repository that happens to enclose a plain checkout.
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configures and builds the benchmark binary; returns its path, or
    None on error."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "fidr_perfbench",
              "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return None
    return os.path.join(build_dir, "fidr_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    root = os.path.dirname(HERE)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    binary = build(os.path.join(target, "perfbench"))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    sys.stdout.flush()
    done = subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", repr(args.seconds),
                           "--trace", str(args.trace),
                           "--git-sha", git_sha(root)])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
