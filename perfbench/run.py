#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <fill|point-read|mixgraph|ds-ycsb> \
        --seed <n> --seconds <s> --trace <0|1>

The engine and the benchmark are compiled with CMake into .bench_build/
at the repository root (configured once, rebuilt incrementally). Build
output goes to stderr, so the last line of stdout is the benchmark's
result object. The exit code is the benchmark's, or 1 if the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; leave the rest for start-up.
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def commit_id():
    """The git commit when run in a clone, else a hash of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY] + sys.argv[1:] + ["--commit", commit_id()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
