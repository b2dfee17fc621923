#!/usr/bin/env python3
"""Builds the MVDB benchmark from source and runs one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload inline_server --seed 1 --seconds 45 --trace 0
  python3 perfbench/run.py --self-test

mvdb_perfbench is compiled into .bench_build/perfbench (configured once,
then rebuilt incrementally). Build output goes to stderr, so the last line
of stdout is its JSON result. The exit code is its own.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "mvdb_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        sys.stderr.write("perfbench: no program sources next to perfbench/\n")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "mvdb_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
