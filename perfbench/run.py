#!/usr/bin/env python3
"""Builds the end-to-end benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload <service|catalog|outage|continental> \
        --seed <n> --seconds <s> --trace <0|1>

The build lands in $CARGO_TARGET_DIR (default .bench_build) under the
checkout root and is incremental, so only the first run pays for it. Build
output goes to stderr; stdout carries only the benchmark's own output,
whose last line is the JSON result. Exits non-zero, printing no result,
when the build fails (for instance when the repository's sources are not
next to this directory).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    out_dir = build_dir()
    build(out_dir)
    result = subprocess.run([os.path.join(out_dir, "perfbench")] + sys.argv[1:])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
