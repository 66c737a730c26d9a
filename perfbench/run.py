#!/usr/bin/env python3
"""Build and run the Helix repository benchmark.

    python3 perfbench/run.py --workload paper-single24 --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. The script configures and builds
perfbench/CMakeLists.txt (which builds libhelix from the checkout's
sources) into .bench_build/perfbench, then runs the driver. Build logs
go to stderr; the driver's last stdout line is the JSON result. Exits
non-zero without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper-single24", "geo-1k", "churn-tenants")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))

    steps = [["cmake", "-S", bench_dir, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir,
              "--target", "perfbench_driver", "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=root).returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return 2

    driver = os.path.join(build_dir, "perfbench_driver")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bench-dir", bench_dir,
           "--out-dir", os.path.join(root, ".bench_build", "out")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
