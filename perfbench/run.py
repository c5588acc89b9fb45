#!/usr/bin/env python3
"""Builds and runs the nwdec benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig78_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
perfbench CMake package (the nwdec library, nwdec_service and the load
generator) into .bench_build, or into $CARGO_TARGET_DIR when that is set;
later runs only rebuild what changed. Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, targets):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", *targets,
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["fig78_cold", "warm_http", "durable_ingest"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--corrupt-payload", action="store_true",
                        help="flip one digit of one received payload before "
                             "the check (the run must then fail)")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    os.chdir(ROOT)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    targets = ["nwdec_perfbench", "nwdec_service"]
    if args.self_test:
        targets.append("perfbench_selftest")
    try:
        build(build_dir, targets)
    except (subprocess.CalledProcessError, OSError) as failure:
        print(f"perfbench: build failed: {failure}", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run(["ctest", "--test-dir", build_dir,
                               "--output-on-failure"]).returncode

    command = [os.path.join(build_dir, "nwdec_perfbench"),
               "--daemon", os.path.join(build_dir, "nwdec", "nwdec_service"),
               "--workdir", os.path.join(ROOT, ".bench_run"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.corrupt_payload:
        command.append("--corrupt-payload")
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
