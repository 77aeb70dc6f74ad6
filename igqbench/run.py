#!/usr/bin/env python3
"""Builds and runs the igqbench benchmark from the root of a source checkout.

    python3 igqbench/run.py --workload sub-miss --seed 1 --seconds 8 --trace 0

The first call configures and builds igqbench (and the library from ../src)
in $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Build output goes to stderr. The benchmark's own
output, whose last line is the result JSON, goes to stdout, and its exit code
is passed through: 0 when every answer checked out, non-zero otherwise
(including when the build fails, in which case no result is printed).
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175


def build(build_dir: Path) -> Path:
    jobs = str(len(os.sched_getaffinity(0)))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "igqbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "igqbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"igqbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", ".bench_out"]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"igqbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
