#!/usr/bin/env python3
"""Build and run the cdcs benchmark.

Run from the repository root:

    python3 cdcsbench/run.py --workload wan_cold --seed 1 --seconds 22 --trace 0
    python3 cdcsbench/run.py --selftest

The library (src/) and the benchmark are compiled in Release mode under
.bench_build/cdcsbench (or $CARGO_TARGET_DIR/cdcsbench when that is set).
Build output goes to standard error; the benchmark's report goes to standard
output, whose last line is the JSON result. Traced runs write their spans to
the build directory's traces/ folder.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("wan_cold", "noc_cold", "wan_edits", "geo_wan_1k")


def build(build_dir: Path) -> None:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ]
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"cdcsbench: build step failed: {' '.join(cmd)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="build and run the self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "cdcsbench"
    build(build_dir)

    if args.selftest:
        return subprocess.run([str(build_dir / "cdcsbench_selftest")]).returncode
    cmd = [
        str(build_dir / "cdcsbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(build_dir / "traces"),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
