#!/usr/bin/env python3
"""Build and run one TPUPoint benchmark workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload profile|analyze|live \
        --seed N --seconds S --trace 0|1

The first run configures and builds the benchmark (perfbench/ is a
CMake package that compiles the repository's libraries from ../src)
into .bench_build/perfbench; later runs only check that the build is
current. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The span trace of a
traced run is kept as .bench_build/spans-<workload>.json.

--corrupt flips one byte of one generated trace; the run must then
report failures (see perfbench/selftest.py).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; compiler output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no TPUPoint sources next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(8, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return BINARY.is_file()


def stop(signum, frame):
    """SIGTERM unwinds through subprocess.run, which kills and reaps
    the child before re-raising."""
    raise SystemExit(1)


def main():
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["profile", "analyze", "live"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1

    work = BUILD_ROOT / "run" / f"{args.workload}-{os.getpid()}"
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work)]
    if args.corrupt:
        command.append("--corrupt")
    code = 1
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        spans = work / f"spans-{args.workload}.json"
        if spans.is_file():
            shutil.copyfile(spans, BUILD_ROOT / spans.name)
        shutil.rmtree(work, ignore_errors=True)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
