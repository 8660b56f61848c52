#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. A tiny run of each workload, untraced and traced, prints every
   metric BENCHMARK.json names for that mode, each with its unit,
   and no failure; the traced run's span file is valid JSON.
2. A trace with one flipped byte, fed to `analyze` and to `live`,
   makes the run report failures (error_rate > 0) instead of being
   skipped silently.
3. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace),
               *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def main():
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            before = len(problems)
            code, result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}, no result")
                continue
            if set(result) != {"correct", "attempted", "failed",
                               "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {sorted(got.items())} "
                                f"!= {sorted(want.items())}")
            if trace:
                spans = ROOT / ".bench_build" / f"spans-{workload}.json"
                try:
                    json.loads(spans.read_text())
                except (OSError, json.JSONDecodeError) as error:
                    problems.append(f"{where}: span file: {error}")
            print(f"{where}: {'ok' if len(problems) == before else 'FAIL'}",
                  flush=True)

    for workload in ("analyze", "live"):
        code, result = run(workload, 0, "--corrupt")
        if code != 0 or result is None:
            problems.append(f"{workload} --corrupt: exit {code}")
        elif result["failed"] == 0 or result["correct"]:
            problems.append(f"{workload} --corrupt: flipped byte not "
                            f"reported ({result['failed']} failed)")
        else:
            print(f"{workload} --corrupt: {result['failed']} of "
                  f"{result['attempted']} failed, as expected", flush=True)

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run("profile", 0, cwd=bare)
    if code == 0 or result is not None:
        problems.append(f"bare directory: exit {code}, result {result}")
    else:
        print(f"bare directory: exit {code}, no result, as expected")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
