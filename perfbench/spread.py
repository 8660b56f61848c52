#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and agreement of
repeated sets of runs.

    python3 perfbench/spread.py --workloads live --seeds 1-10
    python3 perfbench/spread.py --workloads profile,analyze,live \\
        --seeds 1-10 --sets 2

Runs perfbench/run.py once per seed and workload (untraced,
run_seconds from BENCHMARK.json), the workloads interleaved seed by
seed, and the whole series --sets times in a row. Prints, per set,
workload and end-to-end metric, the median, the quartiles and the
spread: (Q3 - Q1) / median, with the quartiles as
statistics.quantiles(values, n=4) gives them. A metric whose spread
is not below a third of its bound is flagged. With two or more sets
it also prints how much worse each later set's median is than the
first set's, as a share of the first, and flags a shift over the
bound. Raw results are appended as JSON lines to
.bench_build/spread.jsonl.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            first, last = part.split("-")
            seeds.extend(range(int(first), int(last) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(spec, workload, seed):
    """One untraced run: (result, printed p99) or None on failure."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {run.returncode}",
              file=sys.stderr)
        return None
    printed = re.search(r"p99 over all ([0-9.eE+-]+) ms", run.stdout)
    return json.loads(lines[-1]), float(printed.group(1)) if printed else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    # values[set][workload][metric] = one value per seed. The p99
    # latency is printed, not a metric; its spread is shown for
    # comparison with latency_ms_p90.
    values = [{w: {name: [] for name in [*metrics, "(latency p99)"]}
               for w in workloads} for _ in range(args.sets)]
    log = ROOT / ".bench_build" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    failed = False
    for index, series in enumerate(values):
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                outcome = run_once(spec, workload, seed)
                if outcome is None:
                    failed = True
                    continue
                result, p99 = outcome
                with log.open("a") as out:
                    out.write(json.dumps({"set": index + 1,
                                          "workload": workload,
                                          "seed": seed, **result}) + "\n")
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: {result['failed']} "
                          "failed", file=sys.stderr)
                    failed = True
                for name in metrics:
                    series[workload][name].append(
                        result["metrics"][name]["value"])
                if p99 is not None:
                    series[workload]["(latency p99)"].append(p99)
                print(f"set {index + 1} {workload} seed {seed}: " + " ".join(
                    f"{name}={result['metrics'][name]['value']:.4g}"
                    for name in metrics), flush=True)

    for workload in workloads:
        for name in values[0][workload]:
            bound = metrics[name]["bound"] if name in metrics else None
            medians = []
            for index, series in enumerate(values):
                data = series[workload][name]
                if len(data) < 2:
                    continue
                q1, q2, q3 = statistics.quantiles(data, n=4)
                medians.append(q2)
                spread = (q3 - q1) / q2
                flag = ("" if bound is None or name == "setup_s" or
                        spread < bound / 3 else "  <-- not below bound/3")
                print(f"set {index + 1} {workload:8} {name:16} median "
                      f"{q2:.6g} q1 {q1:.6g} q3 {q3:.6g} spread "
                      f"{spread:.4f} bound {bound}{flag}")
            if name not in metrics or len(medians) < 2:
                continue
            sign = 1 if metrics[name]["better"] == "lower" else -1
            for index, later in enumerate(medians[1:], start=2):
                worse = sign * (later - medians[0]) / medians[0]
                flag = "  <-- over the bound" if worse > bound else ""
                print(f"set {index} vs 1 {workload:8} {name:16} "
                      f"worse by {worse:+.4f} bound {bound}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
