"""Run one workload over several seeds and report each metric's spread.

Usage:
    python3 perfbench/spread.py --workload NAME --seeds 501-510 [--seconds S]
                                [--record SET]

Runs ``run.py`` once per seed, one run after another, and prints for every
end-to-end metric the median, the quartiles and the spread (q3 - q1) /
median of the run values, the quantity the bounds of BENCHMARK.json are
judged against.  ``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.
``--record SET`` stores the summary as ``end_to_end[workload][SET]`` in
``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spread of a workload's metrics over seeds")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list, help="FIRST-LAST")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--record", metavar="SET")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]

    results, elapsed = [], []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        elapsed.append(time.perf_counter() - t0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode}, {elapsed[-1]:.1f} s, "
              + json.dumps({k: round(v["value"], 4) for k, v in result["metrics"].items()}),
              flush=True)
        results.append(result)

    record = {"seeds": args.seeds, "seconds": seconds,
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "correct": all(r["correct"] for r in results),
              "run_elapsed_s_max": max(elapsed)}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        record[name] = dict(unit=metric["unit"], bound=metric["bound"],
                            **summary([r["metrics"][name]["value"] for r in results]))
        print(f"{name}: median {record[name]['median']:.6g} {metric['unit']}, "
              f"spread {record[name]['spread']:.3f} (bound {metric['bound']})")
    if args.record:
        with open(BASELINE) as fh:
            baseline = json.load(fh)
        baseline["end_to_end"].setdefault(args.workload, {})[args.record] = record
        with open(BASELINE, "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
