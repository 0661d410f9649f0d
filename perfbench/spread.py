"""Run-to-run spread of the benchmark: one run per seed, one after another.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 25] [--trace 0]
        [--out FILE]

For each metric of the result lines it prints the median, the quartiles
from `statistics.quantiles(n=4)` and the spread (q3 - q1) / median, and
with `--out` writes the runs and the summary as JSON.  It stops at the
first run that fails or prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds")

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {"unit": first["unit"], **summary(values)}
        m = metrics[name]
        spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
        print(f"{name}: median {m['median']:.6g} {m['unit']}, q1 {m['q1']:.6g}, "
              f"q3 {m['q3']:.6g}, spread {spread}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": float(args.seconds),
                       "trace": int(args.trace), "runs": runs, "metrics": metrics},
                      fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
