#!/usr/bin/env python3
"""Run every workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 --out spread.json
    python3 perfbench/spread.py --seeds 5 --workloads ring --first-seed 100

Runs run.py once per (workload, seed), one at a time, with BENCHMARK.json's
run_seconds.  For each end-to-end metric it prints the median, the quartiles
from statistics.quantiles(values, n=4), and the spread (Q3 - Q1) / median
next to the metric's bound.  This is how BASELINE.json's end-to-end figures
were made.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    report = {}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 check=True, timeout=600).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} checks failed", file=sys.stderr)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        report[name] = {k: summarize(v) for k, v in values.items()}
        for k, s in report[name].items():
            mark = "ok" if s["spread"] < bounds[k] / 3 else "above a third of the bound"
            print(f"{name:9s} {k:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}  bound {bounds[k]}  {mark}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
