#!/usr/bin/env python3
"""Run one cablejones benchmark workload and print its metrics.

    python3 perfbench/run.py --workload iterated --seed 1 --seconds 36 --trace 0

Workloads: iterated, decay, ring (see README.md in this directory).
The package is imported from ``src/`` of the checkout this file sits in.

With ``--trace 0`` the run measures set-up time in fresh processes, then
repeats passes over the workload for about ``--seconds`` and reports
end-to-end metrics.  With ``--trace 1`` it spends half the time on untraced passes and
half on traced ones, and reports the per-layer metrics of the traced passes
plus the tracing overhead.  Every row or case is checked in both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` uses tiny
sizes and one set-up repeat, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import cablejones; cablejones.parse(sys.argv[2])")

END_TO_END_UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "case_p50_us": "us",
    "case_p99_us": "us",
}


def load_package():
    """Import cablejones from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import cablejones
    except ImportError as exc:
        raise SystemExit(f"cannot import cablejones from {SRC}: {exc}")
    if Path(cablejones.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"cablejones was imported from {cablejones.__file__}, "
                         f"not from {SRC}")


def measure_setup(text: str, repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports and parses."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), text],
                       check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def repeat_passes(run_pass, seconds: float, tally, make_tracer, traced):
    """Run passes for about `seconds` (at least one).

    A pass starts only if one more pass as long as the median so far still
    ends within `seconds`, so a run never overshoots by a whole pass.
    Returns the pass wall times, their tracers, and the process's RSS
    high-water mark in KB after the first pass, which unlike the final one
    does not depend on how many passes fit.
    """
    walls, tracers = [], []
    start_all = time.perf_counter()
    while not walls or (time.perf_counter() - start_all
                        + statistics.median(walls) <= seconds):
        tracer = make_tracer()
        with traced(tracer):
            start = time.perf_counter()
            run_pass(tally, tracer)
            walls.append(time.perf_counter() - start)
        tracers.append(tracer)
        if len(walls) == 1:
            first_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return walls, tracers, first_peak_kb


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, reference: dict | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import tracing  # these import cablejones, so only after load_package()
    import workloads

    if reference is None:
        reference = workloads.load_reference()
    tally = workloads.Tally()
    if not trace:
        setup_s = measure_setup(workloads.setup_expression(name),
                                1 if smoke else SETUP_REPEATS)
        run_pass = workloads.make_pass(name, seed, smoke, reference,
                                       tracing.NullTracer())
        walls, _, peak_kb = repeat_passes(run_pass, seconds, tally,
                                          tracing.NullTracer, nullcontext)
        passes = f"{len(walls)} passes"
        values = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_kb / 1024,
            "setup_s": setup_s,
            "case_p50_us": percentile(tally.case_s, 50) * 1e6,
            "case_p99_us": percentile(tally.case_s, 99) * 1e6,
        }
        units = END_TO_END_UNITS
    else:
        input_tracer = tracing.Tracer()
        run_pass = workloads.make_pass(name, seed, smoke, reference, input_tracer)
        plain, _, _ = repeat_passes(run_pass, seconds / 2, tally,
                                    tracing.NullTracer, nullcontext)
        walls, tracers, _ = repeat_passes(run_pass, seconds / 2, tally,
                                          tracing.Tracer, tracing.traced)
        per_pass = [t.layer_metrics() for t in tracers]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["linkexpr.parse_s"] = input_tracer.layer_metrics()["linkexpr.parse_s"]
        values["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain)
        for hook in tracers[0].absent:
            print(f"absent hook: {hook}")
        units = {k: ("s" if k.endswith(("_s", ".s")) else "count") for k in values}
        passes = f"{len(plain)} untraced and {len(walls)} traced passes"
    for k, v in values.items():
        print(f"{name} {k} = {v:.6g} {units[k]}")
    error_rate = tally.failed / tally.attempted
    print(f"{name} error_rate = {error_rate:.6g} ({tally.failed}/{tally.attempted}), "
          f"{passes}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="iterated, decay or ring")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes and one set-up repeat")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    load_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
