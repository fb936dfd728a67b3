#!/usr/bin/env python3
"""Write reference.json: the growth rows the benchmark checks against.

    python3 perfbench/pin_reference.py

Computes every (expression, N) row of the growth workloads, at their full and
smoke sizes, for the untwisted and unmirrored expression, and records
maxdeg, mindeg, maxabscoeff and abs_eval.  The checked-in file was made from
the package as first committed.  Regenerate it only to add rows; a row whose
pinned value no longer matches is a failure of the program, not of the file.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cablejones import growth_table, parse  # noqa: E402

from workloads import GROWTH, REFERENCE_PATH, SMOKE_NS  # noqa: E402


def main():
    reference = {}
    for inputs in GROWTH.values():
        for text, ns in inputs:
            rows = reference.setdefault(text, {})
            for n in sorted(set(SMOKE_NS) | set(ns)):
                [rec] = growth_table(parse(text), [n])
                rows[str(n)] = {"maxdeg": rec.maxdeg, "mindeg": rec.mindeg,
                                "maxabscoeff": rec.maxabscoeff,
                                "abs_eval": rec.abs_eval, "vc_value": rec.vc_value}
                print(text, n, rows[str(n)], flush=True)
    with open(REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
