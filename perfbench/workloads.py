"""The benchmark's workloads: inputs made from a seed, one timed pass, checks.

Growth workloads call ``growth_table`` one row at a time and compare each row
with ``reference.json``.  The seed picks, per growth input, an outer framing
twist and whether to mirror, so a row is checked through its invariants:
``abs_eval`` and ``maxabscoeff`` are unchanged and the degree range moves by
the framing shift (and is negated under the mirror).

The ``ring`` workload is a seeded stream of ring and evaluation property
cases in the style of acceptance criterion 8; each case checks itself.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from cablejones import (
    LaurentPoly,
    RootOfUnityPoint,
    growth_table,
    mirror_expr,
    parse,
)

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# name -> [(expression, colors N)]; each (expression, N) is one growth row.
# Each workload has an odd number of rows, and its middle row by cost is at
# least twice as fast or slow as its neighbours, so the median row time
# stays on one row instead of mixing two.
GROWTH = {
    "iterated": [("cable(2,13;1;cable(2,3;1;unknot))", (16, 32, 48))],
    "decay": [("cable(2,3;1;unknot)", (128, 256, 512)),
              ("cable(2,4;1;unknot)", (256, 512)),
              ("connsum(cable(2,3;1;unknot),1;cable(2,5;1;unknot),1)", (32, 64))],
}
SMOKE_NS = (4, 8)

# 1050 cases hold 27 sparse ones, so the ring p99 falls in the middle of the
# 11th slowest sparse case's timings, not on the edge between two spans.
RING_CASES = 1050
SMOKE_RING_CASES = 40
SPARSE_EVERY = 40        # one case in 40 is sparse with a wide span
SPARSE_EXP = 5 * 10 ** 5  # sparse exponents lie in [-SPARSE_EXP, SPARSE_EXP]
SPARSE_MIN_SPAN = 10 ** 3
SPARSE_TERMS = 5
EVAL_TOL = 1e-9

WORKLOADS = (*GROWTH, "ring")


@dataclass
class Tally:
    """Checked cases of one run: how many were tried, failed, and their times."""

    attempted: int = 0
    failed: int = 0
    case_s: list[float] = field(default_factory=list)

    def record(self, ok: bool, seconds: float):
        self.attempted += 1
        self.failed += not ok
        self.case_s.append(seconds)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def setup_expression(name: str) -> str:
    """The expression a fresh process parses when set-up time is measured."""
    return GROWTH.get(name, GROWTH["iterated"])[0][0]


# -- growth workloads -------------------------------------------------------

@dataclass(frozen=True)
class GrowthRow:
    text: str       # the untwisted expression the reference is keyed by
    expr: object    # the expression actually computed
    n: int
    twist: int
    mirrored: bool


def growth_inputs(name: str, seed: int, smoke: bool, tracer) -> list[GrowthRow]:
    rng = random.Random(seed)
    rows = []
    for text, ns in GROWTH[name]:
        twist = rng.randint(-3, 3)
        mirrored = rng.random() < 0.5
        expr = tracer.call("linkexpr.parse", parse, f"twist({twist};1;{text})")
        if mirrored:
            expr = mirror_expr(expr)
        rows += [GrowthRow(text, expr, n, twist, mirrored)
                 for n in (SMOKE_NS if smoke else ns)]
    return rows


def check_row(row: GrowthRow, rec, ref: dict) -> bool:
    """rec is the row's GrowthRecord, ref the pinned untwisted reference."""
    shift = row.twist * (row.n * row.n - 1)
    lo, hi = shift + ref["mindeg"], shift + ref["maxdeg"]
    if row.mirrored:
        lo, hi = -hi, -lo
    return (rec.N == row.n
            and (rec.mindeg, rec.maxdeg) == (lo, hi)
            and rec.maxabscoeff == ref["maxabscoeff"]
            and math.isclose(rec.abs_eval, ref["abs_eval"], rel_tol=EVAL_TOL))


def growth_pass(rows: list[GrowthRow], reference: dict, tally: Tally, tracer):
    for row in rows:
        start = time.perf_counter()
        try:
            [rec] = tracer.call("asympt.row", growth_table, row.expr, [row.n])
            ok = check_row(row, rec, reference[row.text][str(row.n)])
        except Exception as exc:  # a failing row is counted; the run goes on
            print(f"row {row.text} N={row.n} raised {exc!r}", file=sys.stderr)
            ok = False
        tally.record(ok, time.perf_counter() - start)


# -- ring workload ----------------------------------------------------------

@dataclass(frozen=True)
class RingCase:
    """Two polynomials as (exponent, coefficient) terms, and the point N.

    The polynomials are built inside the timed case, as acceptance
    criterion 8 builds fresh ones, so no cached array outlives a case.
    """

    a_terms: tuple
    b_terms: tuple
    n: int
    sparse: bool


def _small_terms(rng: random.Random, nonzero: bool) -> tuple:
    p = LaurentPoly.from_terms((rng.randint(-25, 25), rng.randint(-50, 50))
                               for _ in range(rng.randint(0, 7)))
    if nonzero and p.is_zero():
        p = LaurentPoly.monomial(rng.randint(1, 50), rng.randint(-25, 25))
    return tuple(p.support())


def _sparse_terms(rng: random.Random, span: int) -> tuple:
    """SPARSE_TERMS terms with distinct exponents spanning exactly `span`."""
    lo = rng.randint(-SPARSE_EXP, SPARSE_EXP - span)
    inner = rng.sample(range(lo + 1, lo + span), min(SPARSE_TERMS - 2, span - 1))
    return tuple((e, rng.choice((-1, 1)) * rng.randint(1, 10 ** 6))
                 for e in sorted((lo, *inner, lo + span)))


def _sparse_spans(rng: random.Random, count: int) -> list[int]:
    # A fixed log-spaced grid of widths from SPARSE_MIN_SPAN to 2*SPARSE_EXP,
    # in seeded order: every seed covers the same widths, so the sparse
    # cases of any seed cost about the same in total and at each percentile.
    ratio = 2 * SPARSE_EXP / SPARSE_MIN_SPAN
    spans = [int(SPARSE_MIN_SPAN * ratio ** ((j + 0.5) / count)) for j in range(count)]
    rng.shuffle(spans)
    return spans


def ring_inputs(seed: int, smoke: bool) -> list[RingCase]:
    rng = random.Random(seed)
    count = SMOKE_RING_CASES if smoke else RING_CASES
    spans = iter(_sparse_spans(rng, -(-count // SPARSE_EVERY)))
    cases = []
    for k in range(count):
        sparse = k % SPARSE_EVERY == 0
        if sparse:
            span = next(spans)
            a, b = _sparse_terms(rng, span), _sparse_terms(rng, span)
        else:
            a, b = _small_terms(rng, False), _small_terms(rng, True)
        cases.append(RingCase(a, b, rng.randint(2, 30), sparse))
    return cases


def check_ring_case(c: RingCase) -> bool:
    a, b = LaurentPoly.from_terms(c.a_terms), LaurentPoly.from_terms(c.b_terms)
    pt = RootOfUnityPoint(c.n)
    ab = a * b
    if not c.sparse:
        if ab.exact_divide(b) != a:
            return False
        if ab.derivative() != a.derivative() * b + a * b.derivative():
            return False
    va, vb, vab = a.eval_at_root(pt), b.eval_at_root(pt), ab.eval_at_root(pt)
    if abs(vab - va * vb) >= EVAL_TOL * (1 + abs(va * vb)):
        return False
    am = a.mirror()
    if abs(am.eval_at_root(pt) - va.conjugate()) >= EVAL_TOL * (1 + abs(va)):
        return False
    return am.mirror() == a


def ring_pass(cases: list[RingCase], tally: Tally):
    for c in cases:
        start = time.perf_counter()
        try:
            ok = check_ring_case(c)
        except Exception as exc:  # a failing case is counted; the run goes on
            print(f"ring case raised {exc!r}", file=sys.stderr)
            ok = False
        tally.record(ok, time.perf_counter() - start)


# -- dispatch ---------------------------------------------------------------

def make_pass(name: str, seed: int, smoke: bool, reference: dict, tracer):
    """Build the seeded inputs and return pass(tally, tracer) over them."""
    if name == "ring":
        cases = ring_inputs(seed, smoke)
        return lambda tally, tr: ring_pass(cases, tally)
    rows = growth_inputs(name, seed, smoke, tracer)
    return lambda tally, tr: growth_pass(rows, reference, tally, tr)
