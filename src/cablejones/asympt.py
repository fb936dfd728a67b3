"""Root-of-unity evaluation, limits, and volume-conjecture decay tables.

The normalized invariant of a link colored all-N is evaluated at
A0 = exp(i*pi/2N).  When [N]^k divides exactly the quotient polynomial is
evaluated directly; otherwise the ratio is a 0/0 form at A0 and the limit
is taken by l'Hospital, differentiating numerator and denominator together
until the denominator stops vanishing.

The decay diagnostic for a family of colorings is
vc_value = (2 pi / N) * ln |J'_N(A0)|, which tends to zero exactly when
|J'_N| grows subexponentially; growth tables record it per N together
with degree and coefficient statistics of the unnormalized polynomial,
and :func:`moderation_check` tests those statistics for polynomial (not
exponential) growth.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .jones import DeferredRatio, colored_jones, normalized_jones
from .laurent import (
    LaurentPoly,
    NotDivisible,
    RootOfUnityPoint,
    divide_by_quantum_integer,
    quantum_integer,
)
from .linkexpr import LinkExpr, component_count

__all__ = [
    "DepthExceeded",
    "DivergentLimit",
    "GrowthRecord",
    "InsufficientData",
    "ModerationReport",
    "VANISH_TOL",
    "VanishingInvariant",
    "eval_normalized_at_root",
    "growth_table",
    "lhospital_limit",
    "moderation_check",
    "vanishing_order",
]

# A value counts as zero at A0 when it is below VANISH_TOL relative to the
# sum of |coefficients|, the exact bound for |P| on the unit circle.
VANISH_TOL = 1e-8
MAX_LHOSPITAL_DEPTH = 8


class DivergentLimit(ArithmeticError):
    """The numerator vanishes to lower order than the denominator."""


class DepthExceeded(ArithmeticError):
    """The differentiation ladder hit its depth cap while both sides vanish."""


class InsufficientData(ValueError):
    """Too few growth records to fit anything."""


class VanishingInvariant(ArithmeticError):
    """The colored Jones polynomial came out identically zero, so a growth
    record has no degrees, coefficients or decay rate to report."""


def _vanishes(p: LaurentPoly, value: complex, tol: float) -> bool:
    scale = max(1.0, float(p.abs_coeff_sum()))
    return abs(value) <= tol * scale


def lhospital_limit(numerator: LaurentPoly, denominator: LaurentPoly,
                    pt: RootOfUnityPoint, tol: float = VANISH_TOL,
                    max_depth: int = MAX_LHOSPITAL_DEPTH) -> complex:
    """lim_{A -> A0} numerator / denominator by repeated differentiation.

    At each stage where the denominator still vanishes numerically the
    numerator must vanish too (relative to its own coefficient scale);
    otherwise the true limit is infinite and DivergentLimit is raised.
    """
    if denominator.is_zero():
        raise ZeroDivisionError("denominator is identically zero")
    num, den = numerator, denominator
    for _ in range(max_depth + 1):
        dv = den.eval_at_root(pt)
        if not _vanishes(den, dv, tol):
            return num.eval_at_root(pt) / dv
        nv = num.eval_at_root(pt)
        if not _vanishes(num, nv, tol):
            raise DivergentLimit(
                "numerator does not vanish where the denominator does")
        num = num.derivative()
        den = den.derivative()
    raise DepthExceeded(f"no nonvanishing denominator within {max_depth} derivatives")


def vanishing_order(p: LaurentPoly, pt: RootOfUnityPoint,
                    tol: float = VANISH_TOL,
                    max_depth: int = MAX_LHOSPITAL_DEPTH) -> int:
    """Order of the zero of p at A0: derivatives taken until one survives."""
    if p.is_zero():
        raise ValueError("the zero polynomial vanishes to every order")
    cur = p
    for k in range(max_depth + 1):
        if not _vanishes(cur, cur.eval_at_root(pt), tol):
            return k
        cur = cur.derivative()
    raise DepthExceeded(f"still vanishing after {max_depth} derivatives")


def eval_normalized_at_root(e: LinkExpr, n: int, split_mult: int = 1,
                            memo: dict | None = None) -> complex:
    """Value of J(e) / [n]^split_mult at A0(n), all components colored n."""
    colors = (n,) * component_count(e)
    pt = RootOfUnityPoint(n)
    result = normalized_jones(e, colors, split_mult, memo)
    if isinstance(result, DeferredRatio):
        return lhospital_limit(result.numerator,
                               quantum_integer(result.color) ** result.power, pt)
    return result.eval_at_root(pt)


@dataclass(frozen=True)
class GrowthRecord:
    """Per-color statistics of the unnormalized polynomial and its value.

    maxdeg, mindeg and maxabscoeff describe J itself; abs_eval is
    |J / [N]^split_mult| at A0(N) and vc_value = (2 pi / N) ln(abs_eval),
    or None when the value is exactly zero.
    """

    N: int
    maxdeg: int
    mindeg: int
    maxabscoeff: int
    abs_eval: float
    vc_value: float | None


def _normalized_value(J: LaurentPoly, n: int, split_mult: int,
                      pt: RootOfUnityPoint) -> complex:
    # Exact division first; only an inexact stage falls back to the limit.
    quotient = J
    for k in range(split_mult):
        try:
            quotient = divide_by_quantum_integer(quotient, n)
        except NotDivisible:
            return lhospital_limit(
                quotient, quantum_integer(n) ** (split_mult - k), pt)
    return quotient.eval_at_root(pt)


def _growth_record(e: LinkExpr, n: int, split_mult: int) -> GrowthRecord:
    colors = (n,) * component_count(e)
    J = colored_jones(e, colors, {})
    if J.is_zero():
        raise VanishingInvariant(f"invariant vanishes identically at N={n}")
    value = _normalized_value(J, n, split_mult, RootOfUnityPoint(n))
    abs_eval = abs(value)
    vc = (2 * math.pi / n) * math.log(abs_eval) if abs_eval > 0 else None
    return GrowthRecord(n, J.maxdeg, J.mindeg, J.max_abs_coeff(), abs_eval, vc)


def growth_table(e: LinkExpr, Ns, split_mult: int = 1,
                 threads: int = 1) -> list[GrowthRecord]:
    """One GrowthRecord per color in Ns (ascending); order follows the input.

    Each color is computed independently with its own memo, so the rows
    may be produced by worker threads without coordination.
    """
    Ns = list(Ns)
    if not Ns:
        raise ValueError("need at least one color")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("colors must be strictly ascending")
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda n: _growth_record(e, n, split_mult), Ns))
    return [_growth_record(e, n, split_mult) for n in Ns]


@dataclass(frozen=True)
class ModerationReport:
    passed: bool
    coeff_slope: float
    span_slope: float
    coeff_residual: float
    span_residual: float
    log_ratios: tuple[float, ...]

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"moderation {status}: coeff slope {self.coeff_slope:.3f}, "
                f"span slope {self.span_slope:.3f}, "
                f"log ratios {[round(r, 3) for r in self.log_ratios]}")


def moderation_check(records) -> ModerationReport:
    """Fit growth of coefficients and degree span against ln N.

    Passes when both least-squares slopes are finite and the per-record
    ratio ln(maxabscoeff)/ln(N) never increases by more than 10% from one
    doubling to the next: polynomial growth keeps that ratio essentially
    flat, while exponential growth drives it up without bound.
    """
    records = list(records)
    if len(records) < 4:
        raise InsufficientData(f"need at least 4 records, got {len(records)}")
    if any(b.N <= a.N for a, b in zip(records, records[1:])):
        raise InsufficientData("records must have ascending N")
    ln_n = [math.log(r.N) for r in records]
    ln_coeff = [math.log(max(1, r.maxabscoeff)) for r in records]
    ln_span = [math.log(1 + r.maxdeg - r.mindeg) for r in records]

    (coeff_slope, _), coeff_res = _fit_line(ln_n, ln_coeff)
    (span_slope, _), span_res = _fit_line(ln_n, ln_span)

    ratios = tuple(c / n for c, n in zip(ln_coeff, ln_n))
    monotone = all(b <= 1.1 * a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    passed = (math.isfinite(coeff_slope) and math.isfinite(span_slope)
              and monotone)
    return ModerationReport(passed, coeff_slope, span_slope,
                            coeff_res, span_res, ratios)


def _fit_line(xs, ys):
    A = np.vstack([xs, np.ones(len(xs))]).T
    sol, res, _, _ = np.linalg.lstsq(A, np.array(ys, dtype=float), rcond=None)
    residual = float(res[0]) if len(res) else 0.0
    return (float(sol[0]), float(sol[1])), residual
