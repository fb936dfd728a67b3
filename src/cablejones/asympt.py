"""Root-of-unity evaluation, limits, and volume-conjecture decay tables.

The normalized invariant J/[N]^k of a link colored all-N is evaluated at
A0 = exp(i*pi/2N) from the engine's sparse numerator Num = J (A^2 - A^-2),
with no dense J: J/[N]^k = X / D with X = Num (A^2 - A^-2)^(k-1) and
D = (A^(2N) - A^(-2N))^k.  Put A = A0 e^s: D = (-4N s)^k (1 + O(s^2)), and
X = sum_j M_j s^j / j! with M_j = sum c e^j A0^e over X's terms c A^e, the
moments of theta = A d/dA.  So the limit is finite exactly when M_j = 0 for
every j < k, and is then M_k / (k! (-4N)^k); otherwise DivergentLimit is
raised.  With e = M q + r, M = 4N, M_j = sum_r A0^r sum_{i<=j} C(j,i) M^i
r^(j-i) X_i[r] over integer columns X_i[r] = sum c q^i, so each zero test is
exact; when X_0 .. X_(z-1) are identically 0, M_j carries the factor M^z.
At k = 1 with [N] dividing J, X_0 = 0 and the value is -sum_r X_1[r] A0^r.
J's degrees and largest coefficient are read off Num's ends and running sums.

Each sum of integer columns is evaluated by laurent._exact_value, and every
l'Hospital and vanishing-order test by LaurentPoly.eval_at_root, which
takes a value near 0 from the same routine.  So every zero decision at A0
is exact, and there is no tolerance to set.

The decay diagnostic for a family of colorings is
vc_value = (2 pi / N) * ln |J'_N(A0)|, which tends to zero exactly when
|J'_N| grows subexponentially; growth tables record it per N together
with degree and coefficient statistics of the unnormalized polynomial,
and :func:`moderation_check` tests those statistics for polynomial (not
exponential) growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jones import _abs_sum, _coefficient_sums, _top, colored_numerator
from .laurent import (
    ComputationError,
    LaurentPoly,
    RootOfUnityPoint,
    _dtype,
    _exact_value,
    _max_abs,
)
from .linkexpr import LinkExpr, component_count

__all__ = [
    "DepthExceeded",
    "DivergentLimit",
    "GrowthRecord",
    "InsufficientData",
    "ModerationReport",
    "VanishingInvariant",
    "eval_normalized_at_root",
    "growth_table",
    "lhospital_limit",
    "moderation_check",
    "vanishing_order",
]

MAX_LHOSPITAL_DEPTH = 8


class DivergentLimit(ComputationError, ArithmeticError):
    """The numerator vanishes to lower order than the denominator."""


class DepthExceeded(ComputationError, ArithmeticError):
    """The differentiation ladder hit its depth cap while both sides vanish."""


class InsufficientData(ComputationError, ValueError):
    """Too few growth records to fit anything."""


class VanishingInvariant(ComputationError, ArithmeticError):
    """The colored Jones polynomial came out identically zero, so a growth
    record has no degrees, coefficients or decay rate to report."""


def lhospital_limit(numerator: LaurentPoly, denominator: LaurentPoly,
                    pt: RootOfUnityPoint,
                    max_depth: int = MAX_LHOSPITAL_DEPTH) -> complex:
    """lim_{A -> A0} numerator / denominator by repeated differentiation.

    At each stage where the denominator vanishes at A0 the numerator must
    vanish too; otherwise the true limit is infinite and DivergentLimit is
    raised.  Both tests are exact.
    """
    if denominator.is_zero():
        raise ZeroDivisionError("denominator is identically zero")
    num, den = numerator, denominator
    for depth in range(max_depth + 1):
        dv = den.eval_at_root(pt)
        if dv:
            nv = num.eval_at_root(pt)
            return nv / dv if nv else 0j
        if num.eval_at_root(pt):
            raise DivergentLimit(f"at N={pt.N} the numerator does not vanish where "
                                 f"the denominator does, after {depth} derivatives")
        num = num.derivative()
        den = den.derivative()
    raise DepthExceeded(f"at N={pt.N} still vanishing after {max_depth} derivatives")


def vanishing_order(p: LaurentPoly, pt: RootOfUnityPoint,
                    max_depth: int = MAX_LHOSPITAL_DEPTH) -> int:
    """Order of the zero of p at A0: derivatives taken until one survives."""
    if p.is_zero():
        raise ValueError("the zero polynomial vanishes to every order")
    cur = p
    for k in range(max_depth + 1):
        if cur.eval_at_root(pt):
            return k
        cur = cur.derivative()
    raise DepthExceeded(f"at N={pt.N} still vanishing after {max_depth} derivatives")


def eval_normalized_at_root(e: LinkExpr, n: int, split_mult: int = 1,
                            memo: dict | None = None) -> complex:
    """Value of J(e) / [n]^split_mult at A0(n), all components colored n."""
    return _value(colored_numerator(e, (n,) * component_count(e), memo), n, split_mult)


def _value(num, n: int, split_mult: int) -> complex:
    """J / [n]^split_mult at A0(n) from J's numerator, by the module docstring's moments."""
    if split_mult < 1:
        raise ValueError("split_mult must be >= 1")
    k, m = split_mult, 4 * n
    x = _moment_columns(num, m, k)
    z = next((i for i in range(k) if x[i].any()), k)
    for j in range(z, k + 1):
        # M_j = m^z sum_r U[r] A0^r, U = sum_{z <= i <= j} C(j, i) m^(i - z) r^(j - i) X_i
        u = x[z] if j == z else sum(
            math.comb(j, i) * m ** (i - z) * np.arange(m, dtype=object) ** (j - i) * x[i]
            for i in range(z, j + 1))
        # Each term of X lands in one column, so sum |x[z]| keeps the bound
        # that chose its dtype, as _exact_value requires.
        value = _exact_value(u, n)
        if j < k and value:
            raise DivergentLimit(f"at N={n} J/[N]^{k} has no finite limit: "
                                 f"its theta-moment {j} does not vanish")
    return value * (-1) ** k / (math.factorial(k) * m ** (k - z)) + 0j  # + 0j: no -0


_CHUNK = 1 << 18  # terms per pass of _moment_columns: temporaries of a few MB


def _moment_columns(num, m: int, k: int) -> np.ndarray:
    """X_i[r] = sum c q^i for i <= k, over the terms c A^(m q + r) of
    X = num (A^2 - A^-2)^(k - 1): k copies of num, each shifted by
    A^(2(k - 1) - 4t) and signed (-1)^t C(k - 1, t), added in turn.

    The columns are int64 when a bound on the terms keeps every sum, and
    sum_r |X_i[r]| as _exact_value needs, below 2^62; otherwise they hold
    Python ints.  Past that bound, for k > 1, they are first summed in
    wrapping int64 next to a float64 shadow of the same sums.  A wrapped sum
    is exact mod 2^64, so it is the true sum when that lies within 2^62, and
    the shadow proves it.  Each term takes at most k + 4 roundings and each
    column at most L additions, so a shadow sum is within
    (L + k + 4) 2^-52 mass of the true sum, mass = 2^(k-1) sum |c| qmax^k
    bounding every copy's sum |c| |q|^i (the factor is twice the textbook
    one, which leaves room for its own rounding).  Shadows below 2^61 and
    an error below 2^61 leave every true sum within 2^62.  Such columns are
    handed on as Python ints, as the Python-int sums would be, so that the
    value does not change in its last digit.
    """
    exps, coeffs, bound = num
    # A copy's |q| <= (top + 2k - 2) // m + 1 <= qmax as m >= 4, and the
    # copies' coefficients add up to at most 2^(k-1) sum |c|, so every column
    # sum is within 2^(k-1) sum |c| qmax^k <= 2^(k-1) len bound qmax^k.
    qmax = _top(num) // m + k
    dtype = _dtype(2 ** (k - 1) * len(exps) * bound * qmax ** k)
    if dtype is object:
        mass = 2 ** (k - 1) * _abs_sum(num) * qmax ** k
        dtype = _dtype(mass)
    if dtype is object and k > 1 and exps.dtype != object and coeffs.dtype != object:
        # k copies of each term, and one more addition per pass.
        additions = k * (len(exps) + -(-len(exps) // _CHUNK))
        if mass * (additions + k + 4) < 2 ** 113:
            x, shadow = _sum_columns(exps, coeffs, m, k, np.int64, shadow=True)
            if np.abs(shadow).max() < 2.0 ** 61:  # False on inf or nan
                return x.astype(object)
    return _sum_columns(exps, coeffs, m, k, dtype)[0]


def _sum_columns(exps, coeffs, m: int, k: int, dtype, shadow: bool = False):
    """_moment_columns' columns X summed in `dtype` (wrapping in int64), and
    with `shadow` the same sums in float64 (else None)."""
    x = np.zeros((k + 1, m), dtype=dtype)
    s = np.zeros((k + 1, m)) if shadow else None
    for t in range(k):
        d, sign = 2 * (k - 1) - 4 * t, (-1) ** t * math.comb(k - 1, t)
        fsign = float(sign) if shadow else None
        if dtype is not object:  # the same sign mod 2^64
            sign = (sign + 2 ** 63) % 2 ** 64 - 2 ** 63
        for start in range(0, len(exps), _CHUNK):  # no pass for d = 0 or sign = 1
            part = slice(start, start + _CHUNK)
            e = exps[part] + d if d else exps[part]
            q = e // m
            r = (e - q * m).astype(np.int64, copy=False)
            w = coeffs[part].astype(dtype, copy=False)
            if shadow:
                wf, qf = w * fsign, q.astype(float)
            q = q.astype(dtype, copy=False)
            w = w * sign if sign != 1 else w
            for i in range(k + 1):
                if i:
                    w = w * q
                np.add.at(x[i], r, w)
                if shadow:
                    with np.errstate(over="ignore", invalid="ignore"):
                        if i:
                            wf = wf * qf
                        s[i] += np.bincount(r, weights=wf, minlength=m)
    return x, s


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


def _growth_record(e: LinkExpr, n: int, split_mult: int) -> GrowthRecord:
    num = colored_numerator(e, (n,) * component_count(e))
    if not len(num.exps):
        raise VanishingInvariant(f"invariant vanishes identically at N={n}")
    # J runs from A^(lo + 2) to A^(hi - 2), its coefficients are minus the
    # running sums of the numerator, and the last running sum is 0.
    sums = _coefficient_sums(num.coeffs, num.bound)
    abs_eval = abs(_value(num, n, split_mult))
    vc = (2 * math.pi / n) * math.log(abs_eval) if abs_eval > 0 else None
    return GrowthRecord(n, int(num.exps[-1]) - 2, int(num.exps[0]) + 2,
                        _max_abs(sums[:-1]), abs_eval, vc)


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
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if threads > 1:
        # Imported here: it pulls in logging, which serial callers never need.
        from concurrent.futures import ThreadPoolExecutor

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
