"""Root-of-unity evaluation, limits, and volume-conjecture decay tables.

The normalized invariant J/[N]^k of a link colored all-N is evaluated at
A0 = exp(i*pi/2N) from the engine's sparse numerator Num = J (A^2 - A^-2).
For k = 1 there is no dense J: J/[N] = Num / (A^(2N) - A^(-2N)), so
P = A^(2N) Num equals Q (A^M - 1) with M = 4N and Q = J/[N].  Writing each
exponent of P as M q + r splits P into A^r P_r(A^M) with P_r(u) = sum c u^q;
A^M - 1 divides P exactly when every column sum S0[r] = P_r(1) is 0, and
then Q(A0) = sum_r Q_r(1) A0^r with Q_r(1) = P_r'(1) = S1[r] = sum c q.  So
one exact integer fold decides the division and gives the value, and J's
degrees and largest coefficient are read off Num's ends and running sums.
Since A0^(2N) = -1 the columns fold once more, to S1[r] - S1[r + 2N].  Any
other case (k > 1, or a fold that does not divide) divides the dense J by
[N] while it divides and evaluates the quotient, or takes the l'Hospital
limit of a ratio left 0/0 at A0.  Single values and growth rows go through
the same choice.

Whether a value at A0 is 0 is decided exactly, by one test: a value within
the float error bound of 0 is taken again from the exact remainder of its
integer residue columns mod the cyclotomic polynomial Phi_M, which is 0
exactly when the value is.  So there is no tolerance to set.

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

from .jones import (
    DeferredRatio,
    _coefficient_sums,
    _divide_out,
    _materialize,
    colored_numerator,
)
from .laurent import (
    ComputationError,
    LaurentPoly,
    RootOfUnityPoint,
    _dtype,
    _max_abs,
    quantum_integer,
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


def _at_root(p: LaurentPoly, pt: RootOfUnityPoint) -> complex:
    """p(A0): eval_at_root's value, taken exactly when it is near 0."""
    start, sums = p._residue_sums(pt.order)
    columns = np.zeros(pt.order, dtype=object)  # so sum |columns| is exact
    columns[(start + p.step * np.arange(len(sums))) % pt.order] = sums
    return _exact_near_zero(p.eval_at_root(pt), columns, pt.N)


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
        dv = _at_root(den, pt)
        if dv:
            nv = _at_root(num, pt)
            return nv / dv if nv else 0j
        if _at_root(num, pt):
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
        if _at_root(cur, pt):
            return k
        cur = cur.derivative()
    raise DepthExceeded(f"at N={pt.N} still vanishing after {max_depth} derivatives")


def eval_normalized_at_root(e: LinkExpr, n: int, split_mult: int = 1,
                            memo: dict | None = None) -> complex:
    """Value of J(e) / [n]^split_mult at A0(n), all components colored n."""
    return _value(colored_numerator(e, (n,) * component_count(e), memo), n, split_mult)


def _value(num, n: int, split_mult: int) -> complex:
    """J / [n]^split_mult at A0(n), given J's numerator `num`: the sparse
    fold when it applies, else the dense path."""
    if split_mult == 1:
        value = _sparse_value(num, n)
        if value is not None:
            return value
    pt = RootOfUnityPoint(n)
    result = _divide_out(_materialize(num), n, split_mult)
    if isinstance(result, DeferredRatio):
        return lhospital_limit(result.numerator,
                               quantum_integer(result.color) ** result.power, pt)
    return _at_root(result, pt)


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


def _sparse_value(num, n: int) -> complex | None:
    """J/[n] at A0(n) from the numerator (exps, coeffs, bound) of J, by the
    column fold in the module docstring; None when [n] does not divide J."""
    exps, coeffs, bound = num
    if not len(exps):
        return 0j
    m = 4 * n
    top = max(-int(exps[0]), int(exps[-1])) + 2 * n
    shifted = exps.astype(_dtype(top), copy=False) + 2 * n
    q = shifted // m
    r = shifted - q * m
    # Every |c| <= bound and |q| <= qmax (q ascends with the exponents), so
    # each column sum of c or c q stays within len * bound * qmax.
    qmax = max(-int(q[0]), int(q[-1]), 1)
    dtype = _dtype(len(exps) * bound * qmax)
    c = coeffs.astype(dtype, copy=False)
    r = r.astype(np.int64, copy=False)
    s0 = np.zeros(m, dtype=dtype)
    np.add.at(s0, r, c)
    if s0.any():
        return None
    s1 = np.zeros(m, dtype=dtype)
    np.add.at(s1, r, c * q.astype(dtype, copy=False))
    # A0^(2n) = -1: fold S1 mod x^(2n) + 1, which Phi_4n divides.  Each term
    # c q lands in one column, so the differences stay within the same bound.
    s1 = s1[:2 * n] - s1[2 * n:]
    return _exact_near_zero(complex(np.dot(s1, RootOfUnityPoint(n).powers()[:2 * n])),
                            s1, n)


def _exact_near_zero(value: complex, columns: np.ndarray, n: int) -> complex:
    """value, the float dot of the integer `columns` (4n or 2n, with
    sum |columns| exact) with A0(n)^0, A0(n)^1, ...; 0j when the dot is 0.

    The float dot errs by at most (m + 64) 2^-52 sum |columns|, m = 4n: each
    column converts and each product rounds within 2^-53 relative, each
    power of A0 lies within 32 * 2^-53 of exact, the sum adds (m - 1) 2^-53
    of the total, and the two components double that.  A value that small
    is taken again from the exact remainder mod Phi_m, 0 exactly when it is.
    """
    m = 4 * n
    if abs(value) > (m + 64) * 2.0 ** -52 * float(np.abs(columns).sum()):
        return value
    rem = _cyclotomic_remainder(columns, m)
    return complex(np.dot(rem, RootOfUnityPoint(n).powers()[:len(rem)])) if rem.any() else 0j


def _cyclotomic(m: int) -> np.ndarray:
    """The coefficients of Phi_m, lowest degree first, as Python ints.

    Phi_m = prod over squarefree d | m of (x^(m/d) - 1)^mu(d): multiply by
    the binomials with mu(d) = 1, then divide by those with mu(d) = -1.
    """
    primes, rest, p = [], m, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    plus, minus = [], []
    for subset in range(1 << len(primes)):
        d = math.prod(p for i, p in enumerate(primes) if subset >> i & 1)
        (minus if bin(subset).count("1") % 2 else plus).append(m // d)
    phi = np.ones(1, dtype=object)
    for k in plus:
        phi = np.concatenate((np.zeros(k, dtype=object), phi)) - \
            np.concatenate((phi, np.zeros(k, dtype=object)))
    for k in minus:
        # phi = (x^k - 1) w unrolls as w[i] = w[i - k] - phi[i]: -w is the
        # running sum down each of k columns, whose top k entries vanish.
        rows = -(-len(phi) // k)
        grid = np.zeros(rows * k, dtype=object)
        grid[:len(phi)] = phi
        w = -np.cumsum(grid.reshape(rows, k), axis=0).reshape(-1)
        phi = w[:len(phi) - k]
    return phi


def _cyclotomic_remainder(s: np.ndarray, m: int) -> np.ndarray:
    """sum(s[r] x^r) mod Phi_m, exactly, for m even and len(s) m or <= m/2:
    it has the same value at A0, and is zero exactly when that value is.  For
    m a power of two Phi_m is x^(m/2) + 1, so a folded s is its remainder."""
    phi = _cyclotomic(m)
    deg = len(phi) - 1
    rem = s.astype(object)
    if len(rem) == m:  # Phi_m divides x^(m/2) + 1
        rem = rem[:m // 2] - rem[m // 2:]
    for i in range(len(rem) - 1, deg - 1, -1):
        if rem[i]:
            rem[i - deg: i + 1] -= rem[i] * phi
    return rem[:deg]


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
