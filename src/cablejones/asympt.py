"""Root-of-unity evaluation, limits, and volume-conjecture decay tables.

The normalized invariant J/[N]^k of a link colored all-N is evaluated at
A0 = exp(i*pi/2N) from the engine's sparse numerator Num = J (A^2 - A^-2),
with no dense J.  As [N] (A^2 - A^-2) = A^(2N) - A^(-2N),
J/[N]^k = (Num / D) (A^2 - A^-2)^(k-1) with D = (A^(2N) - A^(-2N))^k.  At
N = 1, [1] = 1, so every k has the k = 1 value.  For N >= 2 the last factor
is a unit at A0, (2i sin(pi/N))^(k-1), so only Num / D needs a limit.  Put
A = A0 e^s: D = (-4N s)^k (1 + O(s^2)), and Num = sum_j M_j s^j / j! with
M_j = sum c e^j A0^e over Num's terms c A^e, the moments of theta = A d/dA.
So the limit is finite exactly when M_j = 0 for every j < k, and is then
(2i sin(pi/N))^(k-1) M_k / (k! (-4N)^k); otherwise DivergentLimit is
raised.  With e = M q + r, M = 4N, M_j = sum_r A0^r sum_{i<=j} C(j,i) M^i
r^(j-i) X_i[r] over integer columns X_i[r] = sum c q^i, so each zero test is
exact; when X_0 .. X_(z-1) are identically 0, M_j carries the factor M^z.
At k = 1 with [N] dividing J, X_0 = 0 and the value is -sum_r X_1[r] A0^r.
This module reads no numerator itself: jones._moment_columns sums the
columns, and one loop over them, _limit_columns, gives every value.  A
growth row's degrees and largest coefficient of J come from
jones._statistics, which reads them off Num's ends and running sums.

The first moment that does not vanish is J's order of vanishing v at A0,
so one pass gives j = min(v, k) and the limit of J/[N]^j.  Twists and
connected sums at the root are taken apart, and only the nodes below them
are read from their numerators.  A twist by f multiplies J by
A^(f (N^2 - 1)), the unit A0^(f (N^2 - 1) mod 4N) at A0.  A connected sum
has J = J_1 J_2 / [N], so J/[N]^k = (J_1/[N]^k1) (J_2/[N]^k2) for
k1 + k2 = k + 1.  The left factor's pass at k gives k1 = min(v_1, k), the
right factor's at k2 = k + 1 - k1 gives min(v_2, k2), and J/[N]^k has a
limit when that is k2.  Every factor vanishes at A0 for N >= 2, so at
k = 1 both take k = 1; at N = 1 it is the plain product.  A product is 0j
exactly when a factor's exact value is 0.

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

from .jones import _moment_columns, _statistics, colored_numerator
from .laurent import (
    ComputationError,
    LaurentPoly,
    RootOfUnityPoint,
    _doubled_powers,
    _exact_value,
)
from .linkexpr import ConnSum, LinkExpr, Twist, component_count

__all__ = [
    "DepthExceeded",
    "DivergentLimit",
    "GrowthRecord",
    "InsufficientData",
    "ModerationReport",
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


def lhospital_limit(numerator: LaurentPoly, denominator: LaurentPoly,
                    pt: RootOfUnityPoint) -> complex:
    """lim_{A -> A0} numerator / denominator by repeated differentiation.

    At each stage where the denominator vanishes at A0 the numerator must
    vanish too; otherwise the true limit is infinite and DivergentLimit is
    raised.  Both tests are exact.
    """
    if denominator.is_zero():
        raise ZeroDivisionError("denominator is identically zero")
    num, den = numerator, denominator
    for depth in range(MAX_LHOSPITAL_DEPTH + 1):
        dv = den.eval_at_root(pt)
        if dv:
            nv = num.eval_at_root(pt)
            return nv / dv if nv else 0j
        if num.eval_at_root(pt):
            raise DivergentLimit(f"at N={pt.N} the numerator does not vanish where "
                                 f"the denominator does, after {depth} derivatives")
        num = num.derivative()
        den = den.derivative()
    raise DepthExceeded(f"at N={pt.N} still vanishing after {MAX_LHOSPITAL_DEPTH} derivatives")


def vanishing_order(p: LaurentPoly, pt: RootOfUnityPoint) -> int:
    """Order of the zero of p at A0: derivatives taken until one survives."""
    if p.is_zero():
        raise ValueError("the zero polynomial vanishes to every order")
    cur = p
    for k in range(MAX_LHOSPITAL_DEPTH + 1):
        if cur.eval_at_root(pt):
            return k
        cur = cur.derivative()
    raise DepthExceeded(f"at N={pt.N} still vanishing after {MAX_LHOSPITAL_DEPTH} derivatives")


def eval_normalized_at_root(e: LinkExpr, n: int, split_mult: int = 1,
                            memo: dict | None = None) -> complex:
    """Value of J(e) / [n]^split_mult at A0(n), all components colored n.

    split_mult is the number of split components divided away.  The trefoil
    beside a split unknot has J = J(trefoil) [n], so at split_mult 2 it has
    the trefoil's value, and at split_mult 1 it is 0, as [n](A0) = 0:

    >>> from cablejones import parse
    >>> union = parse("connsum(cable(0,2;1;unknot),1;cable(2,3;1;unknot),1)")
    >>> v = eval_normalized_at_root(union, 3, split_mult=2)
    >>> complex(round(v.real, 9), round(v.imag, 9))
    (-2+5.196152423j)
    >>> abs(v - eval_normalized_at_root(parse("cable(2,3;1;unknot)"), 3)) < 1e-12 * abs(v)
    True
    >>> eval_normalized_at_root(union, 3)
    0j
    """
    if split_mult < 1:
        raise ValueError("split_mult must be >= 1")
    j, value = _root_limit(e, n, split_mult, {} if memo is None else memo)
    if j < split_mult:
        raise DivergentLimit(f"at N={n} J/[N]^{split_mult} has no finite limit: "
                             f"its theta-moment {j} does not vanish")
    return value


def _root_limit(e: LinkExpr, n: int, k: int, memo: dict) -> tuple[int, complex]:
    """_limit_columns for J(e): twists and connected sums at the root are
    taken apart, and any other node is read from its numerator (memoized)."""
    if isinstance(e, Twist):
        j, value = _root_limit(e.child, n, k, memo)
        return j, value * complex(_doubled_powers(n)[e.f * (n * n - 1) % (4 * n)]) + 0j
    if isinstance(e, ConnSum):
        j, left = _root_limit(e.left, n, k, memo)
        i, right = _root_limit(e.right, n, k + 1 - j, memo)
        return j + i - 1, left * right + 0j
    num = colored_numerator(e, (n,) * component_count(e), memo)
    return _limit_columns(_moment_columns(num, 4 * n, k if n > 1 else 1), n, k)


def _limit_columns(x: np.ndarray, n: int, k: int) -> tuple[int, complex]:
    """(j, lim J/[n]^j at A0(n)) for j = min(k, J's order of vanishing there),
    from J's moment columns x = X_0 .. X_t mod 4n (jones._moment_columns),
    t = k; at n = 1, where [1] = 1, t = 1 and j = k."""
    top, m = len(x) - 1, 4 * n
    z = next((i for i in range(top) if x[i].any()), top)
    for j in range(z, top + 1):
        # M_j = m^z sum_r U[r] A0^r, U = sum_{z <= i <= j} C(j, i) m^(i - z) r^(j - i) X_i
        u = x[z] if j == z else sum(
            math.comb(j, i) * m ** (i - z) * np.arange(m, dtype=object) ** (j - i) * x[i]
            for i in range(z, j + 1))
        # Each term of the numerator lands in one column, so sum |x[z]| keeps
        # the bound that chose its dtype, as _exact_value requires.
        value = _exact_value(u, n)
        if value:
            break
    value *= (2j * math.sin(math.pi / n)) ** (j - 1)  # (A0^2 - A0^-2)^(j-1)
    value = value * (-1) ** j / (math.factorial(j) * m ** (j - z)) + 0j  # + 0j: no -0
    return (k if n == 1 and j else j), value


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
    body, shift = e, 0  # a twist shifts J and keeps its coefficients
    while isinstance(body, Twist):
        body, shift = body.child, shift + body.f * (n * n - 1)
    memo = {}
    maxdeg, mindeg, coeff = _statistics(
        colored_numerator(body, (n,) * component_count(e), memo))
    abs_eval = abs(eval_normalized_at_root(e, n, split_mult, memo))
    vc = (2 * math.pi / n) * math.log(abs_eval) if abs_eval > 0 else None
    return GrowthRecord(n, maxdeg + shift, mindeg + shift, coeff, abs_eval, vc)


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
    log_ratios: tuple[float, ...]


def moderation_check(records) -> ModerationReport:
    """Fit growth of coefficients and degree span against ln N.

    The slopes are least-squares fits of ln(maxabscoeff) and
    ln(1 + maxdeg - mindeg) against ln N.  The check passes when the
    per-record ratio ln(maxabscoeff)/ln(N) never increases by more than 10%
    from one doubling to the next: polynomial growth keeps that ratio
    essentially flat, while exponential growth drives it up without bound.
    A record at N = 1, where J = 1 and the ratio is 0/0, is fitted but has
    no ratio.
    """
    records = list(records)
    if len(records) < 4:
        raise InsufficientData(f"need at least 4 records, got {len(records)}")
    if any(b.N <= a.N for a, b in zip(records, records[1:])):
        raise InsufficientData("records must have ascending N")
    ln_n = [math.log(r.N) for r in records]
    ln_coeff = [math.log(max(1, r.maxabscoeff)) for r in records]
    ln_span = [math.log(1 + r.maxdeg - r.mindeg) for r in records]
    ratios = tuple(c / n for c, n in zip(ln_coeff, ln_n) if n)
    # Imported here: it pulls in decimal, fractions and random, which
    # nothing else needs at start-up.
    import statistics

    return ModerationReport(
        all(b <= 1.1 * a + 1e-12 for a, b in zip(ratios, ratios[1:])),
        statistics.linear_regression(ln_n, ln_coeff).slope,
        statistics.linear_regression(ln_n, ln_span).slope,
        ratios)
