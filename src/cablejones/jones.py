"""The unnormalized colored Jones polynomial of a link expression.

The engine evaluates the expression tree recursively:

  * The unknot colored N is the quantum integer [N].

  * A framing change by f on a component colored N multiplies the
    invariant by A^(f (N^2 - 1)), the curl eigenvalue.

  * An (i; r, s)-cabling with g = gcd(|r|, s), p = s/g, whose g cable
    components carry the colors N = (N_0, ..., N_{g-1}), expands as

        sum over m = -(|N|-g) .. |N|-g step 2 of
            C[m] * A^((r/g) m (m p + 2)) * J(child with component i
                                             colored m*p + 1)

    where C is the trinomial table of N (m = 2w for the half-integer
    index w; the A-exponent is the integer form of q^(r w (w p + 1)/g)).
    Colors through zero or negative values resolve by the odd-color
    convention J(..., -j, ...) = -J(..., j, ...), J(..., 0, ...) = 0.

  * A connected sum multiplies the two factors and divides by [N], the
    color shared at the joined component; the division is exact, and a
    nonzero remainder aborts loudly rather than being patched over.

The recursion works on the numerator N = J * (A^2 - A^-2) instead of J.
Since [n] (A^2 - A^-2) = A^(2n) - A^(-2n), the unknot's numerator is two
monomials, and for a signed n the same formula gives [-n] = -[n] and
[0] = 0.  Twists and cabling sums only shift, scale and add numerators, so
for links built by cabling and twisting N is a short list of signed
monomials where J is a long dense run.  A numerator is held as ascending
distinct exponents with their nonzero coefficients; a cable of the unknot
is one vectorized sum over m, any other cable concatenates its shifted and
scaled children and merges equal exponents once.  A connected sum works on
the dense J of both sides and converts its quotient back.  colored_jones
builds the dense J once, at the end: every exponent of N lies in one class
mod 4, and on the lattice lo + 4Z, J (from A^(lo + 2)) is minus the running
sums of N, whose last one must vanish.

Each numerator carries a proved bound B on the |coefficients| of both N and
J: 1 for the unknot, the child's bound for a twist, the sum over m of
C[m] times the child's bound for a cable, and twice the bound of the dense
quotient for a connected sum.  The merged sums and the running sums stay
within B, so they run in int64 when B < 2^62 and on Python ints otherwise;
exponents are int64 exactly when each |exponent| is below 2^62.

Results are memoized per computation on (subtree, color vector) as
numerators; one with more than MEMO_SPAN_LIMIT stored terms is recomputed
on a repeat query instead of being cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .laurent import (
    LaurentPoly,
    NotDivisible,
    _dtype,
    _make,
    divide_by_quantum_integer,
)
from .linkexpr import (
    Cable,
    ConnSum,
    LinkExpr,
    Twist,
    Unknot,
    cable_gcd,
    component_count,
    validate_colors,
)
from .trinomial import trinomial_table

__all__ = [
    "ColorMismatchAtConnSum",
    "DeferredRatio",
    "MEMO_SPAN_LIMIT",
    "cable_term_exponent",
    "colored_jones",
    "normalized_jones",
    "signed_color_fetch",
]

MEMO_SPAN_LIMIT = 1 << 20


class ColorMismatchAtConnSum(ValueError):
    """The two sides of a connected sum disagree about the joined color."""


@dataclass(frozen=True)
class DeferredRatio:
    """numerator / [color]^power, left for limit evaluation at a root of unity.

    Returned by :func:`normalized_jones` when the divisor does not divide
    exactly; the asymptotics module resolves it by l'Hospital.
    """

    numerator: LaurentPoly
    color: int
    power: int


class _Numerator(NamedTuple):
    """N = sum(coeffs[k] A^exps[k]) = J (A^2 - A^-2); bound >= max |N|, |J|."""

    exps: np.ndarray    # ascending and distinct
    coeffs: np.ndarray  # nonzero
    bound: int


_ZERO = _Numerator(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0)
_UNKNOT_COEFFS = np.array([-1, 1], dtype=np.int64)
_UNKNOT_COEFFS.setflags(write=False)  # shared by every unknot numerator


def cable_term_exponent(r: int, s: int, m: int) -> int:
    """A-exponent (r/g) * m * (m p + 2) of the cabling term at index m."""
    g = cable_gcd(r, s)
    p = s // g
    return (r // g) * m * (m * p + 2)


def colored_jones(e: LinkExpr, colors, memo: dict | None = None) -> LaurentPoly:
    """Unnormalized colored Jones polynomial of e with the given colors.

    ``colors`` assigns one positive integer per component, in the component
    order fixed by :mod:`cablejones.linkexpr`.  Pass a dict as ``memo`` to
    share work across several calls on the same tree.
    """
    colors = tuple(colors)
    validate_colors(e, colors)
    if memo is None:
        memo = {}
    return _dense(e, colors, memo)


def signed_color_fetch(e: LinkExpr, colors, i: int, j: int,
                       memo: dict | None = None) -> LaurentPoly:
    """colored_jones of e with component i recolored to j, for any integer j.

    j = 0 gives the zero polynomial and negative j negates, matching the
    odd-color convention that lets the cabling sum run over signed colors.
    """
    if j == 0:
        return LaurentPoly.zero()
    colors = tuple(colors)
    if memo is None:
        memo = {}
    sign = 1
    if j < 0:
        sign, j = -1, -j
    cols = colors[:i - 1] + (j,) + colors[i:]
    result = _dense(e, cols, memo)
    return result if sign == 1 else -result


def _dense(e: LinkExpr, colors: tuple[int, ...], memo: dict) -> LaurentPoly:
    # A connected sum is computed densely, so it skips the round trip.
    if isinstance(e, ConnSum):
        return _connsum(e, colors, memo)
    return _materialize(_jones(e, colors, memo))


def _jones(e: LinkExpr, colors: tuple[int, ...], memo: dict) -> _Numerator:
    key = (e, colors)
    hit = memo.get(key)
    if hit is not None:
        return hit

    if isinstance(e, Unknot):
        n = colors[0]
        result = _Numerator(np.array([-2 * n, 2 * n], dtype=_dtype(2 * n)),
                            _UNKNOT_COEFFS, 1)
    elif isinstance(e, Twist):
        child = _jones(e.child, colors, memo)
        n = colors[e.i - 1]
        shift = e.f * (n * n - 1)
        exps = child.exps.astype(_dtype(_top(child) + abs(shift)), copy=False)
        result = child._replace(exps=exps + shift)
    elif isinstance(e, Cable):
        result = _cable(e, colors, memo)
    elif isinstance(e, ConnSum):
        result = _numerator_of(_connsum(e, colors, memo))
    else:
        raise TypeError(f"not a link expression: {e!r}")

    if len(result.exps) <= MEMO_SPAN_LIMIT:
        memo[key] = result
    return result


def _top(num: _Numerator) -> int:
    """The largest |exponent| of num; 0 when num is zero."""
    if not len(num.exps):
        return 0
    return max(-int(num.exps[0]), int(num.exps[-1]))


def _cable(e: Cable, colors: tuple[int, ...], memo: dict) -> _Numerator:
    g = cable_gcd(e.r, e.s)
    p = e.s // g
    rg = e.r // g
    i0 = e.i - 1
    block = colors[i0: i0 + g]
    prefix = colors[:i0]
    suffix = colors[i0 + g:]
    table = trinomial_table(block)
    w = table.width
    reach = abs(rg) * w * (w * p + 2)  # bounds |rg m (m p + 2)|

    if isinstance(e.child, Unknot):
        # The child colored j = m p + 1 (any sign) has numerator
        # A^(2j) - A^(-2j), so the whole sum is one array expression.  Every
        # intermediate, and rg and p themselves, stay within `top`.
        top = max(reach + 2 * (w * p + 1), abs(rg), p)
        bound = table.total()
        coeffs = table.array.astype(_dtype(bound), copy=False)
        m = np.arange(-w, w + 1, 2, dtype=_dtype(top))
        shift = rg * m * (m * p + 2)
        j2 = 2 * (m * p + 1)
        return _merge(np.concatenate((shift - j2, shift + j2)),
                      np.concatenate((-coeffs, coeffs)), bound)

    terms = []
    bound = top = 0
    for m, c in table.items():
        j = m * p + 1
        if j == 0:
            continue
        child = _jones(e.child, prefix + (abs(j),) + suffix, memo)
        if not len(child.exps):
            continue
        terms.append((rg * m * (m * p + 2), c if j > 0 else -c, child))
        bound += c * child.bound
        top = max(top, _top(child))
    if not terms:
        return _ZERO
    edtype, cdtype = _dtype(reach + top), _dtype(bound)
    exps = [child.exps.astype(edtype, copy=False) + shift
            for shift, _, child in terms]
    coeffs = [child.coeffs.astype(cdtype, copy=False) * c for _, c, child in terms]
    return _merge(np.concatenate(exps), np.concatenate(coeffs), bound)


def _merge(exps: np.ndarray, coeffs: np.ndarray, bound: int) -> _Numerator:
    """Sum the coefficients of equal exponents and drop the zeros.

    The terms at one exponent come from distinct m, each at most C[m] times
    its child's bound, so every partial sum stays within `bound`.
    """
    order = np.argsort(exps, kind="stable")
    exps = exps[order]
    starts = np.flatnonzero(np.concatenate(([True], exps[1:] != exps[:-1])))
    sums = np.add.reduceat(coeffs[order], starts)
    keep = sums != 0
    return _Numerator(exps[starts][keep], sums[keep], bound)


def _materialize(num: _Numerator) -> LaurentPoly:
    """The dense J = N / (A^2 - A^-2), on step 4.

    With lo the lowest exponent of N, N[lo + 4k] = J[k - 1] - J[k] for J
    indexed from A^(lo + 2), so J[k] is minus the running sum of N up to
    lo + 4k.  Each running sum is a coefficient of J, within the bound.
    """
    exps, coeffs, bound = num
    if not len(exps):
        return LaurentPoly.zero()
    lo = int(exps[0])
    offsets = exps - lo
    if (offsets % 4).any():
        raise NotDivisible("numerator exponents lie in more than one class mod 4")
    buf = np.zeros((int(exps[-1]) - lo) // 4 + 1, dtype=_dtype(bound))
    buf[(offsets // 4).astype(np.int64, copy=False)] = coeffs
    np.cumsum(buf, out=buf)
    if buf[-1]:
        raise NotDivisible("A^2 - A^-2 does not divide the numerator: "
                           "its coefficients do not sum to 0")
    J = buf[:-1]
    np.negative(J, out=J)
    return _make(lo + 2, J, bound, 4)


def _numerator_of(J: LaurentPoly) -> _Numerator:
    """N = J (A^2 - A^-2) of an engine value J, which lies on step 4.

    On the lattice val - 2 + 4Z, N[k] = J[k - 1] - J[k], so |N| <= 2 bound(J).
    """
    if J.is_zero():
        return _ZERO
    bound = 2 * J._bound
    c = J.coeffs.astype(_dtype(bound), copy=False)
    n = np.zeros(len(c) + 1, dtype=c.dtype)
    n[1:] = c
    n[:-1] -= c
    k = np.flatnonzero(n)
    lo = J.val - 2
    exps = k.astype(_dtype(max(-lo, J.maxdeg + 2))) * 4 + lo
    return _Numerator(exps, n[k], bound)


def _connsum(e: ConnSum, colors: tuple[int, ...], memo: dict) -> LaurentPoly:
    cl = component_count(e.left)
    left_colors = colors[:cl]
    tail = colors[cl:]
    n = colors[e.i - 1]
    right_colors = tail[:e.j - 1] + (n,) + tail[e.j - 1:]
    if left_colors[e.i - 1] != right_colors[e.j - 1]:
        raise ColorMismatchAtConnSum(
            f"joined component colored {left_colors[e.i - 1]} on the left "
            f"but {right_colors[e.j - 1]} on the right")
    product = _dense(e.left, left_colors, memo) * _dense(e.right, right_colors, memo)
    # The normalized invariant is multiplicative, so [n] divides exactly.
    return divide_by_quantum_integer(product, n)


def normalized_jones(e: LinkExpr, colors, split_mult: int = 1,
                     memo: dict | None = None) -> LaurentPoly | DeferredRatio:
    """colored_jones divided by [N]^split_mult, all components colored N.

    split_mult is the number of split components being normalized away.
    When the division is exact the quotient polynomial comes back; when it
    is not, the undivided remainder is wrapped in a :class:`DeferredRatio`
    so the caller can take the limit at a root of unity instead.
    """
    colors = tuple(colors)
    if not colors or any(c != colors[0] for c in colors):
        raise ValueError("normalization requires all components to share one color")
    if split_mult < 1:
        raise ValueError("split_mult must be >= 1")
    n = colors[0]
    result = colored_jones(e, colors, memo)
    for k in range(split_mult):
        try:
            result = divide_by_quantum_integer(result, n)
        except NotDivisible:
            return DeferredRatio(result, n, split_mult - k)
    return result
