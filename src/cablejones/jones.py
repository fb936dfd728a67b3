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
is one vectorized sum over m, and a cable of a torus knot (a cable of the
unknot with one component) one double sum over m and the knot's own m',
which copies one shifted prefix of the knot's terms, ordered by |m'|, per
m; any other cable concatenates its shifted and scaled children.  Each
merges equal exponents once, with one np.sort of int64 keys that pack the
exponent above the term's index, or with a stable argsort where the terms
come in a few ascending runs or the keys would not fit int64.  A
connected sum has a numerator of its own: the numerator of J_l J_r / [n] is
N_l J_r / [n], and since [n] (A^2 - A^-2) = A^(2n) - A^(-2n) it is
N_l N_r / (A^(2n) - A^(-2n)).
The two sparse numerators are multiplied into one zeroed buffer on the
lattice lo + 4Z by laurent's sparse product kernel, which scatters every
product c_l c_r (two sparse sides, such as torus knots) or adds one side,
spread dense, once per term of the other (a dense side, such as a connected
sum of a connected sum), whichever counts fewer operations.  Dividing by
A^(-2n) (x^n - 1), x = A^4, is minus the running sums down n columns, whose
top n entries must vanish; divide_by_quantum_integer runs the same loop.
Every exponent of N lies in one class mod 4, and on the lattice lo + 4Z, J
(from A^(lo + 2)) is minus the running sums of N, whose last one must
vanish; colored_jones builds that dense J once, at the end, and
colored_numerator hands N itself to callers that need only J's degrees,
its largest coefficient or its value at a root of unity.

Each numerator carries a proved bound B on the |coefficients| of both N and
J: 1 for the unknot, the child's bound for a twist, the sum over m of
C[m] times the child's bound for a cable, and the exact maxima of |N| and
of its running sums for a connected sum.  The merged sums and the running
sums stay within B, so they run in int64 when B < 2^62 and on Python ints
otherwise; a connected sum's product and division add distinct products
c_l c_r, so they stay within sum |N_l| * sum |N_r| and take their dtype
from that.  Exponents are int64 exactly when each |exponent| is below 2^62.

Results are memoized per computation on (subtree, color vector) as
numerators; one with more than MEMO_SPAN_LIMIT stored terms is recomputed
on a repeat query instead of being cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .laurent import (
    ComputationError,
    LaurentPoly,
    NotDivisible,
    _add_product,
    _divide_binomial,
    _dtype,
    _make,
    _max_abs,
    _support,
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
    "colored_jones",
    "normalized_jones",
]

MEMO_SPAN_LIMIT = 1 << 20


class ColorMismatchAtConnSum(ComputationError, ValueError):
    """The two sides of a connected sum disagree about the joined color.

    Public for compatibility only: a connected sum reads one color for the
    joined component and gives it to both sides, so they cannot disagree.
    """


@dataclass(frozen=True)
class DeferredRatio:
    """numerator / [color]^power, left for limit evaluation at a root of unity.

    Returned by :func:`normalized_jones` when the divisor does not divide
    exactly; asympt.lhospital_limit takes its limit at a root of unity.
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


def colored_numerator(e: LinkExpr, colors, memo: dict | None = None) -> _Numerator:
    """The numerator N = J (A^2 - A^-2) of colored_jones(e, colors), sparse.

    Same arguments as :func:`colored_jones`; the zero invariant has no terms.
    """
    colors = tuple(colors)
    validate_colors(e, colors)
    if memo is None:
        memo = {}
    return _jones(e, colors, memo)


def colored_jones(e: LinkExpr, colors, memo: dict | None = None) -> LaurentPoly:
    """Unnormalized colored Jones polynomial of e with the given colors.

    ``colors`` assigns one positive integer per component, in the component
    order fixed by :mod:`cablejones.linkexpr`.  Pass a dict as ``memo`` to
    share work across several calls on the same tree.
    """
    return _materialize(colored_numerator(e, colors, memo))


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
        result = _connsum(e, colors, memo)
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
        # Every intermediate, and rg and p themselves, stay within `top`.
        top = max(reach + 2 * (w * p + 1), abs(rg), p)
        bound = table.total()
        coeffs = table.array.astype(_dtype(bound), copy=False)
        m = np.arange(-w, w + 1, 2, dtype=_dtype(top))
        return _merge(*_unknot_cable(m, p, rg, coeffs), bound, few_runs=True)
    knot = e.child
    if (isinstance(knot, Cable) and isinstance(knot.child, Unknot)
            and cable_gcd(knot.r, knot.s) == 1):  # a torus knot
        return _merge(*_torus_knot_terms(knot, table, p, rg, reach))

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


def _unknot_cable(m: np.ndarray, p: int, rg: int, coeffs: np.ndarray):
    """The unmerged (exps, coeffs) of the sum over k of
    coeffs[k] A^(rg m[k] (m[k] p + 2)) N(unknot colored m[k] p + 1).

    The unknot colored j (any sign) has numerator A^(2j) - A^(-2j), so this
    is the closed form of every cable of the unknot.
    """
    shift = rg * m * (m * p + 2)
    j2 = 2 * (m * p + 1)
    return np.concatenate((shift - j2, shift + j2)), np.concatenate((-coeffs, coeffs))


def _torus_knot_terms(knot: Cable, table, p: int, rg: int, reach: int):
    """The unmerged (exps, coeffs, bound) of the cable, with trinomial table
    `table`, of the torus knot `knot`.

    The knot colored n is the cable of the unknot with p2 = s', rg2 = r'
    and a table of ones over m2 = -(n - 1) .. n - 1 step 2, so the whole
    cable is one double sum over (m, m2) with coefficient sign(j) C[m] for
    j = m p + 1 and n = |j|.  At one exponent the terms from one m come
    from distinct m2, so the merged sums stay within sum C[m] |j|, the bound
    that summing the children one by one gives.  The largest |j| is
    w2 + 1 = w p + 1, so every exponent and every intermediate stays within
    `top`.

    Every |j| - 1 has the parity of w2, so the knot colored |j| is the knot
    colored w2 + 1 cut to its m2 with |m2| < |j|.  With the knot's terms laid
    out by ascending |m2|, that is their first 2|j|, and each m copies one
    shifted prefix into the output; an m with j = 0 copies none.
    """
    p2, rg2 = knot.s, knot.r
    w = table.width
    w2 = w * p
    top = max(reach + abs(rg2) * w2 * (w2 * p2 + 2) + 2 * (w2 * p2 + 1),
              abs(rg), p, abs(rg2), p2)
    m = np.arange(-w, w + 1, 2, dtype=_dtype(top))
    j = m * p + 1
    colors = np.abs(j).astype(np.int64)
    bound = int((table.array.astype(object) * colors).sum())
    weights = table.array.astype(_dtype(bound), copy=False)
    sizes = 2 * colors  # the knot colored n has 2n terms

    # m2 = 0, -2, 2, -4, 4, ... (w2 even) or -1, 1, -3, 3, ... (w2 odd), each
    # giving the pair -A^(shift - j2), +A^(shift + j2).
    half = np.arange(w2 % 2, w2 + 1, 2, dtype=m.dtype)
    m2 = np.stack((-half, half), axis=1).reshape(-1)[1 - w2 % 2:]
    shift, j2 = rg2 * m2 * (m2 * p2 + 2), 2 * (m2 * p2 + 1)
    knot_exps = np.stack((shift - j2, shift + j2), axis=1).reshape(-1)

    exps = np.empty(int(sizes.sum()), dtype=m.dtype)
    end = 0
    for offset, size in zip((rg * m * (m * p + 2)).tolist(), sizes.tolist()):
        np.add(knot_exps[:size], offset, out=exps[end:end + size])
        end += size
    # Every prefix has even length, so the pairs' signs alternate throughout.
    coeffs = np.repeat(np.where(j > 0, weights, -weights), sizes)
    np.negative(coeffs[::2], out=coeffs[::2])
    return exps, coeffs, bound


# Packed sort keys ((exp - lo) << b) | index must stay within int64.
_KEY_MAX = (1 << 63) - 1


def _merge(exps: np.ndarray, coeffs: np.ndarray, bound: int,
           few_runs: bool = False) -> _Numerator:
    """Sum the coefficients of equal exponents and drop the zeros.

    At one exponent, the terms from one m add up in absolute value to at
    most C[m] times its child's bound, so every partial sum stays within
    `bound`.

    The terms are put in exponent order by one np.sort of the int64 keys
    ((exp - lo) << b) | index, b = bit_length(n - 1) for n terms, lo and hi
    the least and greatest exponent.  The low b bits hold the index, so the
    keys are distinct, their order is the exponents' stable order, and
    key & (2^b - 1) is the permutation.  Every key is at most
    ((hi - lo) << b) | (n - 1), which is checked against 2^63 - 1 in exact
    integers, so no key wraps.

    Object exponents, a span too wide for the shift, and terms that come in
    a few ascending runs (`few_runs`) take a stable argsort instead, whose
    timsort merges a few runs in linear time.  A cable of the unknot gives
    at most four runs, and on its terms packing measured 25-65% slower from
    64 to 33k terms.  Concatenated children (one run per m) take the packed
    sort: there it measured 1.3-2x faster from 30k terms up, and about 20%
    slower below 6k.
    """
    n = len(exps)
    b = (n - 1).bit_length()
    lo = None if few_runs or exps.dtype == object else int(exps.min())
    if lo is not None and ((int(exps.max()) - lo) << b) | (n - 1) <= _KEY_MAX:
        key = exps - lo
        key <<= b
        key |= np.arange(n, dtype=np.int64)
        key.sort()
        order = key & ((1 << b) - 1)
        key >>= b
        key += lo
        exps = key
    else:
        order = np.argsort(exps, kind="stable")
        exps = exps[order]
    starts = np.flatnonzero(np.concatenate(([True], exps[1:] != exps[:-1])))
    sums = np.add.reduceat(coeffs[order], starts)
    keep = sums != 0
    return _Numerator(exps[starts[keep]], sums[keep], bound)


def _lattice_indices(num: _Numerator) -> np.ndarray:
    """The exponents of a nonzero numerator as indices k on the lattice
    lo + 4Z; NotDivisible when they lie in more than one class mod 4."""
    offsets = num.exps - num.exps[0]
    if (offsets % 4).any():
        raise NotDivisible("numerator exponents lie in more than one class mod 4")
    return (offsets // 4).astype(np.int64, copy=False)


def _coefficient_sums(coeffs: np.ndarray, bound: int) -> np.ndarray:
    """The running sums of coeffs, each within bound; NotDivisible unless
    the last one is 0."""
    sums = np.cumsum(coeffs.astype(_dtype(bound), copy=False))
    if sums[-1]:
        raise NotDivisible("A^2 - A^-2 does not divide the numerator: "
                           "its coefficients do not sum to 0")
    return sums


def _materialize(num: _Numerator) -> LaurentPoly:
    """The dense J = N / (A^2 - A^-2), on step 4.

    With k the lattice indices of N's exponents and S the running sums of its
    coefficients, N[lo + 4k] = J[k - 1] - J[k] for J indexed from A^(lo + 2),
    so J is -S[i] on k[i] <= k < k[i + 1].  Each running sum is a coefficient
    of J, within the bound.  N is divisible exactly when its exponents lie in
    one class mod 4 and the last running sum is 0.
    """
    if not len(num.exps):
        return LaurentPoly.zero()
    k = _lattice_indices(num)
    sums = _coefficient_sums(num.coeffs, num.bound)
    return _make(int(num.exps[0]) + 2, np.repeat(-sums[:-1], np.diff(k)), num.bound, 4)


def _connsum(e: ConnSum, colors: tuple[int, ...], memo: dict) -> _Numerator:
    cl = component_count(e.left)
    left_colors = colors[:cl]
    tail = colors[cl:]
    n = colors[e.i - 1]
    right_colors = tail[:e.j - 1] + (n,) + tail[e.j - 1:]
    left = _jones(e.left, left_colors, memo)
    right = _jones(e.right, right_colors, memo)
    if not len(left.exps) or not len(right.exps):
        return _ZERO
    # N_l N_r on the lattice lo + 4Z, then divided by A^(2n) - A^(-2n) =
    # A^(-2n) (x^n - 1) with x = A^4.  Each partial sum of the product and
    # each running sum of the division adds distinct products c_l c_r, so
    # all of them lie within sum |N_l| * sum |N_r|.
    kl, kr = _lattice_indices(left), _lattice_indices(right)
    span = int(kl[-1]) + int(kr[-1]) + 1
    if span <= n:
        raise NotDivisible("degree span smaller than the divisor's")
    bound = _abs_sum(left) * _abs_sum(right)
    dtype = _dtype(bound)
    buf = np.zeros(-(-span // n) * n, dtype=dtype)
    _add_product(buf, kl, left.coeffs.astype(dtype, copy=False),
                 kr, right.coeffs.astype(dtype, copy=False))
    # The normalized invariant is multiplicative, so the division is exact.
    q = _divide_binomial(buf, span, n)
    return _sparse(_make(int(left.exps[0]) + int(right.exps[0]) + 2 * n, q, bound, 4))


def _abs_sum(num: _Numerator) -> int:
    """sum |N|, exactly: len(N) terms, each within num.bound."""
    dtype = _dtype(len(num.coeffs) * num.bound)
    return int(np.abs(num.coeffs.astype(dtype, copy=False)).sum())


def _sparse(p: LaurentPoly) -> _Numerator:
    """The nonzero engine numerator p, as a _Numerator with exact bound.

    Each running sum adds at most len(k) coefficients of p, so they run in
    int64 when len(k) bound(p) < 2^62; the bound kept is the larger of the
    exact maxima of |N| and of the running sums, that is of |J|.  p lies on
    a lattice of step 4, so its exponents need no check mod 4.
    """
    k = _support(p.coeffs)
    coeffs = p.coeffs[k]
    sums = _coefficient_sums(coeffs, len(k) * p._bound)
    exps = k.astype(_dtype(max(-p.val, p.maxdeg)), copy=False) * p.step + p.val
    return _Numerator(exps, coeffs, max(_max_abs(coeffs), _max_abs(sums)))


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
    J = colored_jones(e, colors, memo)
    for k in range(split_mult):
        try:
            J = divide_by_quantum_integer(J, colors[0])
        except NotDivisible:
            return DeferredRatio(J, colors[0], split_mult - k)
    return J
