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
merges equal exponents once.  A cable of a torus knot builds its sort keys
directly on the exponents' lattice, (((e - lo) / g) << c) | (2i + s), with
i the index of m and s the member of the knot's pair: the low bits pick
the term's coefficient from a table of 2 len(m) signed weights, so there is
no index array and no permutation to gather through.  The keys are int32
when the largest one is below 2^31 and int64 up to 2^63 - 1; past that the
cable is expanded child by child.  Concatenated children are merged on
int64 keys that pack the exponent above the term's index, with the
coefficients as the weights.  Either way one in-place np.sort orders the
keys, and each exponent's sum is a difference of running sums.  A cable of
the unknot, whose terms come in a few ascending runs, and keys that would
not fit int64 take a stable argsort and np.add.reduceat instead.  A
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
its largest coefficient or its value at a root of unity.  This module is
the one reader of a numerator's format: _statistics reads J's degrees off
N's ends and its largest coefficient off N's running sums, and
_moment_columns sums N's terms into the integer columns from which asympt
takes J's value at a root of unity.

Each numerator carries a proved bound B on the |coefficients| of both N and
J: 1 for the unknot, the child's bound for a twist, the sum over m of
C[m] times the child's bound for a cable, and the exact maxima of |N| and
of its running sums for a connected sum.  The merged sums and the running
sums stay within B, so they run in int64 when B < 2^62 and on Python ints
otherwise; a connected sum's product and division add distinct products
c_l c_r, so they stay within sum |N_l| * sum |N_r| and take their dtype
from that.  Exponents are int64 exactly when each |exponent| is below 2^62.

At A = 1 every power of A is 1, a trinomial table sums to its block's
product of colors, and a connected sum gives (n a)(n b) / n, so J(1) is the
product of the colors: no numerator is empty.

Results are memoized per computation on (subtree, color vector) as
numerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .laurent import (
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
    "DeferredRatio",
    "colored_jones",
    "normalized_jones",
]

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


_UNKNOT_COEFFS = np.array([-1, 1], dtype=np.int64)
_UNKNOT_COEFFS.setflags(write=False)  # shared by every unknot numerator


def colored_numerator(e: LinkExpr, colors, memo: dict | None = None) -> _Numerator:
    """The numerator N = J (A^2 - A^-2) of colored_jones(e, colors), sparse.

    Same arguments as :func:`colored_jones`.
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

    memo[key] = result
    return result


def _top(num: _Numerator) -> int:
    """The largest |exponent| of num."""
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
        packed = _torus_knot_keys(knot, table, p, rg, reach)
        if packed is not None:
            return _merge_packed(packed)

    terms = []
    bound = top = 0
    for m, c in table.items():
        j = m * p + 1
        if j == 0:
            continue
        child = _jones(e.child, prefix + (abs(j),) + suffix, memo)
        terms.append((rg * m * (m * p + 2), c if j > 0 else -c, child))
        bound += c * child.bound
        top = max(top, _top(child))
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


class _Packed(NamedTuple):
    """Unmerged terms as sort keys (k << bits) | payload: the term's exponent
    is lo + step k and its coefficient weights[payload]."""

    keys: np.ndarray  # int32 or int64, each within [0, _KEY_MAX]
    bits: int
    weights: np.ndarray
    lo: int
    step: int
    bound: int


# Sort keys must stay within int64; up to _KEY32_MAX they are int32.
_KEY_MAX = (1 << 63) - 1
_KEY32_MAX = (1 << 31) - 1


def _key_dtype(top_key: int):
    """The dtype of sort keys in [0, top_key]; None past int64."""
    if top_key <= _KEY32_MAX:
        return np.int32
    return np.int64 if top_key <= _KEY_MAX else None


def _torus_knot_keys(knot: Cable, table, p: int, rg: int, reach: int) -> _Packed | None:
    """The terms of the cable, with trinomial table `table`, of the torus
    knot `knot`, packed; None when their exponents or keys would not fit
    int64, and the caller then expands the cable child by child.

    The knot colored n is the cable of the unknot with p2 = s', rg2 = r'
    and a table of ones over m2 = -(n - 1) .. n - 1 step 2, so the whole
    cable is one double sum over (m, m2) with coefficient sign(j) C[m] for
    j = m p + 1 and n = |j|.  The largest |j| is w2 + 1 = w p + 1, so every
    exponent and every intermediate stays within `top`.

    Every |j| - 1 has the parity of w2, so the knot colored |j| is the knot
    colored w2 + 1 cut to its m2 with |m2| < |j|.  With the knot's terms laid
    out by ascending |m2|, as pairs -A^(shift - j2), +A^(shift + j2), that
    is their first 2|j|, and the m of index i copies one prefix, shifted by
    its offset rg m (m p + 2); an m with j = 0 copies none.

    A term's key is (((e - lo) / g) << c) | (2i + s).  Here e is its
    exponent; lo is the least offset plus the least knot exponent, so no
    greater than any e; g is the gcd of the offsets' and the knot
    exponents' differences from those least ones, so it divides every
    e - lo (g = 4 on the iterated cable of the trefoil); s = 0 or 1 is the
    member of the knot's pair; and c = bit_length(2 len(m) - 1).  The
    payload 2i + s picks the coefficient -+sign(j) C[m] from a table of
    2 len(m) weights.  With hi the greatest offset plus the greatest knot
    exponent, no key exceeds (((hi - lo) / g) << c) | (2^c - 1), which is
    checked in exact integers: the keys are int32 up to 2^31 - 1 (27 bits
    at N = 48) and int64 up to 2^63 - 1.

    Each pair of one m sums to 0, so any set of that m's terms sums to at
    most C[m] per pair: every partial sum of the terms, in any order, stays
    within sum C[m] |j|, the bound that summing the children one by one
    gives.
    """
    p2, rg2 = knot.s, knot.r
    w = table.width
    w2 = w * p
    top = max(reach + abs(rg2) * w2 * (w2 * p2 + 2) + 2 * (w2 * p2 + 1),
              abs(rg), p, abs(rg2), p2)
    if _dtype(top) is object:
        return None
    m = np.arange(-w, w + 1, 2, dtype=np.int64)
    j = m * p + 1
    sizes = 2 * np.abs(j)  # the knot colored n has 2n terms
    bound = int(table.array.astype(object) @ sizes) // 2
    # m2 = 0, -2, 2, -4, 4, ... (w2 even) or -1, 1, -3, 3, ... (w2 odd).
    half = np.arange(w2 % 2, w2 + 1, 2, dtype=np.int64)
    m2 = np.stack((-half, half), axis=1).reshape(-1)[1 - w2 % 2:]
    shift, j2 = rg2 * m2 * (m2 * p2 + 2), 2 * (m2 * p2 + 1)
    # The knot's exponents, turned into its keys in place below.
    knot_keys = np.stack((shift - j2, shift + j2), axis=1).reshape(-1)
    offsets = rg * m * (m * p + 2)

    # Keys of offsets[i] + knot_keys[t] - lo, lo the least sum of the two;
    # an m with j = 0 copies no terms, but its offset still bounds the rest.
    omin, kmin = int(offsets.min()), int(knot_keys.min())
    offsets -= omin
    knot_keys -= kmin
    g = int(np.gcd.reduce(np.concatenate((offsets, knot_keys)))) or 1
    c = (2 * len(m) - 1).bit_length()
    top_key = (int(offsets.max()) + int(knot_keys.max())) // g << c | ((1 << c) - 1)
    kdtype = _key_dtype(top_key)
    if kdtype is None:
        return None

    knot_keys //= g
    knot_keys <<= c
    knot_keys[1::2] |= 1
    knot_keys = knot_keys.astype(kdtype)
    offsets //= g
    offsets <<= c
    offsets += np.arange(0, 2 * len(m), 2)  # now each m's key base
    ends = np.cumsum(sizes)
    keys = np.empty(int(ends[-1]), dtype=kdtype)
    for base, size, end in zip(offsets.tolist(), sizes.tolist(), ends.tolist()):
        np.add(knot_keys[:size], base, out=keys[end - size:end])
    weights = np.empty(2 * len(m), dtype=_dtype(bound))
    weights[1::2] = table.array
    weights[1::2][j < 0] *= -1
    np.negative(weights[1::2], out=weights[::2])
    return _Packed(keys, c, weights, omin + kmin, g, bound)


def _merge_packed(packed: _Packed) -> _Numerator:
    """Sum the packed terms' coefficients at equal exponents, dropping zeros.

    One in-place sort puts the keys in exponent order; each term's
    coefficient is weights[key & (2^bits - 1)], and each exponent's sum is
    the difference of the running sums at its last term and at the last
    term before it.  Such a running sum adds every term at a smaller
    exponent, which for a sum of shifted and scaled children is a signed
    sum of the children's running sums, minus coefficients of their J, so
    within `bound`; and a partial sum of the terms at one exponent, also
    within `bound`.  So with int64 weights (bound < 2^62) no running sum
    leaves 2 bound < 2^63; as int64 sums wrap mod 2^64, each difference
    would be exact even if one did.  Object weights sum exactly.
    """
    keys, bits, weights, lo, step, bound = packed
    keys.sort()
    coeffs = weights.take(keys & ((1 << bits) - 1))
    keys >>= bits
    last = np.empty(len(keys), dtype=bool)  # the last term of each exponent
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    last[-1] = True
    sums = np.cumsum(coeffs, out=coeffs)[last]
    sums[1:] -= sums[:-1].copy()
    nonzero = sums != 0
    exps = keys[last][nonzero].astype(np.int64)
    exps *= step
    exps += lo
    return _Numerator(exps, sums[nonzero], bound)


def _merge(exps: np.ndarray, coeffs: np.ndarray, bound: int,
           few_runs: bool = False) -> _Numerator:
    """Sum the coefficients of equal exponents and drop the zeros.

    At one exponent, the terms from one m add up in absolute value to at
    most C[m] times its child's bound, so every partial sum stays within
    `bound`.

    The terms go to _merge_packed as the int64 keys
    ((exp - lo) << b) | index, b = bit_length(n - 1) for n terms, lo and hi
    the least and greatest exponent, with the coefficients as the weights:
    the keys are distinct and their order is the exponents' stable order.
    Every key is at most ((hi - lo) << b) | (n - 1), which is checked
    against 2^63 - 1 in exact integers, so no key wraps.  On the merges of
    two three-level cable chains (2.4k to 26k terms) the running-sum tail
    took as long as the permutation gather and np.add.reduceat it replaced
    up to 8k terms, and 3-6% less from 9k up.

    Object exponents, a span too wide for the shift, and terms that come in
    a few ascending runs (`few_runs`) take a stable argsort instead, whose
    timsort merges a few runs in linear time, and np.add.reduceat.  A cable
    of the unknot gives at most four runs.  On its terms packed keys
    measured 1.2-2x slower (T(2,3) at N = 512: 16.8 us against 10.8 us), and
    a running-sum tail after the argsort no faster (11.0 us).
    """
    n = len(exps)
    b = (n - 1).bit_length()
    lo = None if few_runs or exps.dtype == object else int(exps.min())
    if lo is not None and ((int(exps.max()) - lo) << b) | (n - 1) <= _KEY_MAX:
        key = exps - lo
        key <<= b
        key |= np.arange(n, dtype=np.int64)
        return _merge_packed(_Packed(key, b, coeffs, lo, 1, bound))
    order = np.argsort(exps, kind="stable")
    exps = exps[order]
    starts = np.flatnonzero(np.concatenate(([True], exps[1:] != exps[:-1])))
    sums = np.add.reduceat(coeffs[order], starts)
    keep = sums != 0
    return _Numerator(exps[starts[keep]], sums[keep], bound)


def _lattice_indices(num: _Numerator) -> np.ndarray:
    """The exponents of a numerator as indices k on the lattice lo + 4Z;
    NotDivisible when they lie in more than one class mod 4, MemoryError
    when the last index does not fit int64."""
    offsets = num.exps - num.exps[0]
    if (offsets % 4).any():
        raise NotDivisible("numerator exponents lie in more than one class mod 4")
    if int(offsets[-1]) // 4 > _KEY_MAX:
        raise MemoryError(f"a numerator spanning {int(offsets[-1])} exponents "
                          "has more lattice steps than int64 holds")
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
    k = _lattice_indices(num)
    sums = _coefficient_sums(num.coeffs, num.bound)
    return _make(int(num.exps[0]) + 2, np.repeat(-sums[:-1], np.diff(k)), num.bound, 4)


def _statistics(num: _Numerator) -> tuple[int, int, int]:
    """J's (maxdeg, mindeg, largest |coefficient|), read as _materialize
    would build J, without building it.

    J runs from A^(lo + 2) to A^(hi - 2), its coefficients are minus the
    running sums of N, and the last running sum is 0.
    """
    sums = _coefficient_sums(num.coeffs, num.bound)
    return int(num.exps[-1]) - 2, int(num.exps[0]) + 2, _max_abs(sums[:-1])


_CHUNK = 1 << 18  # terms per pass of _moment_columns: temporaries of a few MB


def _moment_columns(num: _Numerator, m: int, k: int) -> np.ndarray:
    """X_i[r] = sum c q^i for i <= k, over num's terms c A^(m q + r).

    The columns are int64 when len(num) B qmax^k for num's bound B, or
    the mass sum |c| qmax^k, keeps every sum, and sum_r |X_i[r]| as
    laurent._exact_value needs, below 2^62; otherwise they hold Python ints.
    """
    exps, coeffs, bound = num
    qmax = _top(num) // m + 1  # every |q| <= |e| // m + 1
    dtype = _dtype(len(exps) * bound * qmax ** k)
    if dtype is object:
        dtype = _dtype(_abs_sum(num) * qmax ** k)
    return _sum_columns(exps, coeffs, m, k, dtype)


def _sum_columns(exps, coeffs, m: int, k: int, dtype) -> np.ndarray:
    """_moment_columns' columns X summed in `dtype`."""
    x = np.zeros((k + 1, m), dtype=dtype)
    for start in range(0, len(exps), _CHUNK):
        part = slice(start, start + _CHUNK)
        q = exps[part] // m
        r = (exps[part] - q * m).astype(np.int64, copy=False)
        w, q = coeffs[part].astype(dtype, copy=False), q.astype(dtype, copy=False)
        for i in range(k + 1):
            if i:
                w = w * q
            np.add.at(x[i], r, w)
    return x


def _connsum(e: ConnSum, colors: tuple[int, ...], memo: dict) -> _Numerator:
    cl = component_count(e.left)
    left_colors = colors[:cl]
    tail = colors[cl:]
    n = colors[e.i - 1]
    right_colors = tail[:e.j - 1] + (n,) + tail[e.j - 1:]
    left = _jones(e.left, left_colors, memo)
    right = _jones(e.right, right_colors, memo)
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
