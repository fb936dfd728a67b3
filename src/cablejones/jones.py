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

Results are memoized per computation on (subtree, color vector); values
whose exponent span maxdeg - mindeg + 1 exceeds MEMO_SPAN_LIMIT, whatever
their stored length, are recomputed on a repeat query instead of being
cached, which keeps iterated-cabling sweeps from pinning hundreds of
megabytes of intermediate polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import (
    LaurentPoly,
    NotDivisible,
    PolyAccumulator,
    divide_by_quantum_integer,
    quantum_integer,
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
    return _jones(e, colors, memo)


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
    result = _jones(e, cols, memo)
    return result if sign == 1 else -result


def _jones(e: LinkExpr, colors: tuple[int, ...], memo: dict) -> LaurentPoly:
    key = (e, colors)
    hit = memo.get(key)
    if hit is not None:
        return hit

    if isinstance(e, Unknot):
        result = quantum_integer(colors[0])
    elif isinstance(e, Twist):
        child = _jones(e.child, colors, memo)
        n = colors[e.i - 1]
        result = child.scale_shift(1, e.f * (n * n - 1))
    elif isinstance(e, Cable):
        result = _cable(e, colors, memo)
    elif isinstance(e, ConnSum):
        result = _connsum(e, colors, memo)
    else:
        raise TypeError(f"not a link expression: {e!r}")

    if result.is_zero() or result.maxdeg - result.mindeg + 1 <= MEMO_SPAN_LIMIT:
        memo[key] = result
    return result


def _cable(e: Cable, colors: tuple[int, ...], memo: dict) -> LaurentPoly:
    g = cable_gcd(e.r, e.s)
    p = e.s // g
    rg = e.r // g
    i0 = e.i - 1
    block = colors[i0: i0 + g]
    prefix = colors[:i0]
    suffix = colors[i0 + g:]
    table = trinomial_table(block)

    acc = PolyAccumulator()
    # Descending |m| puts the extreme exponents (and the widest children)
    # first; after the first child the accumulator can be presized for the
    # whole sum, since children only narrow as |m| falls.
    order = sorted(table.support(), key=abs, reverse=True)
    first = True
    for m in order:
        c = table[m]
        j = m * p + 1
        if j == 0:
            continue
        sign = 1 if j > 0 else -1
        child_colors = prefix + (abs(j),) + suffix
        child = _jones(e.child, child_colors, memo)
        shift = rg * m * (m * p + 2)
        if first and not child.is_zero():
            first = False
            shifts = [rg * mm * (mm * p + 2) for mm in order]
            acc.hint_bounds(min(shifts) + child.val,
                            max(shifts) + child.maxdeg + 1)
        acc.add(sign * c, shift, child)
    return acc.result()


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
    product = _jones(e.left, left_colors, memo) * _jones(e.right, right_colors, memo)
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
