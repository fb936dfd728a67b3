"""Referees from theorems that do not use the cabling formula.

Melvin-Morton-Rozansky: at zero framing, the top diagonal of J_N/[N] at
A = e^u, as a series in x = N u, is 1/Delta_K(e^(4x)) (Bar-Natan and
Garoufalidis, Invent. Math. 125, 1996).  Delta_K comes from Seifert's
formula for cables and products for connected sums, so the check reaches
every depth of the cabling sum without using it.

Kontsevich-Zagier: for q = A0^4 = exp(2 pi i / N), the zero-framed trefoil
has J'_N(A0) = q sum_{n<N} (q;q)_n (Zagier, "Vassiliev invariants and a
strange identity related to the Dedekind eta-function", Topology 40, 2001).
The sum is taken exactly, as integer columns modulo q^N - 1, so the check
runs at any N, far past where the cabling sum's own oracles stop.

Degrees: the highest and lowest degrees of J_N are quadratic
quasi-polynomials in N (Garoufalidis, "The degree of a q-holonomic sequence
is a quadratic quasi-polynomial"), so their second differences are
periodic in N.  For a knot of positive framing f the highest degree gains
2f per step of its second difference, and a cable of negative framing
moves the quadratic growth to the lowest degree, at the rate 2 r s of its
winding (Kalfagianni and Tran, "Knot cabling and the degree of the colored
Jones polynomial").
"""

import cmath
import functools
import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from cablejones import parse
from cablejones.asympt import eval_normalized_at_root
from cablejones.jones import _statistics, colored_numerator
from cablejones.linkexpr import Cable, Twist, Unknot, component_count, mirror_expr

from conftest import random_expr

ITERATED_TEXT = "cable(2,13;1;cable(2,3;1;unknot))"

TREFOIL = parse("twist(-6;1;cable(2,3;1;unknot))")


def kontsevich_zagier(n: int) -> complex:
    """q sum_{k<n} (q;q)_k at q = exp(2 pi i / n).

    (q;q)_(k+1) = (q;q)_k - q^(k+1) (q;q)_k, a roll of its columns modulo
    q^n - 1.  The columns are Python ints: they reach 116 bits at n = 512,
    while their sum stays within 12 bits up to n = 2048, so the one float
    dot at the end rounds only the powers of q.
    """
    poch = np.zeros(n, dtype=object)
    poch[0] = 1
    total = poch.copy()
    for k in range(1, n):
        poch = poch - np.roll(poch, k)
        total += poch
    q = np.exp(2j * np.pi * np.arange(n) / n)
    return complex(total.astype(float) @ q) * q[1 % n]


class TestKontsevichZagier:
    @pytest.mark.parametrize("n", [1, 5, 16, 64, 512, 2048])
    def test_trefoil_and_its_mirror(self, n):
        expected = kontsevich_zagier(n)
        value = eval_normalized_at_root(TREFOIL, n)
        assert abs(value / expected - 1) < 1e-14
        mirrored = eval_normalized_at_root(mirror_expr(TREFOIL), n)
        assert abs(mirrored - expected.conjugate()) < 1e-14 * abs(expected)

    def test_small_sums_by_hand(self):
        # N = 1: q = 1 and the sum is (q;q)_0 = 1.  N = 2: q = -1, and
        # q ((q;q)_0 + (q;q)_1) = -(1 + 2) = -3.
        assert kontsevich_zagier(1) == 1
        assert abs(kontsevich_zagier(2) + 3) < 1e-15
        q = cmath.exp(2j * cmath.pi / 3)
        assert abs(kontsevich_zagier(3) - q * (1 + (1 - q) + (1 - q) * (1 - q * q))) < 1e-14


# -- Melvin-Morton-Rozansky ---------------------------------------------------

MMR_ORDER = 6


def series_mul(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def series_inv(a):
    """1/a as a series, a[0] != 0."""
    out = [1 / Fraction(a[0])]
    for k in range(1, len(a)):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0])
    return out


def exp_series(c, order):
    """e^(c y)."""
    return [Fraction(c) ** j / factorial(j) for j in range(order + 1)]


def torus_alexander(p: int, q: int, order: int):
    """The symmetric Alexander polynomial of T(p, q) at t = e^y, as a series
    in y: (t^(pq) - 1)(t - 1)/((t^p - 1)(t^q - 1)) t^(-(p-1)(q-1)/2), each
    t^c - 1 = c y g(c y) with g(z) = (e^z - 1)/z.  T(1, q) is the unknot."""
    q = abs(q)

    def g(c):
        return [Fraction(c ** j, factorial(j + 1)) for j in range(order + 1)]

    top = series_mul(series_mul(exp_series(Fraction(-(p - 1) * (q - 1), 2), order),
                                g(p * q)), g(1))
    return series_mul(top, series_inv(series_mul(g(p), g(q))))


def framing_and_alexander(e, order: int):
    """The framing f the engine gives the knot e, by README's rule, and its
    Alexander polynomial at t = e^y as a series in y, by Seifert's formula:
    a cable's is Delta_K(t^s) Delta_T(s, r + s f_K)(t), a connected sum's the
    product of its factors'.  Neither uses the cabling sum."""
    if isinstance(e, Unknot):
        return 0, [Fraction(1)] + [Fraction(0)] * order
    if isinstance(e, Twist):
        f, delta = framing_and_alexander(e.child, order)
        return f + e.f, delta
    if isinstance(e, Cable):
        f, delta = framing_and_alexander(e.child, order)
        scaled = [c * e.s ** j for j, c in enumerate(delta)]  # Delta_K(t^s)
        return (e.r * e.s + e.s ** 2 * f,
                series_mul(scaled, torus_alexander(e.s, e.r + e.s * f, order)))
    fl, left = framing_and_alexander(e.left, order)
    fr, right = framing_and_alexander(e.right, order)
    return fl + fr, series_mul(left, right)


def top_diagonal(e, f: int, order: int):
    """The top coefficients b_j, j <= order, of J_N/[N] for twist(-f;1;e) at
    A = e^u, expanded as sum_j a_j(N) u^j with b_j the N^j coefficient of
    a_j; None unless every a_j is a polynomial in N of degree at most j.

    J_N/[N] is the numerator over A^(2N) - A^(-2N), both series exact in
    Fractions from N = 1 to order + 2.  The (j+1)-th finite differences of
    a_j over those N must vanish, and the j-th is j! b_j."""
    rows = []
    for n in range(1, order + 3):
        num = colored_numerator(Twist(e, 1, -f), (n,))
        k, w = num.exps.astype(object), num.coeffs.astype(object)
        moments = []
        for j in range(order + 2):
            moments.append(Fraction(int(w.sum()), factorial(j)))
            w = w * k
        den = [Fraction(2 * (2 * n) ** j * (j % 2), factorial(j)) for j in range(order + 2)]
        rows.append(series_mul(moments[1:], series_inv(den[1:])))
    tops = []
    for j in range(order + 1):
        diffs = [row[j] for row in rows]
        for _ in range(j):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if len(set(diffs)) > 1:
            return None
        tops.append(diffs[0] / factorial(j))
    return tops


def inverse_alexander(e, order: int):
    """1/Delta_K(e^(4x)) as a series in x, the top diagonal MMR predicts."""
    _, delta = framing_and_alexander(e, order)
    return [c * 4 ** j for j, c in enumerate(series_inv(delta))]


MMR_KNOTS = (
    "cable(2,3;1;unknot)", "cable(3,4;1;unknot)", ITERATED_TEXT,
    "cable(2,5;1;cable(2,3;1;cable(2,3;1;unknot)))",
    "cable(1,2;1;cable(3,2;1;cable(2,3;1;cable(2,3;1;unknot))))",
    "cable(-3,2;1;cable(2,5;1;unknot))", "cable(-1,2;1;cable(2,3;1;unknot))",
    "cable(2,3;1;twist(2;1;cable(2,5;1;unknot)))",
    "connsum(cable(2,3;1;unknot),1;cable(2,5;1;unknot),1)",
    "cable(3,2;1;connsum(cable(2,3;1;unknot),1;cable(2,5;1;unknot),1))",
)


class TestMelvinMortonRozansky:
    """The top diagonal of J_N/[N] at zero framing is 1/Delta_K(e^(4x)),
    x = N u (Bar-Natan and Garoufalidis, Invent. Math. 125, 1996), with
    Delta_K from Seifert's formula: the cabling sum checked at every depth
    against a formula that does not use it."""

    @staticmethod
    def agrees(e) -> bool:
        f, _ = framing_and_alexander(e, MMR_ORDER)
        return top_diagonal(e, f, MMR_ORDER) == inverse_alexander(e, MMR_ORDER)

    @pytest.mark.parametrize("text", MMR_KNOTS)
    def test_knots(self, text):
        assert self.agrees(parse(text))

    def test_random_knots(self):
        # Seeded knot trees whose Alexander polynomial is not 1.
        rng = random.Random(29)
        knots = []
        while len(knots) < 10:
            e = random_expr(rng, depth=3)
            if component_count(e) == 1 and inverse_alexander(e, 2)[2]:
                knots.append(e)
        for e in knots:
            assert self.agrees(e), e

    def test_a_framing_off_by_one_is_caught(self):
        e = parse(ITERATED_TEXT)
        assert framing_and_alexander(e, MMR_ORDER)[0] == 1040
        assert top_diagonal(e, 1039, MMR_ORDER) is None

    def test_a_mirrored_inner_trefoil_is_caught(self):
        e = parse(ITERATED_TEXT)
        mirrored = parse("cable(2,13;1;cable(-2,3;1;unknot))")
        assert top_diagonal(mirrored, 1040, MMR_ORDER) is None
        f, _ = framing_and_alexander(mirrored, MMR_ORDER)
        assert top_diagonal(mirrored, f, MMR_ORDER) != inverse_alexander(e, MMR_ORDER)


# (family, largest N): from N = 5 the second differences of J_N's degrees
# repeat with period at most 2.
DEGREE_FAMILIES = (
    ("cable(2,3;1;unknot)", 40),
    ("cable(2,4;1;unknot)", 40),
    (ITERATED_TEXT, 40),
    ("cable(2,5;1;cable(2,3;1;cable(2,3;1;unknot)))", 24),
    ("cable(4,6;1;cable(2,3;1;unknot))", 40),
    ("connsum(cable(2,3;1;unknot),1;cable(-2,5;1;unknot),1)", 40),
    ("cable(-13,2;1;cable(2,3;1;unknot))", 40),
    ("cable(-5,2;1;cable(2,3;1;unknot))", 40),
    ("cable(-3,2;1;cable(2,5;1;unknot))", 40),
)


@functools.lru_cache(maxsize=None)
def second_differences(text: str, top: int) -> np.ndarray:
    """Rows N = 5 .. top - 2 of the second differences of (maxdeg, mindeg)
    of J_N, every component colored N."""
    e = parse(text)
    degrees = [_statistics(colored_numerator(e, (n,) * component_count(e)))[:2]
               for n in range(5, top + 1)]
    return np.diff(np.array(degrees), 2, axis=0)


class TestDegreesAreQuasiPolynomials:
    @pytest.mark.parametrize("text, top", DEGREE_FAMILIES)
    def test_period_at_most_two(self, text, top):
        d2 = second_differences(text, top)
        assert (d2[2:] == d2[:-2]).all(), d2.tolist()

    def test_positive_framing_sets_the_top_degree(self):
        doubled = []
        for text, top in DEGREE_FAMILIES:
            e = parse(text)
            f = framing_and_alexander(e, 0)[0] if component_count(e) == 1 else 0
            if f > 0:
                assert (second_differences(text, top)[:, 0] == 2 * f).all(), text
                doubled.append(2 * f)
        assert doubled == [12, 2080, 3020, 28, 68]

    def test_negative_framing_moves_to_the_bottom_degree(self):
        text = "cable(-13,2;1;cable(2,3;1;unknot))"
        e = parse(text)
        assert framing_and_alexander(e, 0)[0] == -2
        d2 = second_differences(text, 40)
        assert (d2[:, 0] == 0).all()
        assert (d2[:, 1] == 2 * e.r * e.s).all() and 2 * e.r * e.s == -52
