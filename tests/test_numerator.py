"""Referee for the numerator engine of cablejones.jones.

The referee is the dense recursion the engine replaced: every value is a
LaurentPoly, a cable adds up its terms child.scale_shift(c, shift) with +,
a connected sum multiplies and divides by [n], and values whose exponent
span exceeds a limit are not memoized.  colored_jones must give literally the same polynomial, in the
same dtype, on cables of the unknot and of everything else, negative
windings, colors through zero, twists, connected sums on both sides of a
cable, and inputs that push coefficients or exponents past int64.
"""

import numpy as np
import pytest

from cablejones import jones
from cablejones.jones import _materialize, _Numerator, colored_jones
from cablejones.laurent import (
    LaurentPoly,
    NotDivisible,
    divide_by_quantum_integer,
    quantum_integer,
)
from cablejones.linkexpr import (
    Cable,
    ConnSum,
    Twist,
    Unknot,
    cable_gcd,
    component_count,
    parse,
)
from cablejones.trinomial import trinomial_table

from conftest import random_expr

REFEREE_SPAN_LIMIT = 1 << 20


def referee(e, colors, memo=None) -> LaurentPoly:
    memo = {} if memo is None else memo
    key = (e, colors)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(e, Unknot):
        result = quantum_integer(colors[0])
    elif isinstance(e, Twist):
        n = colors[e.i - 1]
        result = referee(e.child, colors, memo).scale_shift(1, e.f * (n * n - 1))
    elif isinstance(e, Cable):
        result = referee_cable(e, colors, memo)
    elif isinstance(e, ConnSum):
        cl = component_count(e.left)
        n = colors[e.i - 1]
        tail = colors[cl:]
        right_colors = tail[:e.j - 1] + (n,) + tail[e.j - 1:]
        product = referee(e.left, colors[:cl], memo) * referee(e.right, right_colors, memo)
        result = divide_by_quantum_integer(product, n)
    else:
        raise TypeError(e)
    if result.is_zero() or result.maxdeg - result.mindeg + 1 <= REFEREE_SPAN_LIMIT:
        memo[key] = result
    return result


def referee_cable(e, colors, memo) -> LaurentPoly:
    g = cable_gcd(e.r, e.s)
    p, rg, i0 = e.s // g, e.r // g, e.i - 1
    table = trinomial_table(colors[i0: i0 + g])
    total = LaurentPoly.zero()
    for m, c in table.items():
        j = m * p + 1
        if j == 0:
            continue
        child_colors = colors[:i0] + (abs(j),) + colors[i0 + g:]
        child = referee(e.child, child_colors, memo)
        total = total + child.scale_shift(c if j > 0 else -c, rg * m * (m * p + 2))
    return total


def same(got: LaurentPoly, expected: LaurentPoly):
    """Equal values in the same dtype, and the engine's value on step 4."""
    assert got == expected
    assert got.coeffs.dtype == expected.coeffs.dtype
    if len(got.coeffs) > 1:
        assert got.step == 4


def agree(text: str, *color_vectors):
    e = parse(text)
    for colors in color_vectors:
        same(colored_jones(e, colors), referee(e, colors))


class TestAgainstTheDenseRecursion:
    def test_cables_of_the_unknot(self):
        agree("cable(2,3;1;unknot)", (1,), (2,), (7,), (30,))
        agree("cable(0,3;1;unknot)", (1, 2, 3), (4, 1, 2))
        agree("cable(2,4;1;unknot)", (3, 2), (4, 4), (1, 5))     # g = 2
        agree("cable(6,4;1;unknot)", (3, 5), (2, 2))             # g = 2, r/g = 3

    def test_negative_windings(self):
        agree("cable(-3,2;1;unknot)", (2,), (5,))
        agree("cable(-2,5;1;cable(3,2;1;unknot))", (3,), (4,))
        agree("cable(-4,6;1;unknot)", (2, 3), (3, 3))

    def test_colors_through_zero(self):
        # p = 1: the term m = -1 has child color m p + 1 = 0.
        agree("cable(3,1;1;unknot)", (2,), (4,), (7,))
        agree("cable(-2,1;1;cable(2,3;1;unknot))", (3,), (6,))
        agree("cable(2,2;1;cable(2,3;1;unknot))", (2, 3), (4, 1))

    def test_twists_inside_cables(self):
        agree("cable(2,3;1;twist(2;1;unknot))", (3,), (5,))
        agree("cable(3,2;1;twist(-1;1;cable(2,3;1;unknot)))", (2,), (4,))
        agree("twist(5;1;cable(2,5;1;twist(-3;1;unknot)))", (4,))

    def test_connected_sums_under_and_over_cables(self):
        agree("cable(2,3;1;connsum(cable(2,3;1;unknot),1;cable(-2,5;1;unknot),1))",
              (2,), (4,))
        agree("connsum(cable(2,3;1;unknot),1;cable(2,5;1;cable(3,2;1;unknot)),1)",
              (3,), (5,))
        agree("cable(0,2;1;connsum(cable(2,3;1;unknot),1;unknot,1))", (2, 3))

    def test_three_level_iterated_cable(self):
        agree("cable(2,3;1;cable(2,5;1;cable(3,2;1;unknot)))", (2,), (3,), (4,))
        agree("cable(2,13;1;cable(2,3;1;unknot))", (6,), (12,))

    def test_links_with_several_components(self):
        agree("cable(2,3;2;cable(0,2;1;unknot))", (2, 3), (3, 1))
        agree("cable(1,2;1;cable(2,3;2;cable(0,2;1;unknot)))", (2, 3), (3, 2))
        agree("connsum(cable(0,2;1;unknot),2;cable(2,4;1;unknot),1)", (2, 3, 2))

    def test_random_expressions(self, rng):
        for _ in range(60):
            e = random_expr(rng)
            colors = tuple(rng.randint(1, 4) for _ in range(component_count(e)))
            same(colored_jones(e, colors), referee(e, colors))

    def test_shared_memo_across_calls(self):
        e = parse("cable(2,3;1;cable(2,5;1;unknot))")
        memo = {}
        for n in (3, 4, 3, 5):
            same(colored_jones(e, (n,), memo), referee(e, (n,)))
        assert (e.child, (13,)) in memo


class TestCoefficientGuards:
    """Bounds of 2^62 and beyond: object arithmetic, exact results."""

    def test_table_total_at_the_edge_demotes_the_result(self):
        # The table of 62 colors 2 sums to 2^62, so the numerator sums run
        # on Python ints; [2]^62 has coefficients below 2^62, so the result
        # comes back in int64.
        e = parse("cable(0,62;1;unknot)")
        colors = (2,) * 62
        assert trinomial_table(colors).total() == 2 ** 62
        assert jones._jones(e, colors, {}).coeffs.dtype == object
        got = colored_jones(e, colors)
        same(got, referee(e, colors))
        assert got == quantum_integer(2) ** 62 and got.coeffs.dtype == np.int64

    def test_cable_of_the_unknot_past_int64(self):
        e = parse("cable(0,48;1;unknot)")
        colors = (3,) * 48
        got = colored_jones(e, colors)
        assert got.max_abs_coeff() >= 2 ** 63 and got.coeffs.dtype == object
        same(got, referee(e, colors))
        assert got == quantum_integer(3) ** 48

    def test_cable_of_a_cable_past_int64(self):
        e = parse("cable(1,2;1;cable(0,48;1;unknot))")
        for first in (2, 3):
            colors = (first,) + (3,) * 47
            same(colored_jones(e, colors), referee(e, colors))

    def test_connected_sum_past_int64(self):
        e = parse("cable(1,2;1;connsum(cable(0,48;1;unknot),1;cable(2,3;1;unknot),1))")
        colors = (2,) + (3,) * 47
        same(colored_jones(e, colors), referee(e, colors))


class TestExponentGuards:
    """Exponents of 2^62 and beyond.  The dense referee cannot span them,
    so these compare against closed forms: an (r,1)-cable is an r-twist."""

    R = 2 ** 61 + 1

    def twisted(self, n: int, f: int) -> LaurentPoly:
        return quantum_integer(n).scale_shift(1, f * (n * n - 1))

    def test_cable_of_the_unknot(self):
        for n in (2, 3, 5):
            same(colored_jones(Cable(Unknot(), 1, self.R, 1), (n,)), self.twisted(n, self.R))
        # All colors 1 leave the single term m = 0, but r and s still exceed int64.
        e = Cable(Unknot(), 1, 2 ** 70 + 1, 3)
        assert colored_jones(e, (1,)) == LaurentPoly.one()
        e = Cable(Unknot(), 1, 1, 2 ** 70)
        assert colored_jones(e, (1,)) == LaurentPoly.one()

    def test_cable_of_a_twist(self):
        e = Cable(Twist(Unknot(), 1, 0), 1, self.R, 1)
        same(colored_jones(e, (3,)), self.twisted(3, self.R))
        e = Cable(Twist(Unknot(), 1, self.R), 1, 1, 1)
        same(colored_jones(e, (3,)), self.twisted(3, self.R + 1))

    def test_twist(self):
        for f in (2 ** 62, -(2 ** 62), self.R * 3):
            same(colored_jones(Twist(Unknot(), 1, f), (2,)), self.twisted(2, f))
        e = Twist(Twist(Unknot(), 1, 2 ** 59), 1, 2 ** 59)
        same(colored_jones(e, (3,)), self.twisted(3, 2 ** 60))

    def test_connected_sum_inside_a_cable(self):
        e = Cable(ConnSum(Twist(Unknot(), 1, self.R), 1, Unknot(), 1), 1, 1, 1)
        same(colored_jones(e, (3,)), self.twisted(3, self.R + 1))

    def test_unknot_numerator(self):
        n = 2 ** 62
        num = jones._jones(Unknot(), (n,), {})
        assert num.exps.tolist() == [-2 * n, 2 * n] and num.coeffs.tolist() == [-1, 1]


class TestMaterialize:
    @staticmethod
    def numerator(terms, bound=1) -> _Numerator:
        exps, coeffs = zip(*sorted(terms))
        return _Numerator(np.array(exps), np.array(coeffs), bound)

    def test_quantum_integers(self):
        for n in (1, 2, 5):
            num = self.numerator([(2 * n, 1), (-2 * n, -1)])
            assert _materialize(num) == quantum_integer(n)

    def test_exponents_in_two_classes_mod_4(self):
        # (A^2 - A^-2)(1 + A) is divisible, but not on one lattice of step 4.
        num = self.numerator([(2, 1), (3, 1), (-2, -1), (-1, -1)])
        with pytest.raises(NotDivisible):
            _materialize(num)

    def test_nonzero_last_running_sum(self):
        for terms in ([(0, 1)], [(-2, 1), (2, 1)], [(-6, -1), (2, 1), (6, 1)]):
            with pytest.raises(NotDivisible):
                _materialize(self.numerator(terms))
