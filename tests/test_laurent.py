import pytest

from cablejones.laurent import (
    LaurentPoly,
    NotDivisible,
    RootOfUnityPoint,
    divide_by_quantum_integer,
    quantum_integer,
)

from conftest import random_poly


def lp(*terms):
    return LaurentPoly.from_terms(terms)


class TestQuantumInteger:
    def test_small_values(self):
        assert quantum_integer(1) == LaurentPoly.one()
        assert quantum_integer(2) == lp((2, 1), (-2, 1))
        assert quantum_integer(3) == lp((4, 1), (0, 1), (-4, 1))
        assert quantum_integer(0).is_zero()

    def test_odd_symmetry(self):
        for n in range(0, 9):
            assert quantum_integer(-n) == -quantum_integer(n)

    def test_palindromic(self):
        for n in range(1, 9):
            assert quantum_integer(n).mirror() == quantum_integer(n)


class TestArithmetic:
    def test_add_examples(self):
        q2, q3 = quantum_integer(2), quantum_integer(3)
        assert (q2 + (-q2)).is_zero()
        assert q3 + 1 == lp((4, 1), (0, 2), (-4, 1))
        p = lp((5, 3), (-1, 2))
        assert LaurentPoly.zero() + p == p

    def test_mul_examples(self):
        q2 = quantum_integer(2)
        assert q2 * q2 == quantum_integer(3) + quantum_integer(1)
        assert LaurentPoly.monomial(1, 10) * quantum_integer(4) == \
            lp((16, 1), (12, 1), (8, 1), (4, 1))
        assert lp((1, 1), (-1, -1)) * lp((1, 1), (-1, 1)) == lp((2, 1), (-2, -1))

    def test_integer_operands(self):
        p = lp((4, 2), (0, 5))
        assert 3 - p == lp((4, -2), (0, -2))
        assert p - 3 == lp((4, 2), (0, 2))
        assert lp((0, 3)) == 3 and p != 5
        assert not LaurentPoly.zero() and p
        assert LaurentPoly.zero().max_abs_coeff() == 0

    def test_foreign_operands(self):
        p = lp((4, 2), (0, 5))
        assert p != "p" and p != 5.0
        for op in (lambda: p + "p", lambda: p - "p", lambda: p * "p",
                   lambda: p + 1.5, lambda: p * 1.5):
            with pytest.raises(TypeError):
                op()

    def test_canonical_form(self):
        assert LaurentPoly(0, [0, 0, 1, 0, 0]) == LaurentPoly(2, [1])
        assert LaurentPoly(5, [0, 0]).is_zero()
        z = LaurentPoly.zero()
        assert z.val == 0 and len(z.coeffs) == 0

    def test_zero_degree_undefined(self):
        with pytest.raises(ValueError):
            _ = LaurentPoly.zero().maxdeg
        with pytest.raises(ValueError):
            _ = LaurentPoly.zero().mindeg

    def test_pow(self):
        q2 = quantum_integer(2)
        assert q2 ** 0 == LaurentPoly.one()
        assert q2 ** 3 == q2 * q2 * q2
        with pytest.raises(ValueError):
            q2 ** -1


class TestExactDivide:
    def test_square_root_case(self):
        sq = lp((4, 1), (0, 2), (-4, 1))
        assert sq.exact_divide(quantum_integer(2)) == quantum_integer(2)

    def test_trefoil_quotient_rechecked_by_multiplication(self):
        a = lp((16, 1), (12, 1), (8, 1), (0, -1))
        q = a.exact_divide(quantum_integer(2))
        assert q * quantum_integer(2) == a
        assert q == lp((14, 1), (6, 1), (2, -1))

    def test_degree_obstruction(self):
        with pytest.raises(NotDivisible):
            LaurentPoly.one().exact_divide(quantum_integer(2))

    def test_non_divisible_coefficient(self):
        with pytest.raises(NotDivisible):
            lp((1, 1), (0, 1)).exact_divide(lp((1, 2)))

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            LaurentPoly.one().exact_divide(LaurentPoly.zero())

    def test_quantum_integer_fast_path_matches(self, rng):
        for _ in range(60):
            a = random_poly(rng)
            n = rng.randint(1, 7)
            product = a * quantum_integer(n)
            if product.is_zero():
                continue
            assert divide_by_quantum_integer(product, n) == \
                product.exact_divide(quantum_integer(n)) == a

    def test_quantum_integer_fast_path_not_divisible(self):
        with pytest.raises(NotDivisible):
            divide_by_quantum_integer(lp((4, 1), (0, 1)), 3)


class TestDerivative:
    def test_examples(self):
        assert lp((3, 1)).derivative() == lp((2, 3))
        assert lp((-2, 1)).derivative() == lp((-3, -2))
        assert lp((0, 5)).derivative().is_zero()

    def test_wide_span_matches_termwise(self):
        # A wide sparse span of 9001 entries; the termwise rule must still hold.
        p = lp((5000, 2), (17, -3), (-4000, 7))
        assert p.derivative() == lp((4999, 10000), (16, -51), (-4001, -28000))


class TestEvalAtRoot:
    def test_quantum_integer_vanishes_at_own_root(self):
        for n in (2, 3, 5, 8, 17):
            assert quantum_integer(n).eval_at_root(RootOfUnityPoint(n)) == 0j

    def test_exact_under_cancellation(self):
        # The float dot of 2^60 [n] errs by hundreds; the value is taken
        # again from the exact residue sums, so no digit is lost.
        for n in (4, 6, 12):
            pt = RootOfUnityPoint(n)
            big = 2 ** 60 * quantum_integer(n)
            assert str(big.eval_at_root(pt)) == "0j"
            assert (big + 1).eval_at_root(pt) == 1

    def test_exact_just_above_the_rounding_bound(self):
        # These values lie a little above the float dot's error bound, where
        # the dot alone kept about three digits (261888 - 128i for the first).
        for n, value in ((4, 2 ** 18), (12, 2 ** 20)):
            p = 2 ** 60 * quantum_integer(n) + value
            assert p.eval_at_root(RootOfUnityPoint(n)) == value

    def test_exact_past_the_float_range(self):
        # Sums past the float range skip the float dot for the exact
        # reduction.  A0(3)^6 = -1, so 2^2000 (1 + A^6) is exactly 0.
        pt = RootOfUnityPoint(3)
        assert str(LaurentPoly(0, (2 ** 2000, 0, 0, 0, 0, 0, 2 ** 2000)).eval_at_root(pt)) == "0j"
        p = LaurentPoly(0, (2 ** 1100, 0, 0, 0, 0, 0, 2 ** 1100, 1))
        assert abs(p.eval_at_root(pt) - pt.powers()[7]) < 1e-12

    def test_full_period_power_is_one(self):
        for n in (2, 5, 9):
            p = LaurentPoly.monomial(1, 4 * n)
            assert abs(p.eval_at_root(RootOfUnityPoint(n)) - 1) < 1e-12

    def test_level_two(self):
        assert abs(quantum_integer(2).eval_at_root(RootOfUnityPoint(2))) < 1e-12

    def test_point_identities(self):
        pt = RootOfUnityPoint(6)
        assert abs(pt.a0 ** pt.order - 1) < 1e-12
        assert abs(pt.a0 ** (2 * pt.N) + 1) < 1e-12


class TestMirror:
    def test_examples(self):
        p = LaurentPoly.monomial(1, 10) * quantum_integer(4) \
            - LaurentPoly.monomial(1, 2) * quantum_integer(2)
        assert p.mirror() == LaurentPoly.monomial(1, -10) * quantum_integer(4) \
            - LaurentPoly.monomial(1, -2) * quantum_integer(2)
        assert LaurentPoly.zero().mirror().is_zero()


class TestRandomizedProperties:
    """Ring axioms and analytic identities over seeded random polynomials."""

    def test_ring_axioms(self, rng):
        for _ in range(200):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * LaurentPoly.one() == a
            assert a + LaurentPoly.zero() == a

    def test_division_round_trip(self, rng):
        for _ in range(200):
            a = random_poly(rng)
            b = random_poly(rng, nonzero=True)
            assert (a * b).exact_divide(b) == a

    def test_product_rule(self, rng):
        for _ in range(200):
            a, b = random_poly(rng), random_poly(rng)
            assert (a * b).derivative() == \
                a.derivative() * b + a * b.derivative()

    def test_eval_homomorphism_large_spans(self, rng):
        # Spans and coefficients up to 1e6: residue-class reduction has to
        # keep the product/eval mismatch below 1e-9 relative.
        for k in range(15):
            a = random_poly(rng, max_terms=6, max_exp=5 * 10 ** 5,
                            max_coeff=10 ** 6)
            b = random_poly(rng, max_terms=6, max_exp=5 * 10 ** 5,
                            max_coeff=10 ** 6)
            pt = RootOfUnityPoint(rng.randint(2, 40))
            va, vb = a.eval_at_root(pt), b.eval_at_root(pt)
            vab = (a * b).eval_at_root(pt)
            assert abs(vab - va * vb) < 1e-9 * (1 + abs(va * vb))

    def test_mirror_involution_and_conjugation(self, rng):
        for _ in range(100):
            a = random_poly(rng)
            assert a.mirror().mirror() == a
            pt = RootOfUnityPoint(rng.randint(2, 12))
            za = a.eval_at_root(pt)
            zm = a.mirror().eval_at_root(pt)
            assert abs(zm - za.conjugate()) < 1e-9 * (1 + abs(za))


class TestSerialization:
    def test_json_round_trip(self, rng):
        for _ in range(50):
            p = random_poly(rng)
            d = p.to_json_dict()
            assert d["variable"] == "A"
            exps = [e for e, _ in d["terms"]]
            assert exps == sorted(exps, reverse=True)
            assert all(isinstance(c, str) for _, c in d["terms"])
            assert LaurentPoly.from_json_dict(d) == p

    def test_str_format(self):
        assert str(lp((16, 1), (12, 1), (8, 1), (0, -1))) == "A^16 + A^12 + A^8 - 1"
        assert str(LaurentPoly.zero()) == "0"
        assert str(lp((1, 2), (0, -1), (-1, -3))) == "2A - 1 - 3A^-1"
