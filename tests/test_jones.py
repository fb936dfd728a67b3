from itertools import product

import pytest

from cablejones.jones import DeferredRatio, _jones, colored_jones, normalized_jones
from cablejones.laurent import LaurentPoly, quantum_integer
from cablejones.linkexpr import Cable, Unknot, component_count, mirror_expr, parse

from conftest import random_expr


def lp(*terms):
    return LaurentPoly.from_terms(terms)


TREFOIL = parse("cable(2,3;1;unknot)")


class TestBaseCases:
    def test_unknot(self):
        for n in (1, 2, 7, 40):
            assert colored_jones(Unknot(), (n,)) == quantum_integer(n)

    def test_trefoil_two_term_expansion(self):
        # By hand: A^10 [4] - A^2 [2].
        assert colored_jones(TREFOIL, (2,)) == lp((16, 1), (12, 1), (8, 1), (0, -1))

    def test_framed_hopf(self):
        J = colored_jones(parse("cable(2,2;1;unknot)"), (2, 2))
        assert J == lp((12, 1), (8, 1), (4, 1), (0, 1))
        assert J == quantum_integer(4).scale_shift(1, 6)

    def test_two_unlink(self):
        assert colored_jones(parse("cable(0,2;1;unknot)"), (2, 2)) == \
            quantum_integer(2) ** 2

    def test_one_strand_cable_telescopes_to_twist(self):
        for r in (-2, 1, 3):
            for n in (2, 3, 4):
                c = colored_jones(parse(f"cable({r},1;1;unknot)"), (n,))
                expected = quantum_integer(n).scale_shift(1, r * (n * n - 1))
                assert c == expected, (r, n)

    def test_validates_colors(self):
        from cablejones.linkexpr import ColorArityMismatch
        with pytest.raises(ColorArityMismatch):
            colored_jones(TREFOIL, (2, 2))

    def test_engine_rejects_a_non_expression(self):
        with pytest.raises(TypeError, match="not a link expression: 'unknot'"):
            _jones("unknot", (2,), {})


class TestSignedColorFetch:
    """A cable fetches its child at the signed colors m p + 1, with the
    odd-color convention J(-j) = -J(j) and J(0) = 0.  A (0,1)-cable colored
    n sums its child over the colors -(n-2), ..., n step 2, which telescopes
    to J(n) exactly under that convention."""

    def test_zero_color(self):
        # n = 2: child colors 0 and 2, so J = J(0) + J(2) = J(2).
        for child in (Unknot(), TREFOIL):
            assert colored_jones(Cable(child, 1, 0, 1), (2,)) == colored_jones(child, (2,))

    def test_negative(self):
        # n = 3: child colors -1, 1, 3, so J = -J(1) + J(1) + J(3) = J(3);
        # with J(-1) = +J(1) it would be 2 J(1) + J(3).
        for child in (Unknot(), TREFOIL):
            for n in (3, 4, 5):
                assert colored_jones(Cable(child, 1, 0, 1), (n,)) == \
                    colored_jones(child, (n,))

    def test_positive(self):
        # The (1,2)-cable of the unknot at color 2: m = 1 fetches color 3
        # with A^4, m = -1 fetches color -1 with A^0.
        assert colored_jones(parse("cable(1,2;1;unknot)"), (2,)) == \
            quantum_integer(3).scale_shift(1, 4) - quantum_integer(1)


class TestCableTermExponent:
    """The term m of an (r,s)-cable carries A^((r/g) m (m p + 2))."""

    def test_examples(self):
        # The trefoil at color 2 is A^10 [4] (m = 1) minus A^2 [2] (m = -1).
        assert colored_jones(TREFOIL, (2,)) == \
            quantum_integer(4).scale_shift(1, 10) - quantum_integer(2).scale_shift(1, 2)
        # r = 0: every term is unshifted.
        for s in (1, 2, 3):
            e = parse(f"cable(0,{s};1;unknot)")
            assert colored_jones(e, (3,) * s) == quantum_integer(3) ** s

    def test_always_integer_and_odd_under_mirror(self):
        # The exponent is odd in r: the (-r,s)-cable is the mirror image.
        for r in range(-6, 7):
            for s in range(1, 5):
                e = parse(f"cable({r},{s};1;unknot)")
                cols = (3,) * component_count(e)
                assert colored_jones(parse(f"cable({-r},{s};1;unknot)"), cols) == \
                    colored_jones(e, cols).mirror()


class TestStructuralIdentities:
    def test_twist_equals_one_strand_cable_on_families(self, rng):
        companions = [Unknot(), TREFOIL, parse("cable(0,2;1;unknot)")]
        for e in companions:
            c = component_count(e)
            for r in range(-3, 4):
                for i in range(1, c + 1):
                    cols = tuple(rng.randint(1, 6) for _ in range(c))
                    a = colored_jones(parse(f"cable({r},1;{i};{e})"), cols)
                    b = colored_jones(parse(f"twist({r};{i};{e})"), cols)
                    assert a == b, (e, r, i, cols)

    def test_mirror_property(self, rng):
        for _ in range(50):
            e = random_expr(rng)
            cols = tuple(rng.randint(1, 3) for _ in range(component_count(e)))
            assert colored_jones(mirror_expr(e), cols) == \
                colored_jones(e, cols).mirror()

    def test_trivial_color_collapse(self):
        # All-1 cable colors leave only the m = 0 term: the child at color 1.
        cases = ["cable(4,2;1;unknot)", "cable(3,3;1;unknot)",
                 "cable(2,2;1;cable(2,3;1;unknot))"]
        for text in cases:
            e = parse(text)
            cols = (1,) * component_count(e)
            child_cols = (1,) * component_count(e.child)
            assert colored_jones(e, cols) == colored_jones(e.child, child_cols)

    def test_unlink_factorizes(self):
        for s in (2, 3, 4):
            e = parse(f"cable(0,{s};1;unknot)")
            for cols in product(*[range(1, 5)] * s):
                expected = LaurentPoly.one()
                for n in cols:
                    expected = expected * quantum_integer(n)
                assert colored_jones(e, cols) == expected

    def test_torus_presentations_agree_at_all_colors(self):
        # The (r,s)- and (s,r)-cables of the unknot close up to the same
        # knot; the engine gives them literally equal invariants.
        for r, s in ((2, 3), (2, 5), (3, 4), (3, 5)):
            for n in (2, 3, 4, 5):
                a = colored_jones(parse(f"cable({r},{s};1;unknot)"), (n,))
                b = colored_jones(parse(f"cable({s},{r};1;unknot)"), (n,))
                assert a == b, (r, s, n)

    def test_hopf_mixed_colors_is_product_quantum_integer(self):
        # Framed Hopf link at colors (a, b): the classical value [a*b],
        # times the framing monomial.
        from cablejones.bracket import equal_up_to_monomial
        hopf = parse("cable(2,2;1;unknot)")
        for a, b in ((2, 3), (3, 4), (2, 5), (4, 4)):
            J = colored_jones(hopf, (a, b))
            m = equal_up_to_monomial(J, quantum_integer(a * b))
            assert m is not None and m.sign == 1 and not m.mirrored, (a, b)

    def test_connected_sum_associative(self):
        t = "cable(2,3;1;unknot)"
        u = "cable(-2,3;1;unknot)"
        v = "twist(1;1;unknot)"
        left = parse(f"connsum(connsum({t},1;{u},1),1;{v},1)")
        right = parse(f"connsum({t},1;connsum({u},1;{v},1),1)")
        for n in (2, 3, 5):
            assert colored_jones(left, (n,)) == colored_jones(right, (n,))

    def test_connsum_with_unknot_is_identity(self):
        e = parse("connsum(cable(2,3;1;unknot),1;unknot,1)")
        for n in (2, 4):
            assert colored_jones(e, (n,)) == colored_jones(TREFOIL, (n,))

    def test_cable_on_second_component_keeps_first_color(self):
        # Cabling component 2 of a 2-unlink must leave component 1's
        # quantum-integer factor untouched and run the expansion on the
        # second color slot only.
        e = parse("cable(2,3;2;cable(0,2;1;unknot))")
        for m, n in ((2, 3), (3, 2), (4, 2)):
            got = colored_jones(e, (m, n))
            assert got == quantum_integer(m) * colored_jones(TREFOIL, (n,))

    def test_connsum_on_link_component(self):
        # Sum a trefoil onto one component of a 2-unlink: the invariant
        # picks up the normalized trefoil factor on that color only.
        e = parse("connsum(cable(0,2;1;unknot),2;cable(2,3;1;unknot),1)")
        for n, m in ((2, 3), (3, 2)):
            got = colored_jones(e, (m, n))
            trefoil_norm = normalized_jones(TREFOIL, (n,), 1)
            assert got == quantum_integer(m) * quantum_integer(n) * trefoil_norm


class TestDeterminism:
    def test_warm_and_cold_cache_agree(self):
        e = parse("cable(2,3;1;cable(2,2;1;unknot))")
        memo = {}
        first = colored_jones(e, (3, 3), memo)
        warm = colored_jones(e, (3, 3), memo)
        cold = colored_jones(e, (3, 3))
        assert first == warm == cold


class TestNormalized:
    def test_unknot(self):
        for n in (1, 2, 9):
            assert normalized_jones(Unknot(), (n,), 1) == LaurentPoly.one()

    def test_trefoil(self):
        assert normalized_jones(TREFOIL, (2,), 1) == lp((14, 1), (6, 1), (2, -1))

    def test_unlink_split_two(self):
        e = parse("cable(0,2;1;unknot)")
        assert normalized_jones(e, (2, 2), 2) == LaurentPoly.one()

    def test_deferred_when_not_divisible(self):
        e = parse("cable(0,2;1;unknot)")
        d = normalized_jones(e, (2, 2), 3)
        assert isinstance(d, DeferredRatio)
        assert d.color == 2 and d.power == 1
        assert d.numerator == LaurentPoly.one()

    def test_requires_uniform_colors(self):
        with pytest.raises(ValueError):
            normalized_jones(parse("cable(0,2;1;unknot)"), (2, 3), 1)
