import pytest

from cablejones.asympt import (
    DepthExceeded,
    DivergentLimit,
    GrowthRecord,
    InsufficientData,
    eval_normalized_at_root,
    growth_table,
    lhospital_limit,
    moderation_check,
    vanishing_order,
)
from cablejones.jones import colored_jones
from cablejones.laurent import LaurentPoly, RootOfUnityPoint, quantum_integer
from cablejones.linkexpr import parse


def near_zero(n: int) -> LaurentPoly:
    """2^60 [n] + 1: exactly 1 at A0(n), but its float value there errs by
    far more than 1, and 1 is below any tolerance relative to its
    coefficients."""
    return quantum_integer(n) * 2 ** 60 + 1


class TestLHospital:
    def test_doubled_color_ratio(self):
        # [2N]/[N] = A^(2N) + A^(-2N) -> -2 at A0.
        for n in (2, 3, 5, 6, 12):
            v = lhospital_limit(quantum_integer(2 * n), quantum_integer(n),
                                RootOfUnityPoint(n))
            assert abs(v + 2) < 1e-9

    def test_nonvanishing_denominator_is_plain_eval(self):
        p = LaurentPoly.from_terms([(3, 2), (0, -1)])
        for n in (4, 6, 12):
            pt = RootOfUnityPoint(n)
            for den in (LaurentPoly.one(), near_zero(n)):
                assert lhospital_limit(p, den, pt) == p.eval_at_root(pt)

    def test_equal_orders(self):
        for n in (2, 3, 5):
            v = lhospital_limit(quantum_integer(n) ** 2, quantum_integer(n) ** 2,
                                RootOfUnityPoint(n))
            assert abs(v - 1) < 1e-9

    def test_higher_numerator_order_gives_zero(self):
        for n in (3, 6, 12):
            for a, b in ((2, 1), (3, 2)):
                v = lhospital_limit(quantum_integer(n) ** a, quantum_integer(n) ** b,
                                    RootOfUnityPoint(n))
                assert v == 0 and str(v) == "0j", (n, a, b)  # no signed zero

    def test_divergent(self):
        with pytest.raises(DivergentLimit, match="N=3 .* after 1 derivatives"):
            lhospital_limit(quantum_integer(3), quantum_integer(3) ** 2,
                            RootOfUnityPoint(3))
        for n in (6, 12):
            with pytest.raises(DivergentLimit, match=f"N={n} .* after 0 derivatives"):
                lhospital_limit(near_zero(n), quantum_integer(n), RootOfUnityPoint(n))

    def test_depth_cap(self):
        with pytest.raises(DepthExceeded, match="N=2 .* after 8 derivatives"):
            lhospital_limit(quantum_integer(2) ** 9, quantum_integer(2) ** 9,
                            RootOfUnityPoint(2))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            lhospital_limit(LaurentPoly.one(), LaurentPoly.zero(),
                            RootOfUnityPoint(2))


class TestVanishingOrder:
    def test_unlink_orders_are_exact(self):
        for s in (1, 2, 3):
            e = parse("unknot") if s == 1 else parse(f"cable(0,{s};1;unknot)")
            for n in (*range(2, 9), 12):
                J = colored_jones(e, (n,) * s)
                assert vanishing_order(J, RootOfUnityPoint(n)) == s, (s, n)
        with pytest.raises(DepthExceeded, match="N=6 .* after 8 derivatives"):
            vanishing_order(quantum_integer(6) ** 9, RootOfUnityPoint(6))

    def test_zero_polynomial_is_rejected(self):
        with pytest.raises(ValueError, match="vanishes to every order"):
            vanishing_order(LaurentPoly.zero(), RootOfUnityPoint(3))

    def test_nonvanishing(self):
        assert vanishing_order(LaurentPoly.one(), RootOfUnityPoint(3)) == 0
        for n in (6, 12):
            assert vanishing_order(near_zero(n), RootOfUnityPoint(n)) == 0


class TestEvalNormalized:
    def test_unknot_is_one(self):
        for n in (2, 3, 17, 40):
            assert abs(eval_normalized_at_root(parse("unknot"), n, 1) - 1) < 1e-12

    def test_trefoil_at_two(self):
        z = eval_normalized_at_root(parse("cable(2,3;1;unknot)"), 2, 1)
        assert abs(z - (-3j)) < 1e-9
        assert abs(abs(z) - 3) < 1e-9

    def test_unlink_split_two(self):
        z = eval_normalized_at_root(parse("cable(0,2;1;unknot)"), 2, 2)
        assert abs(z - 1) < 1e-9

    def test_framing_invisible_in_modulus(self):
        e = parse("cable(2,3;1;unknot)")
        base = abs(eval_normalized_at_root(e, 5, 1))
        for f in (-3, -1, 2, 7):
            twisted = abs(eval_normalized_at_root(parse(f"twist({f};1;{e})"), 5, 1))
            assert abs(twisted - base) < 1e-9 * (1 + base)

    def test_exact_division_agrees_with_forced_limit(self):
        # Where the quotient exists, evaluating it must match l'Hospital on
        # the undivided ratio to 1e-6 relative.
        for text, s in [("cable(2,3;1;unknot)", 1), ("cable(0,2;1;unknot)", 2)]:
            e = parse(text)
            from cablejones.linkexpr import component_count
            for n in (2, 3, 5, 8):
                cols = (n,) * component_count(e)
                J = colored_jones(e, cols)
                direct = eval_normalized_at_root(e, n, s)
                forced = lhospital_limit(J, quantum_integer(n) ** s,
                                         RootOfUnityPoint(n))
                assert abs(direct - forced) <= 1e-6 * (1 + abs(direct))


class TestGrowthTable:
    def test_unknot(self):
        records = growth_table(parse("unknot"), [2, 4, 8], 1)
        for r in records:
            assert r.maxabscoeff == 1
            assert abs(r.abs_eval - 1) < 1e-12
            assert abs(r.vc_value) < 1e-9

    def test_trefoil_decay(self):
        records = growth_table(parse("cable(2,3;1;unknot)"),
                               [8, 16, 32, 64, 128], 1)
        vcs = [r.vc_value for r in records]
        assert all(b < a for a, b in zip(vcs, vcs[1:]))

    def test_connected_sum_squares_the_value(self):
        t = "cable(2,3;1;unknot)"
        single = growth_table(parse(t), [8, 16, 32], 1)
        double = growth_table(parse(f"connsum({t},1;{t},1)"), [8, 16, 32], 1)
        for a, b in zip(single, double):
            assert abs(b.abs_eval - a.abs_eval ** 2) < 1e-6 * (1 + a.abs_eval ** 2)

    def test_threaded_matches_serial(self):
        e = parse("cable(2,3;1;unknot)")
        serial = growth_table(e, [8, 16, 32], 1)
        threaded = growth_table(e, [8, 16, 32], 1, threads=3)
        assert [r.N for r in threaded] == [8, 16, 32]
        for a, b in zip(serial, threaded):
            assert (a.maxdeg, a.mindeg, a.maxabscoeff) == \
                (b.maxdeg, b.mindeg, b.maxabscoeff)
            assert abs(a.abs_eval - b.abs_eval) < 1e-12
        for threads in (0, -1):
            with pytest.raises(ValueError, match="threads"):
                growth_table(e, [8], 1, threads=threads)

    def test_requires_ascending(self):
        with pytest.raises(ValueError):
            growth_table(parse("unknot"), [8, 8], 1)
        with pytest.raises(ValueError):
            growth_table(parse("unknot"), [], 1)


class TestModeration:
    def test_unknot_slope_zero(self):
        records = growth_table(parse("unknot"), [2, 4, 8, 16], 1)
        report = moderation_check(records)
        assert report.passed
        assert abs(report.coeff_slope) < 1e-9

    def test_trefoil_span_slope_near_two(self):
        records = growth_table(parse("cable(2,3;1;unknot)"),
                               [8, 16, 32, 64, 128, 256], 1)
        report = moderation_check(records)
        assert report.passed
        assert 1.8 < report.span_slope < 2.3

    def test_exponential_control_fails(self):
        records = [GrowthRecord(n, n * n, 0, 2 ** n, 1.0, 0.0)
                   for n in (8, 16, 32, 64, 128)]
        assert not moderation_check(records).passed

    def test_insufficient_data(self):
        records = [GrowthRecord(n, n, 0, 1, 1.0, 0.0) for n in (2, 4, 8)]
        with pytest.raises(InsufficientData):
            moderation_check(records)
        bad_order = [GrowthRecord(n, n, 0, 1, 1.0, 0.0) for n in (8, 4, 2, 16)]
        with pytest.raises(InsufficientData):
            moderation_check(bad_order)
