import pytest

from cablejones.asympt import (
    DepthExceeded,
    DivergentLimit,
    GrowthRecord,
    InsufficientData,
    VanishingInvariant,
    eval_normalized_at_root,
    growth_table,
    lhospital_limit,
    moderation_check,
    vanishing_order,
)
from cablejones.jones import colored_jones
from cablejones.laurent import LaurentPoly, RootOfUnityPoint, quantum_integer
from cablejones.linkexpr import parse


class TestLHospital:
    def test_doubled_color_ratio(self):
        # [2N]/[N] = A^(2N) + A^(-2N) -> -2 at A0.
        for n in (2, 3, 5):
            v = lhospital_limit(quantum_integer(2 * n), quantum_integer(n),
                                RootOfUnityPoint(n))
            assert abs(v + 2) < 1e-9

    def test_nonvanishing_denominator_is_plain_eval(self):
        p = LaurentPoly.from_terms([(3, 2), (0, -1)])
        pt = RootOfUnityPoint(4)
        assert lhospital_limit(p, LaurentPoly.one(), pt) == p.eval_at_root(pt)

    def test_equal_orders(self):
        for n in (2, 3, 5):
            v = lhospital_limit(quantum_integer(n) ** 2, quantum_integer(n) ** 2,
                                RootOfUnityPoint(n))
            assert abs(v - 1) < 1e-9

    def test_higher_numerator_order_gives_zero(self):
        v = lhospital_limit(quantum_integer(3) ** 2, quantum_integer(3),
                            RootOfUnityPoint(3))
        assert abs(v) < 1e-6

    def test_divergent(self):
        with pytest.raises(DivergentLimit):
            lhospital_limit(quantum_integer(3), quantum_integer(3) ** 2,
                            RootOfUnityPoint(3))

    def test_depth_cap(self):
        with pytest.raises(DepthExceeded):
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
            for n in range(2, 9):
                J = colored_jones(e, (n,) * s)
                assert vanishing_order(J, RootOfUnityPoint(n)) == s, (s, n)

    def test_nonvanishing(self):
        assert vanishing_order(LaurentPoly.one(), RootOfUnityPoint(3)) == 0


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

    def test_requires_ascending(self):
        with pytest.raises(ValueError):
            growth_table(parse("unknot"), [8, 8], 1)
        with pytest.raises(ValueError):
            growth_table(parse("unknot"), [], 1)

    def test_vanishing_invariant_is_a_computation_error(self, monkeypatch):
        import cablejones.asympt as asympt
        monkeypatch.setattr(asympt, "colored_jones",
                            lambda e, colors, memo=None: LaurentPoly.zero())
        with pytest.raises(VanishingInvariant, match="N=4"):
            growth_table(parse("unknot"), [4], 1)
        assert not issubclass(VanishingInvariant, ValueError)


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
