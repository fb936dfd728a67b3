"""Values and growth rows from the sparse numerator against the dense referee.

growth_table reads a row from the engine's numerator N = J (A^2 - A^-2)
alone: degrees from N's ends, the largest |coefficient| from N's running
sums, and J/[N]^k at A0, for every split multiplicity k, from the theta-
moments of N over integer columns mod 4N.  The referee
builds the dense J with colored_jones, divides it by [N] while [N] divides
and evaluates the quotient, or takes the l'Hospital limit of what is left,
which is how every value was computed before.  Degrees and coefficients
must agree exactly and values to 1e-12 relative, or both sides must raise
the same error; a value that is exactly zero comes out as 0.
"""

import numpy as np
import pytest

from cablejones import asympt, jones, laurent
from cablejones.asympt import (
    DivergentLimit,
    eval_normalized_at_root,
    growth_table,
    lhospital_limit,
)
from cablejones.jones import (
    DeferredRatio,
    _materialize,
    _Numerator,
    _sparse,
    colored_jones,
    colored_numerator,
    normalized_jones,
)
from cablejones.laurent import (
    ComputationError,
    LaurentPoly,
    RootOfUnityPoint,
    _exact_value,
    divide_by_quantum_integer,
    quantum_integer,
)
from cablejones.linkexpr import component_count, mirror_expr, parse

ITERATED = "cable(2,13;1;cable(2,3;1;unknot))"
T23_T25 = "connsum(cable(2,3;1;unknot),1;cable(2,5;1;unknot),1)"


def referee_value(e, n: int, split_mult: int, memo=None) -> complex:
    """J/[n]^split_mult at A0(n) by the dense path: divide while [n] divides,
    then evaluate the quotient or take the l'Hospital limit of what is left."""
    pt = RootOfUnityPoint(n)
    result = normalized_jones(e, (n,) * component_count(e), split_mult, memo)
    if isinstance(result, DeferredRatio):
        return lhospital_limit(result.numerator,
                               quantum_integer(result.color) ** result.power, pt)
    return result.eval_at_root(pt)


def referee_row(e, n: int, split_mult: int):
    memo = {}
    J = colored_jones(e, (n,) * component_count(e), memo)
    return J.maxdeg, J.mindeg, J.max_abs_coeff(), abs(referee_value(e, n, split_mult, memo))


def agree(e, ns, split_mult: int = 1):
    for rec in growth_table(e, ns, split_mult):
        maxdeg, mindeg, coeff, value = referee_row(e, rec.N, split_mult)
        assert (rec.maxdeg, rec.mindeg, rec.maxabscoeff) == (maxdeg, mindeg, coeff)
        if rec.abs_eval == 0:
            assert value < 1e-12 and rec.vc_value is None
        else:
            assert rec.abs_eval == pytest.approx(value, rel=1e-12, abs=0)


NS = (1, 2, 3, 5, 8, 16)


def patch_numerator(monkeypatch, exps, coeffs, bound):
    num = _Numerator(np.array(exps, dtype=np.int64), np.array(coeffs, dtype=np.int64), bound)
    monkeypatch.setattr(asympt, "colored_numerator", lambda e, colors, memo=None: num)
    return num


class TestAgainstTheDenseReferee:
    def test_cables_with_several_strands(self):
        agree(parse("cable(4,6;1;unknot)"), NS)                      # g = 2
        agree(parse("cable(1,2;1;cable(4,2;1;unknot))"), NS)
        agree(parse("cable(3,3;1;unknot)"), (1, 2, 3, 4))            # g = 3

    def test_negative_windings(self):
        agree(parse("cable(-2,5;1;cable(3,2;1;unknot))"), NS)
        agree(parse("cable(-3,2;1;unknot)"), NS)

    def test_twists_and_mirrors(self):
        e = parse(f"twist(3;1;{ITERATED})")
        agree(e, (2, 4, 8))
        agree(mirror_expr(e), (2, 4, 8))
        agree(parse("cable(2,3;1;twist(-2;1;cable(2,5;1;unknot)))"), (2, 3, 6))

    def test_cable_over_a_connected_sum(self):
        agree(parse("cable(2,3;1;connsum(cable(2,3;1;unknot),1;cable(-2,5;1;unknot),1))"),
              (2, 3, 4, 6))

    def test_connected_sum_of_iterated_cables(self):
        agree(parse("connsum(cable(2,5;1;cable(2,3;1;unknot)),1;"
                    "cable(3,2;1;cable(2,3;1;unknot)),1)"), (2, 3, 5, 8))
        agree(parse(T23_T25), (8, 16, 32))
        agree(parse("connsum(cable(2,5;1;unknot),1;cable(2,3;1;unknot),1)"), (8, 16, 32))

    def test_two_component_torus_link(self):
        agree(parse("cable(2,4;1;unknot)"), NS + (32,))

    def test_split_multiplicity_two(self):
        agree(parse("cable(0,2;1;unknot)"), (1, 2, 3, 5, 8), split_mult=2)
        agree(parse("cable(0,3;1;unknot)"), (1, 2, 3, 4), split_mult=2)
        agree(parse("connsum(cable(0,2;1;unknot),1;cable(2,3;1;unknot),1)"), (1, 2, 3, 5),
              split_mult=2)
        with pytest.raises(DivergentLimit):
            growth_table(parse("cable(2,4;1;unknot)"), [3], split_mult=2)
        # At N = 1, [1] = 1 while A0^2 - A0^-2 = 0: every k has the k = 1 value.
        for text in ("cable(0,2;1;unknot)", "cable(0,3;1;unknot)", "cable(2,4;1;unknot)",
                     T23_T25, ITERATED):
            e = parse(text)
            num = colored_numerator(e, (1,) * component_count(e))
            for k in range(1, 5):
                assert asympt._value(num, 1, k) == asympt._value(num, 1, 1), (text, k)

    def test_eval_matches_the_dense_referee(self):
        for text in (ITERATED, T23_T25, "cable(2,4;1;unknot)"):
            e = parse(text)
            for n in (2, 3, 8):
                J = colored_jones(e, (n,) * component_count(e))
                expected = divide_by_quantum_integer(J, n).eval_at_root(RootOfUnityPoint(n))
                assert eval_normalized_at_root(e, n) == pytest.approx(expected, rel=1e-12)


# Split unlinks, connected sums with unlinks, a two-component torus link,
# g = 2 and g = 3 blocks, a twist and the iterated cable.
SWEEP = ("unknot", "cable(0,2;1;unknot)", "cable(0,3;1;unknot)",
         "cable(0,2;1;cable(0,2;1;unknot))", "cable(0,2;1;cable(2,3;1;unknot))",
         "connsum(cable(0,2;1;unknot),1;cable(2,3;1;unknot),1)",
         "connsum(cable(0,3;1;unknot),1;cable(2,5;1;cable(2,3;1;unknot)),1)",
         "cable(2,4;1;unknot)", "cable(4,6;1;unknot)", "cable(3,3;1;unknot)",
         "twist(3;1;cable(2,3;1;unknot))", ITERATED)


def outcome(compute):
    try:
        return compute()
    except ComputationError as exc:
        return type(exc)


class TestMomentsAgainstTheLimit:
    def test_every_split_multiplicity(self):
        for text in SWEEP:
            e = parse(text)
            for n in range(1, 9):
                for k in range(1, 5):
                    expected = outcome(lambda: referee_value(e, n, k))
                    value = outcome(lambda: eval_normalized_at_root(e, n, k))
                    row = outcome(lambda: growth_table(e, [n], k)[0].abs_eval)
                    if isinstance(expected, type):
                        assert value == row == expected, (text, n, k)
                    else:
                        assert value == pytest.approx(expected, rel=1e-12, abs=0), (text, n, k)
                        assert row == abs(value)

    def test_split_union_with_unknots(self):
        # J(K + k - 1 unknots) = J(K) [N]^(k-1), so at split multiplicity k
        # it has K's value at split multiplicity 1.
        for knot in ("cable(2,3;1;unknot)", ITERATED):
            for k in (2, 3):
                union = parse(f"connsum(cable(0,{k};1;unknot),1;{knot},1)")
                for n in (1, 2, 5, 16, 128):
                    expected = eval_normalized_at_root(parse(knot), n)
                    assert eval_normalized_at_root(union, n, k) == \
                        pytest.approx(expected, rel=1e-12), (knot, k, n)

    def test_connected_sum_is_multiplicative(self):
        # Against the whole numerator's value: eval itself multiplies the
        # factors' values.
        e = parse(T23_T25)
        for n in (7, 64, 512):
            left = eval_normalized_at_root(parse("cable(2,3;1;unknot)"), n)
            right = eval_normalized_at_root(parse("cable(2,5;1;unknot)"), n)
            whole = asympt._value(colored_numerator(e, (n,)), n, 1)
            assert whole == pytest.approx(left * right, rel=1e-12)

    def test_value_path_builds_no_dense_j(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("the value path built or divided a dense J")
        monkeypatch.setattr(jones, "_materialize", dense)
        monkeypatch.setattr(jones, "divide_by_quantum_integer", dense)
        monkeypatch.setattr(laurent, "divide_by_quantum_integer", dense)
        monkeypatch.setattr(asympt, "lhospital_limit", dense)
        # T(3,3) at N = 4: [4] does not divide J/[4], yet the limit is finite.
        cases = [("cable(3,3;1;unknot)", 4, 2), (ITERATED, 5, 1), ("cable(2,4;1;unknot)", 5, 1)]
        cases += [(text, n, k)
                  for text in ("cable(0,3;1;unknot)",
                               "connsum(cable(0,3;1;unknot),1;cable(2,3;1;unknot),1)")
                  for n in (1, 2, 5) for k in (1, 2, 3)]
        for text, n, k in cases:
            e = parse(text)
            assert abs(eval_normalized_at_root(e, n, k)) == growth_table(e, [n], k)[0].abs_eval


# Connected sums of knots, split unlinks and a nested connected sum, each
# also under a twist; twist(-2;1;ITERATED) puts a twist below the root.
T23, T25M, TWISTED = "cable(2,3;1;unknot)", "cable(-2,5;1;unknot)", f"twist(-2;1;{ITERATED})"
CONNSUMS = tuple(f"connsum({a},1;{b},1)" for a, b in (
    (T23, T25M), (TWISTED, T23), (T25M, TWISTED),
    ("cable(0,2;1;unknot)", T23), ("cable(0,3;1;unknot)", T25M),
    ("cable(0,4;1;unknot)", TWISTED), (T23, "cable(0,3;1;unknot)"),
    (f"connsum(cable(0,2;1;unknot),1;{T25M},1)", "cable(0,3;1;unknot)")))
ROOTS = CONNSUMS + tuple(f"twist(3;1;{text})" for text in CONNSUMS)


class TestRootRule:
    """eval multiplies a twist's child value by a unit and a connected sum's
    factors' values; the referee is the value from the whole numerator."""

    def test_against_the_whole_numerator(self):
        for text in ROOTS:
            for e in (parse(text), mirror_expr(parse(text))):
                for n in NS:
                    num = colored_numerator(e, (n,) * component_count(e))
                    for k in range(1, 5):
                        expected = outcome(lambda: asympt._value(num, n, k))
                        value = outcome(lambda: eval_normalized_at_root(e, n, k))
                        if isinstance(expected, type):
                            assert value is expected, (str(e), n, k)
                        elif expected == 0:
                            assert repr(value) == "0j", (str(e), n, k)
                        else:
                            assert value == pytest.approx(expected, rel=1e-12, abs=0), \
                                (str(e), n, k)

    def test_no_connected_sum_numerator_at_the_root(self, monkeypatch):
        roots = []
        connsum = jones._connsum

        def spy(e, colors, memo):
            roots.append(e)
            return connsum(e, colors, memo)
        monkeypatch.setattr(jones, "_connsum", spy)
        for text in (T23_T25, f"twist(5;1;{T23_T25})", CONNSUMS[-1]):
            for n in (1, 2, 7):
                for k in range(1, 5):
                    outcome(lambda: eval_normalized_at_root(parse(text), n, k))
        assert roots == []


class TestOnePath:
    def test_eval_and_growth_agree_on_values_and_errors(self):
        # Both go through one routine, so a value matches exactly and an
        # error is raised by both or by neither.
        for text in ("cable(2,4;1;unknot)", "cable(0,2;1;unknot)"):
            e = parse(text)
            for split_mult in (1, 2):
                for n in (1, 2, 3, 5, 8):
                    outcomes = []
                    for compute in (
                            lambda: abs(eval_normalized_at_root(e, n, split_mult)),
                            lambda: growth_table(e, [n], split_mult)[0].abs_eval):
                        try:
                            outcomes.append(compute())
                        except ComputationError as exc:
                            outcomes.append(type(exc))
                    assert outcomes[0] == outcomes[1]
        with pytest.raises(DivergentLimit):
            eval_normalized_at_root(parse("cable(2,4;1;unknot)"), 3, 2)


class TestLargeColors:
    """N = 512 rows, pinned from the dense path, which needs 2.4 s and
    1.1 GB for the iterated row and 120 s for the connected sum."""

    def test_iterated_cable_decays_to_n_512(self, monkeypatch):
        # The value step finds each row's root in the memo that built it, so
        # _cable runs once a row, also at N = 512, past 2^20 terms.
        cable, terms = jones._cable, []

        def spy(e, colors, memo):
            num = cable(e, colors, memo)
            terms.append(len(num.exps))
            return num

        monkeypatch.setattr(jones, "_cable", spy)
        rows = growth_table(parse(ITERATED), [128, 256, 512])
        assert len(terms) == 3 and terms[-1] > 2 ** 20
        vcs = [r.vc_value for r in rows]
        assert vcs[0] > vcs[1] > vcs[2]
        pinned = {256: (67660170, 22, 35, 5285082.562550465),
                  512: (271634314, 22, 43, 27256218.335607417)}
        for r in rows[1:]:
            maxdeg, mindeg, coeff, value = pinned[r.N]
            assert (r.maxdeg, r.mindeg, r.maxabscoeff) == (maxdeg, mindeg, coeff)
            assert r.abs_eval == pytest.approx(value, rel=1e-12)
        assert rows[-1].vc_value == pytest.approx(0.2101037, abs=1e-6)

    def test_connected_sum_of_torus_knots_at_n_512(self):
        [row] = growth_table(parse(T23_T25), [512])
        assert (row.maxdeg, row.mindeg, row.maxabscoeff) == (4189178, 1022, 440)
        assert row.abs_eval == pytest.approx(242942538.49840796, rel=1e-12)
        # The normalized invariant is multiplicative, and J_conn = J_l J_r / [N].
        [a] = growth_table(parse("cable(2,3;1;unknot)"), [512])
        [b] = growth_table(parse("cable(2,5;1;unknot)"), [512])
        assert row.abs_eval == pytest.approx(a.abs_eval * b.abs_eval, rel=1e-12)
        assert row.maxdeg == a.maxdeg + b.maxdeg - 2 * 511
        assert row.mindeg == a.mindeg + b.mindeg + 2 * 511


class TestExactZero:
    def test_split_unlink_vanishes_exactly(self):
        rows = growth_table(parse("cable(0,2;1;unknot)"), [1, 2, 3, 5, 12])
        assert rows[0].abs_eval == 1.0
        for r in rows[1:]:
            assert r.abs_eval == 0.0 and r.vc_value is None
        assert eval_normalized_at_root(parse("cable(0,2;1;unknot)"), 4) == 0j
        # At split multiplicity 2, J/[N]^2 = [N] is a dense quotient.
        three = parse("cable(0,3;1;unknot)")
        for r in growth_table(three, [2, 3, 6], split_mult=2):
            assert r.abs_eval == 0.0 and r.vc_value is None
        assert eval_normalized_at_root(three, 6, 2) == 0j

    def test_cyclotomic_polynomials(self):
        # Phi_m padded to m columns vanishes at A0(m/4), and 1 + Phi_m is 1.
        for m, phi in ((4, [1, 0, 1]), (8, [1, 0, 0, 0, 1]), (12, [1, 0, -1, 0, 1]),
                       (20, [1, 0, -1, 0, 1, 0, -1, 0, 1]),
                       (36, [1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1])):
            s = np.zeros(m, dtype=np.int64)
            s[:len(phi)] = phi
            assert str(_exact_value(s, m // 4)) == "0j"
            s[0] += 1
            assert _exact_value(s, m // 4) == 1

    def test_remainder_vanishes_exactly_with_the_value(self, rng):
        # Vanishing sums at a primitive m-th root: x^a (1 + x^(m/2)) and
        # x^a times the sum of the p-th roots of unity, for primes p | m.
        # 100 and 108 have axes p^e with e >= 2, and 420 has four primes.
        for m in (4, 8, 12, 20, 24, 36, 60, 64, 100, 108, 120, 420):
            zeta = np.exp(2j * np.pi * np.arange(m) / m)
            for _ in range(20):
                s = np.zeros(m, dtype=np.int64)
                for _ in range(3):
                    a = rng.randrange(m)
                    p = rng.choice([p for p in (2, 3, 5, 7) if m % p == 0])
                    s[[(a + j * m // p) % m for j in range(p)]] += rng.randint(-3, 3)
                assert str(_exact_value(s, m // 4)) == "0j"
                s[rng.randrange(m)] += rng.choice((-1, 1))
                value = _exact_value(s, m // 4)
                assert value == pytest.approx(np.dot(s, zeta), abs=1e-9)
                assert _exact_value(s.astype(object), m // 4) == pytest.approx(value, abs=1e-12)
                assert (value != 0) == (abs(np.dot(s, zeta)) > 1e-9)

    def test_fold_keeps_digits_the_coordinates_lose(self):
        # At N = 105, 4N = 4 * 3 * 5 * 7 and the coordinates of random
        # columns outweigh their fold, so the value is the fold's dot.
        n = 105
        columns = np.random.default_rng(5).integers(-1000, 1001, 4 * n)
        fold = columns[:2 * n] - columns[2 * n:]
        by_fold = complex(np.dot(fold, laurent._doubled_powers(n)[:2 * n]))
        index, steps, basis = laurent._integral_basis(n)
        t = columns[index]
        for before, p, after in steps:
            t = t.reshape(before, p, after)
            t = t[:, :p - 1] - t[:, p - 1:]
        by_coordinates = complex(np.dot(t.reshape(-1), basis))
        assert np.abs(fold).sum() < np.abs(t).sum()
        assert _exact_value(columns, n) == by_fold != by_coordinates
        assert by_fold == pytest.approx(by_coordinates, rel=1e-13)

    def test_columns_fold_by_the_half_period(self, monkeypatch):
        # Q = J/[8] = 2^60 + 1 + 2^60 A^16 is 1 at A0, as A0^16 = -1.  A
        # float sum over both columns would round 2^60 + 1 and be off by 141.
        a = 2 ** 60
        patch_numerator(monkeypatch, [-16, 0, 16, 32], [-(a + 1), -a, a + 1, a], 2 * a + 1)
        [row] = growth_table(parse("unknot"), [8])
        assert row.abs_eval == 1.0 and row.maxabscoeff == 2 * a + 1

    def test_value_within_the_rounding_bound_is_taken_exactly(self, monkeypatch):
        # Q = J/[3] = 2^60 (A^8 + A^4 + 1) + 1 is 1 at A0(3), where A0^4 is a
        # cube root of unity, but a float sum of its columns errs by about
        # 2^60 * 1e-16, so the value comes from their exact coordinates.
        a = 2 ** 60
        q = LaurentPoly.from_terms([(8, a), (4, a), (0, a + 1)])
        num = _sparse(q * quantum_integer(3) * LaurentPoly.from_terms([(2, 1), (-2, -1)]))
        monkeypatch.setattr(asympt, "colored_numerator", lambda e, colors, memo=None: num)
        [row] = growth_table(parse("unknot"), [3])
        assert row.abs_eval == pytest.approx(1.0, rel=1e-12)

    def test_cli_prints_exact_zeros(self, capsys):
        from cablejones.cli import main
        assert main(["growth", "--expr", "cable(0,2;1;unknot)", "--n", "1,2,5"]) == 0
        out = capsys.readouterr().out
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(r[4], r[5]) for r in rows] == [("1", "0"), ("0", ""), ("0", "")]
        assert main(["eval", "--expr", "cable(0,2;1;unknot)", "--color-all", "4"]) == 0
        assert capsys.readouterr().out.strip() == "0+0i"
        assert main(["growth", "--expr", "cable(0,3;1;unknot)", "--n", "2,3,6",
                     "--split-mult", "2"]) == 0
        out = capsys.readouterr().out
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(r[4], r[5]) for r in rows] == [("0", "")] * 3
        assert main(["eval", "--expr", "cable(0,3;1;unknot)", "--color-all", "6",
                     "--split-mult", "2"]) == 0
        assert capsys.readouterr().out.strip() == "0+0i"


class TestGuards:
    def test_column_sums_past_int64(self, monkeypatch):
        # N = 2^60 (A^(62n) - A^(-2n)) is the numerator of J = 2^60 A^(30n)
        # [16n]: every |coefficient| of N and J is 2^60, but J/[n] at A0 is
        # 16 * 2^60 = 2^64, one column sum past int64.
        n = 4
        patch_numerator(monkeypatch, [-2 * n, 62 * n], [-2 ** 60, 2 ** 60], 2 ** 60)
        [row] = growth_table(parse("unknot"), [n])
        assert (row.mindeg, row.maxdeg, row.maxabscoeff) == (2 - 2 * n, 62 * n - 2, 2 ** 60)
        assert row.abs_eval == pytest.approx(2.0 ** 64, rel=1e-12)

    def test_exponents_past_int64(self):
        e = parse("cable(2,3;1;unknot)")
        for n in (2, 5):
            [base] = growth_table(e, [n])
            for f in (2 ** 62 // (n * n - 1), 2 ** 70, -(2 ** 70)):
                [row] = growth_table(parse(f"twist({f};1;cable(2,3;1;unknot))"), [n])
                shift = f * (n * n - 1)
                assert (row.mindeg, row.maxdeg) == (base.mindeg + shift, base.maxdeg + shift)
                assert row.maxabscoeff == base.maxabscoeff
                assert row.abs_eval == pytest.approx(base.abs_eval, rel=1e-12)

    def test_fold_that_does_not_divide_takes_the_limit(self, monkeypatch):
        # J = A^4 + A^-4 vanishes at A0(4) but [4] does not divide it.
        J = LaurentPoly.from_terms([(4, 1), (-4, 1)])
        num = patch_numerator(monkeypatch, [-6, -2, 2, 6], [-1, 1, -1, 1], 2)
        assert _materialize(num) == J
        [row] = growth_table(parse("unknot"), [4])
        expected = lhospital_limit(J, quantum_integer(4), RootOfUnityPoint(4))
        # J(A0) = 0, so the first theta-moment decides: the limit is 1/sqrt(2).
        assert asympt._value(num, 4, 1) == pytest.approx(expected, rel=1e-12)
        assert abs(expected) == pytest.approx(2 ** -0.5, rel=1e-12)
        assert row.abs_eval == pytest.approx(abs(expected), rel=1e-12)
        assert (row.mindeg, row.maxdeg, row.maxabscoeff) == (-4, 4, 1)
        # At split multiplicity 2 the limit is against [4]^2, of order 2.
        with pytest.raises(DivergentLimit):
            growth_table(parse("unknot"), [4], split_mult=2)

    def test_large_columns_that_do_not_divide(self, monkeypatch):
        # Columns 0 and 4 mod 4n each sum to +-2^64: not divisible, and J
        # does not vanish at A0, so the limit diverges.
        n = 2
        m = 4 * n
        exps = sorted([m * q - 2 * n for q in range(8)] + [m * q + 4 - 2 * n for q in range(8)])
        coeffs = [2 ** 61 if (e + 2 * n) % m == 0 else -2 ** 61 for e in exps]
        num = patch_numerator(monkeypatch, exps, coeffs, 2 ** 61)
        J = LaurentPoly.from_terms([(e + 2, -2 ** 61) for e in exps[::2]])
        assert _materialize(num) == J
        # J(A0) = -2^61 * 8 A0^-2 = 2^64 i, where [2] vanishes.
        assert J.eval_at_root(RootOfUnityPoint(n)) == pytest.approx(2 ** 64 * 1j, rel=1e-12)
        with pytest.raises(DivergentLimit, match="N=2 .* theta-moment 0 "):
            asympt._value(num, n, 1)
        with pytest.raises(DivergentLimit):
            growth_table(parse("unknot"), [n])


class TestMomentColumns:
    """Within their static bound the columns are summed in int64, past it
    as Python ints; either way they must equal the sums c q^i taken one
    term at a time in Python ints."""

    @staticmethod
    def columns(monkeypatch, num, k, m=16):
        calls = []
        sum_columns = asympt._sum_columns

        def spy(exps, coeffs, m, k, dtype):
            calls.append(dtype)
            return sum_columns(exps, coeffs, m, k, dtype)
        monkeypatch.setattr(asympt, "_sum_columns", spy)
        x = asympt._moment_columns(num, m, k)
        sums = {}
        for e, c in zip(num.exps.tolist(), num.coeffs.tolist()):
            q, r = divmod(e, m)
            for i in range(k + 1):
                sums[i, r] = sums.get((i, r), 0) + c * q ** i
        assert x.tolist() == [[sums.get((i, r), 0) for r in range(m)]
                              for i in range(k + 1)]
        return calls, x

    @staticmethod
    def numerator(top, coeff=0, m=16, mirrored=False):
        # -+1 at q = top - 1 and +-1 at q = top in two columns mod m, so each
        # sum of c q^i is below i top^(i-1) while top^k passes 2^62; and coeff
        # at q = top in a third column.  Mirrored, every exponent is negated.
        exps = [m * (top - 1) + 1, m * (top - 1) + 5, m * top + 1, m * top + 5]
        coeffs = [-1, 1, 1, -1]
        if coeff:
            exps.append(m * top + 9)
            coeffs.append(coeff)
        if mirrored:
            exps, coeffs = [-e for e in reversed(exps)], coeffs[::-1]
        return _Numerator(np.array(exps), np.array(coeffs), max(1, abs(coeff)))

    def test_cancelling_columns_sum_python_ints(self, monkeypatch):
        # Every sum is small, but no bound that is read off the terms shows it.
        for k, top in ((2, 2 ** 30), (3, 2 ** 20)):
            calls, x = self.columns(monkeypatch, self.numerator(top), k)
            assert calls == [object] and x.dtype == object, k
            assert any(x[k])

    def test_columns_past_int64_sum_python_ints(self, monkeypatch):
        # 16 (2^20)^3 = 2^64 in a column.
        calls, x = self.columns(monkeypatch, self.numerator(2 ** 20, 16), 3)
        assert calls == [object]
        assert max(abs(v) for v in x[3]) >= 2 ** 64

    def test_columns_in_every_regime(self, monkeypatch):
        # mass = (4 + coeff) qmax^k near 2^bits, with qmax = 2^b: int64 sums
        # below 2^62 and Python ints past it (at k = 1 only a coefficient
        # past int64 gets to 130 bits, and it makes the coefficients Python
        # ints).  Every exponent, m 2^56 + 9 at most, stays in int64.
        regimes = ((50, np.int64), (80, object), (110, object), (130, object))
        for m in (12, 16, 20):  # 4N = 12 and 20 have an odd prime factor
            for k in range(1, 5):
                for bits, dtype in regimes:
                    b = min(56, bits // k)
                    for mirrored in (False, True):
                        num = self.numerator(2 ** b - 1, 2 ** (bits - k * b), m, mirrored)
                        calls, x = self.columns(monkeypatch, num, k, m)
                        assert calls == [dtype] and x.dtype == dtype, (m, k, bits, mirrored)

    def test_mass_past_2_62_sums_python_ints(self, monkeypatch):
        # Every mass from 2^62 on takes the Python-int sums.  With
        # qmax = top + 1 = 2^b, mass = (4 + coeff) 2^(k b), and the column
        # coeff top^k nears 2^62 at the edge.
        for k, b in ((1, 40), (2, 20), (3, 13)):
            edge = 2 ** (62 - k * b)  # the least 4 + coeff with mass 2^62
            for total, dtype in ((edge - 1, np.int64), (edge, object)):
                num = self.numerator(2 ** b - 1, total - 4)
                calls, x = self.columns(monkeypatch, num, k)
                assert calls == [dtype] and x.dtype == dtype, (k, total)
                assert max(abs(v) for v in x[k]) >= 2 ** 61

    def test_split_multiplicity_one_keeps_its_dtype_rule(self, monkeypatch):
        # sum |c| qmax = (2^40 + 4)(2^22 + 1) passes 2^62: k = 1 takes the
        # Python-int sums like every k.
        calls, x = self.columns(monkeypatch, self.numerator(2 ** 22, 2 ** 40), 1)
        assert calls == [object] and x.dtype == object
        calls, x = self.columns(monkeypatch, self.numerator(2 ** 20, 1), 1)
        assert calls == [np.int64] and x.dtype == np.int64

    def test_split_union_of_four(self, monkeypatch):
        # J(K + s - 1 unknots) = J(K) [N]^(s-1), so at split multiplicity s
        # the union has K's value at split multiplicity 1.
        for knot in ("cable(2,3;1;unknot)", "cable(-2,5;1;unknot)",
                     f"twist(-2;1;{ITERATED})"):
            for s in (2, 3, 4):
                union = parse(f"connsum(cable(0,{s};1;unknot),1;{knot},1)")
                for n in NS:
                    expected = eval_normalized_at_root(parse(knot), n)
                    assert eval_normalized_at_root(union, n, s) == \
                        pytest.approx(expected, rel=1e-12, abs=0), (knot, s, n)
        # The iterated cable with three unknots at k = 4: its whole numerator's
        # mass (2^96 at N = 128) takes the Python-int sums, while the value
        # from its factors reads only int64 columns.
        e = parse(f"connsum(cable(0,4;1;unknot),1;{ITERATED},1)")
        for n in (16, 32, 128):
            calls = []
            sum_columns = asympt._sum_columns
            with monkeypatch.context() as mp:
                mp.setattr(asympt, "_sum_columns",
                           lambda *a: calls.append(a[4]) or sum_columns(*a))
                value = eval_normalized_at_root(e, n, 4)
            assert set(calls) == {np.int64}, n
            if n < 128:
                whole = asympt._value(colored_numerator(e, (n,) * 4), n, 4)
            else:  # the whole numerator's value, 1 s to recompute
                whole = 1667454.9606722656 - 563759.5818823582j
            assert value == pytest.approx(whole, rel=1e-12)
            expected = eval_normalized_at_root(parse(ITERATED), n)
            assert value == pytest.approx(expected, rel=1e-12)


class TestConnectedSumNumerator:
    def test_bound_covers_n_and_j(self):
        for text in (T23_T25, "connsum(cable(2,3;1;unknot),1;cable(0,2;1;unknot),1)",
                     "connsum(cable(2,5;1;cable(2,3;1;unknot)),1;unknot,1)"):
            e = parse(text)
            for n in (2, 5, 9):
                cols = (n,) * component_count(e)
                num = colored_numerator(e, cols)
                J = colored_jones(e, cols)
                assert num.bound == max(J.max_abs_coeff(),
                                        max(abs(int(c)) for c in num.coeffs))

    def test_running_sums_past_int64(self):
        # |N| < 2^62, but J climbs to 4 (2^62 - 1).
        a = 2 ** 62 - 1
        p = LaurentPoly.from_terms(zip(range(-14, 15, 4), [a] * 4 + [-a] * 4))
        num = _sparse(p)
        assert num.exps.tolist() == list(range(-14, 15, 4))
        assert num.bound == 4 * a
