"""Acceptance suite: one test per criterion, with stated tolerances pinned.

Each test prints a PASS line with the measured numbers (run with -s to see
them on success).  Budgets are wall-clock seconds on a desktop-class core.
"""

import random
import time
from itertools import product

from cablejones.asympt import (
    GrowthRecord,
    growth_table,
    moderation_check,
    vanishing_order,
)
from cablejones.bracket import cable_word, equal_up_to_monomial, jones_from_bracket
from cablejones.jones import colored_jones, normalized_jones
from cablejones.laurent import (
    LaurentPoly,
    RootOfUnityPoint,
    quantum_integer,
)
from cablejones.linkexpr import component_count, mirror_expr, parse
from cablejones.symfun import verify_coefficients

from conftest import random_expr, random_poly


def lp(*terms):
    return LaurentPoly.from_terms(terms)


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_trefoil_exact_values():
    start = time.perf_counter()
    J = colored_jones(parse("cable(2,3;1;unknot)"), (2,))
    Q = normalized_jones(parse("cable(2,3;1;unknot)"), (2,), 1)
    elapsed = time.perf_counter() - start
    ok = (J == lp((16, 1), (12, 1), (8, 1), (0, -1))
          and Q == lp((14, 1), (6, 1), (2, -1))
          and elapsed < 0.010)
    report(1, ok, f"trefoil J and quotient exact in {elapsed * 1000:.2f} ms")


def test_criterion_2_bracket_oracle_agreement():
    start = time.perf_counter()
    matches = []
    for r, s in ((2, 3), (-2, 3), (2, 5), (3, 4), (2, 2), (2, 4)):
        e = parse(f"cable({r},{s};1;unknot)")
        engine = normalized_jones(e, (2,) * component_count(e), 1)
        word, strands, _ = cable_word(e)
        oracle = jones_from_bracket(word, strands)
        m = equal_up_to_monomial(engine, oracle)
        matches.append(((r, s), m))
    elapsed = time.perf_counter() - start
    ok = all(m is not None for _, m in matches) and elapsed < 2.0
    found = ", ".join(f"{rs}:(sign {m.sign:+d}, shift {m.shift})"
                      for rs, m in matches)
    report(2, ok, f"6 torus diagrams matched in {elapsed:.2f} s [{found}]")


def test_criterion_3_coefficient_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    ok = True
    for g in (1, 2, 3):
        for colors in product(range(1, 5), repeat=g):
            for p in (1, 2, 3):
                if not verify_coefficients(colors, p).passed:
                    ok = False
                checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(3, ok, f"{checked} (colors, p) cases, both oracles, in {elapsed:.2f} s")


def test_criterion_4_structural_identities():
    rng = random.Random(41)
    # (r,1)-cable equals framing twist on unknot and trefoil companions.
    for companion in ("unknot", "cable(2,3;1;unknot)"):
        for r in range(-3, 4):
            for n in range(1, 7):
                a = colored_jones(parse(f"cable({r},1;1;{companion})"), (n,))
                b = colored_jones(parse(f"twist({r};1;{companion})"), (n,))
                assert a == b, (companion, r, n)
    # 0-winding cables of the unknot factor into quantum integers.
    for s in (2, 3, 4):
        e = parse(f"cable(0,{s};1;unknot)")
        for cols in product(range(1, 5), repeat=s):
            expected = LaurentPoly.one()
            for n in cols:
                expected = expected * quantum_integer(n)
            assert colored_jones(e, cols) == expected, cols
    # Mirror property on 50 random expressions.
    for _ in range(50):
        e = random_expr(rng)
        cols = tuple(rng.randint(1, 3) for _ in range(component_count(e)))
        assert colored_jones(mirror_expr(e), cols) == \
            colored_jones(e, cols).mirror(), (e, cols)
    # Connected-sum associativity on knots.
    t, u, v = ("cable(2,3;1;unknot)", "cable(-2,3;1;unknot)", "twist(2;1;unknot)")
    left = parse(f"connsum(connsum({t},1;{u},1),1;{v},1)")
    right = parse(f"connsum({t},1;connsum({u},1;{v},1),1)")
    for n in (2, 3, 4):
        assert colored_jones(left, (n,)) == colored_jones(right, (n,))
    # Framed Hopf value.
    assert colored_jones(parse("cable(2,2;1;unknot)"), (2, 2)) == \
        quantum_integer(4).scale_shift(1, 6)
    report(4, True, "twist equivalence, unlink factorization, 50 mirrors, "
                    "connected-sum associativity, Hopf value")


def test_criterion_5_unlink_vanishing_order():
    checked = 0
    for s in (1, 2, 3):
        e = parse("unknot") if s == 1 else parse(f"cable(0,{s};1;unknot)")
        for n in range(2, 9):
            J = colored_jones(e, (n,) * s)
            order = vanishing_order(J, RootOfUnityPoint(n))
            assert order == s, (s, n, order)
            checked += 1
    report(5, True, f"zero of order exactly s at A0 in {checked} (s, N) cases")


_DECAY_FAMILIES = {
    "T(2,3)": ("cable(2,3;1;unknot)", [8, 16, 32, 64, 128, 256, 512]),
    "T(2,4)": ("cable(2,4;1;unknot)", [8, 16, 32, 64, 128, 256, 512]),
    "iterated": ("cable(2,13;1;cable(2,3;1;unknot))", [8, 16, 32, 64, 128, 256, 512]),
}
_decay_tables: dict = {}


def _family_tables():
    if not _decay_tables:
        for name, (text, ns) in _DECAY_FAMILIES.items():
            _decay_tables[name] = growth_table(parse(text), ns, 1)
    return _decay_tables


def test_criterion_6_volume_conjecture_decay():
    # The 0.3 ceiling is calibrated at N = 512, and every family is swept
    # that far: vc of the iterated cable falls 0.706, 0.380, 0.210 from
    # N = 128 to 512.
    start = time.perf_counter()
    tables = _family_tables()
    details = []
    ok = True
    for name, records in tables.items():
        tail = [r.vc_value for r in records if r.N >= 32]
        decreasing = all(b < a for a, b in zip(tail, tail[1:]))
        final = records[-1].vc_value
        ok = ok and decreasing and final < 0.3
        details.append(f"{name}: vc({records[-1].N})={final:.3f}"
                       f"{' decreasing' if decreasing else ' NOT decreasing'}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    report(6, ok, f"{'; '.join(details)}; total {elapsed:.1f} s")


def test_criterion_7_moderation():
    tables = _family_tables()
    details = []
    ok = True
    for name, records in tables.items():
        rep = moderation_check(records)
        ok = ok and rep.passed
        details.append(f"{name}: coeff slope {rep.coeff_slope:.2f}, "
                       f"span slope {rep.span_slope:.2f}")
    control = [GrowthRecord(n, n * n, 0, 2 ** n, 1.0, 0.0)
               for n in (8, 16, 32, 64, 128)]
    control_fails = not moderation_check(control).passed
    ok = ok and control_fails
    report(7, ok, f"{'; '.join(details)}; exponential control rejected: "
                  f"{control_fails}")


def test_criterion_8_ring_and_evaluation_properties():
    rng = random.Random(88)
    start = time.perf_counter()
    cases = 0
    for k in range(1000):
        if k % 40 == 0:
            # Spans up to 1e6 and coefficients up to 1e6: the residue-class
            # reduction must hold the homomorphism to 1e-9 at full scale.
            a = random_poly(rng, max_terms=5, max_exp=5 * 10 ** 5,
                            max_coeff=10 ** 6)
            b = random_poly(rng, max_terms=5, max_exp=5 * 10 ** 5,
                            max_coeff=10 ** 6, nonzero=True)
        else:
            a = random_poly(rng, max_terms=7, max_exp=25, max_coeff=50)
            b = random_poly(rng, max_terms=7, max_exp=25, max_coeff=50,
                            nonzero=True)
            assert (a * b).exact_divide(b) == a
            assert (a * b).derivative() == \
                a.derivative() * b + a * b.derivative()
        pt = RootOfUnityPoint(rng.randint(2, 30))
        va, vb = a.eval_at_root(pt), b.eval_at_root(pt)
        vab = (a * b).eval_at_root(pt)
        assert abs(vab - va * vb) < 1e-9 * (1 + abs(va * vb))
        zm = a.mirror().eval_at_root(pt)
        assert abs(zm - va.conjugate()) < 1e-9 * (1 + abs(va))
        assert a.mirror().mirror() == a
        cases += 1
    elapsed = time.perf_counter() - start
    ok = cases == 1000 and elapsed < 5.0
    report(8, ok, f"{cases} randomized ring/evaluation cases in {elapsed:.2f} s")
