"""Exact-vs-fast referee for the LaurentPoly array backend.

Each reference value is a dict {exponent: coefficient} of Python ints and
each reference operation is a plain loop over it, so nothing can overflow
or round.  The array backend must give exactly the same polynomial, in its
canonical dtype: int64 when every |coefficient| is below 2^62, object
otherwise.  Inputs cover small dense spans, sparse spans near 1e6,
coefficients around the int64 edge, and polynomials stored on exponent
lattices of steps 1, 2, 3, 4 and 6, mixed with monomials.
"""

import json

import numpy as np
import pytest

from cablejones import jones
from cablejones.asympt import growth_table
from cablejones.jones import colored_jones
from cablejones.laurent import (
    LaurentPoly,
    NotDivisible,
    PolyAccumulator,
    RootOfUnityPoint,
    _make,
    divide_by_quantum_integer,
    quantum_integer,
)
from cablejones.linkexpr import Unknot, parse

from conftest import random_poly

EDGE = (2 ** 61, 2 ** 62 - 1, 2 ** 62, 2 ** 62 + 1, 2 ** 63, 2 ** 100)


# -- the reference ------------------------------------------------------------

def ref(p: LaurentPoly) -> dict:
    return dict(p.support())


def clean(d: dict) -> dict:
    return {e: c for e, c in d.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return clean(out)


def ref_scale_shift(a: dict, coeff: int, shift: int) -> dict:
    return clean({e + shift: c * coeff for e, c in a.items()})


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            out[e + f] = out.get(e + f, 0) + c * d
    return clean(out)


def ref_derivative(a: dict) -> dict:
    return clean({e - 1: c * e for e, c in a.items()})


def ref_divide(num: dict, den: dict) -> dict:
    """Long division from the top term; raises NotDivisible like the backend."""
    num = dict(num)
    low = min(num) if num else 0
    dtop, dlow = max(den), min(den)
    q = {}
    while num:
        top = max(num)
        e = top - dtop
        # q * den would then reach below the lowest term of num.
        if e + dlow < low:
            raise NotDivisible("reference: nonzero remainder")
        cq, r = divmod(num[top], den[dtop])
        if r:
            raise NotDivisible("reference: leading coefficient does not divide")
        q[e] = cq
        for f, d in den.items():
            num[e + f] = num.get(e + f, 0) - cq * d
        num = clean(num)
    return q


def ref_residue_sums(a: dict, order: int) -> list:
    sums = [0] * order
    for e, c in a.items():
        sums[e % order] += c
    return sums


def check(p: LaurentPoly, expected: dict):
    """p equals the reference exactly and sits in its canonical dtype."""
    assert ref(p) == expected
    big = max((abs(c) for c in expected.values()), default=0)
    assert p.coeffs.dtype == (np.dtype(np.int64) if big < 2 ** 62 else np.dtype(object))
    if p.coeffs.dtype == object:
        assert all(type(c) is int for c in p.coeffs)
    if expected:
        assert p.coeffs[0] != 0 and p.coeffs[-1] != 0


# -- inputs -------------------------------------------------------------------

def small_pairs(rng, count=60):
    for _ in range(count):
        yield random_poly(rng), random_poly(rng, nonzero=True)


def sparse_pairs(rng, count=4):
    for _ in range(count):
        yield (random_poly(rng, max_terms=5, max_exp=5 * 10 ** 5, max_coeff=10 ** 6),
               random_poly(rng, max_terms=5, max_exp=5 * 10 ** 5, max_coeff=10 ** 6,
                           nonzero=True))


def edge_polys(rng):
    """Polynomials mixing small coefficients with ones near the int64 edge."""
    for mag in EDGE:
        for _ in range(4):
            terms = [(rng.randint(-12, 12), rng.randint(-9, 9)) for _ in range(4)]
            terms += [(rng.randint(-12, 12), rng.choice((-1, 1)) * mag)
                      for _ in range(rng.randint(1, 3))]
            yield LaurentPoly.from_terms(terms)


def all_pairs(rng):
    yield from small_pairs(rng)
    yield from sparse_pairs(rng)
    edge = list(edge_polys(rng))
    for a in edge:
        yield a, rng.choice(edge)
        yield a, random_poly(rng, nonzero=True)


# -- the referee --------------------------------------------------------------

class TestReferee:
    def test_ring_operations(self, rng):
        for a, b in all_pairs(rng):
            ra, rb = ref(a), ref(b)
            check(a, ra)
            check(a + b, ref_add(ra, rb))
            check(a - b, ref_add(ra, ref_scale_shift(rb, -1, 0)))
            check(-a, ref_scale_shift(ra, -1, 0))
            check(a * b, ref_mul(ra, rb))
            coeff = rng.choice((1, -1, 3, -(2 ** 40), 2 ** 62, 2 ** 70))
            shift = rng.randint(-50, 50)
            check(a.scale_shift(coeff, shift), ref_scale_shift(ra, coeff, shift))
            check(a * coeff, ref_scale_shift(ra, coeff, 0))
            check(a.derivative(), ref_derivative(ra))
            check(a.mirror(), {-e: c for e, c in ra.items()})
            check(LaurentPoly.from_json_dict(json.loads(json.dumps(a.to_json_dict()))), ra)

    def test_both_product_paths(self):
        # Dense short operands convolve; a sparse wide one takes shifted adds.
        dense = LaurentPoly.from_terms((e, e % 7 - 3) for e in range(-20, 21))
        sparse = LaurentPoly.from_terms([(-4 * 10 ** 5, 5), (7, -2), (6 * 10 ** 5, 9)])
        for a, b in ((dense, dense), (sparse, dense), (sparse, sparse),
                     (dense * 2 ** 61, dense), (sparse * 2 ** 61, sparse)):
            check(a * b, ref_mul(ref(a), ref(b)))

    def test_division_by_quantum_integer(self, rng):
        for a, b in all_pairs(rng):
            n = rng.randint(1, 7)
            qn = ref(quantum_integer(n))
            product = ref_mul(ref(a), qn)
            check(divide_by_quantum_integer(a * quantum_integer(n), n),
                  ref_divide(product, qn) if product else {})
            check((a * b).exact_divide(b), ref(a))

    def test_not_divisible_agrees(self, rng):
        for _ in range(80):
            a = random_poly(rng, nonzero=True)
            n = rng.randint(2, 6)
            try:
                expected = ref_divide(ref(a), ref(quantum_integer(n)))
            except NotDivisible:
                with pytest.raises(NotDivisible):
                    divide_by_quantum_integer(a, n)
                with pytest.raises(NotDivisible):
                    a.exact_divide(quantum_integer(n))
            else:
                check(divide_by_quantum_integer(a, n), expected)

    def test_accumulator(self, rng):
        pairs = list(all_pairs(rng))
        for start in range(0, len(pairs), 6):
            acc = PolyAccumulator()
            expected = {}
            for a, _ in pairs[start: start + 6]:
                coeff = rng.choice((1, -1, 2, -7))
                shift = rng.randint(-40, 40)
                acc.add(coeff, shift, a)
                expected = ref_add(expected, ref_scale_shift(ref(a), coeff, shift))
            check(acc.result(), expected)

    def test_residue_sums(self, rng):
        for a, b in all_pairs(rng):
            for p in (a, a * b):
                order = 4 * rng.randint(1, 30)
                start, sums = p._residue_sums(order)
                got = [0] * order
                for j, s in enumerate(sums.tolist()):
                    got[(start + j) % order] += s
                assert got == ref_residue_sums(ref(p), order)


class TestInt64Edge:
    def test_accumulator_promotes_midway_and_demotes(self):
        big = LaurentPoly.monomial(2 ** 61, 5)
        acc = PolyAccumulator()
        acc.add(1, 0, big)
        acc.add(1, 0, big)            # running bound reaches 2^62: object
        acc.add(1, 1, big)
        check(acc.result(), {5: 2 ** 62, 6: 2 ** 61})
        acc.add(-2, 0, big)           # the exact sum fits int64 again
        check(acc.result(), {6: 2 ** 61})

    def test_accumulator_result_is_a_snapshot(self):
        acc = PolyAccumulator()
        acc.add(3, 0, quantum_integer(3))
        first = acc.result()
        acc.add(1, 0, quantum_integer(3))
        assert first == quantum_integer(3) * 3
        assert acc.result() == quantum_integer(3) * 4

    def test_derivative_at_huge_exponent(self):
        for c in (7, 2 ** 20, 2 ** 61):
            for e in (10 ** 12, -10 ** 12):
                p = LaurentPoly.from_terms([(e, c), (e + 3, -c), (e + 8, 1)])
                check(p.derivative(), ref_derivative(ref(p)))

    def test_derivative_of_a_big_constant(self):
        for mag in EDGE:
            assert LaurentPoly.monomial(mag, 0).derivative().is_zero()
            p = strided(-3, 3, [1, mag, 2])                 # constant term mid-array
            check(p.derivative(), ref_derivative(ref(p)))

    def test_products_and_sums_cross_the_edge(self):
        for mag in EDGE:
            p = LaurentPoly.from_terms([(0, mag), (4, -mag), (9, 1)])
            check(p, {0: mag, 4: -mag, 9: 1})
            check(p + p, ref_add(ref(p), ref(p)))
            check(p - p, {})
            check(p * p, ref_mul(ref(p), ref(p)))
            check(p * -p, ref_mul(ref(p), ref(-p)))
            check((p * p).exact_divide(p), ref(p))
            check(p.scale_shift(3, 2), ref_scale_shift(ref(p), 3, 2))
            assert p.abs_coeff_sum() == 2 * mag + 1
            assert p.max_abs_coeff() == mag
            pt = RootOfUnityPoint(3)
            _, sums = p._residue_sums(pt.order)
            assert sum(sums.tolist()) == 1
            assert abs(p.eval_at_root(pt) - sum(
                float(c) * pt.a0 ** e for e, c in ref(p).items())) < 1e-9 * mag

    def test_residue_sums_cross_the_edge(self):
        # int64 coefficients whose column sum does not fit int64.
        p = LaurentPoly.from_terms((4 * k + 1, 2 ** 62 - 1) for k in range(5))
        assert p.coeffs.dtype == np.int64
        start, sums = p._residue_sums(4)
        assert start == 1 and sums.tolist() == [5 * (2 ** 62 - 1), 0, 0, 0]

    def test_constructor_picks_canonical_dtype(self):
        for mag in EDGE:
            check(LaurentPoly(-3, [0, mag, 0, -1, 0]), {-2: mag, 0: -1})
            check(LaurentPoly.monomial(-mag, 8), {8: -mag})
        check(LaurentPoly(2, [0, 0]), {})


class TestPublicBoundary:
    """Values leave the module as Python ints, never numpy scalars.

    The referee's check() already pins the dtype after every operation.
    """

    def test_return_types(self, rng):
        samples = [random_poly(rng, nonzero=True) for _ in range(10)]
        samples += list(edge_polys(rng))
        for p in samples:
            assert all(type(e) is int and type(c) is int for e, c in p.support())
            assert type(p.coefficient(p.maxdeg)) is int
            assert type(p.coefficient(p.maxdeg + 1)) is int
            assert type(p.max_abs_coeff()) is int
            assert type(p.abs_coeff_sum()) is int
            assert type(p.maxdeg) is int and type(p.mindeg) is int
            assert type(p.num_terms()) is int
            json.dumps(p.to_json_dict())

    def test_growth_record_maxabscoeff_is_int(self):
        [rec] = growth_table(parse("cable(2,3;1;unknot)"), [6])
        assert type(rec.maxabscoeff) is int
        assert type(rec.maxdeg) is int and type(rec.mindeg) is int

    def test_coefficients_are_read_only(self):
        p = quantum_integer(3)
        with pytest.raises(ValueError):
            p.coeffs[0] = 5


# -- strided storage ----------------------------------------------------------

STEPS = (1, 2, 3, 4, 6)


def strided(val: int, step: int, coeffs) -> LaurentPoly:
    """sum(coeffs[i] A^(val + step*i)) stored on the lattice `step`."""
    return _make(val, np.array(coeffs, dtype=object), step=step)


def random_strided(rng, step: int, mags=(20,)) -> LaurentPoly:
    n = rng.randint(1, 10)
    coeffs = [0] * n
    for _ in range(rng.randint(1, 5)):
        coeffs[rng.randrange(n)] = rng.choice((-1, 1)) * rng.randint(1, rng.choice(mags))
    return strided(rng.randint(-30, 30), step, coeffs)


def strided_samples(rng, mags=(20,)):
    """Polynomials on every step in STEPS, monomials among them."""
    out = [random_strided(rng, s, mags) for s in STEPS for _ in range(4)]
    out += [LaurentPoly.monomial(rng.randint(1, 9), rng.randint(-9, 9)),
            quantum_integer(1).scale_shift(-5, 3),   # a monomial on step 4
            strided(7, 6, [rng.choice(mags)])]
    return out


def strided_pairs(rng, mags=(20,)):
    samples = strided_samples(rng, mags)
    for a in samples:
        for _ in range(3):
            yield a, rng.choice(samples)


class TestStridedStorage:
    def test_ring_operations_mixed_lattices(self, rng):
        for mags in ((20,), EDGE):
            for a, b in strided_pairs(rng, mags):
                ra, rb = ref(a), ref(b)
                check(a, ra)
                check(a + b, ref_add(ra, rb))
                check(a - b, ref_add(ra, ref_scale_shift(rb, -1, 0)))
                check(-a, ref_scale_shift(ra, -1, 0))
                check(a * b, ref_mul(ra, rb))
                check(a.scale_shift(3, 5), ref_scale_shift(ra, 3, 5))
                check(a.derivative(), ref_derivative(ra))
                check(a.mirror(), {-e: c for e, c in ra.items()})
                assert all(a.coefficient(e) == ra.get(e, 0)
                           for e in range(a.mindeg - 7, a.maxdeg + 8))

    def test_both_product_paths_on_lattices(self):
        dense = strided(-40, 4, [k % 5 - 2 or 1 for k in range(21)])
        sparse = strided(-8 * 10 ** 5, 4, [5] + [0] * 399_999 + [-3])
        third = strided(1, 3, [2, 0, -1, 4])
        for a, b in ((dense, dense), (sparse, dense), (sparse, sparse),
                     (sparse, third), (dense, third), (dense * 2 ** 61, dense),
                     (sparse * 2 ** 61, third)):
            check(a * b, ref_mul(ref(a), ref(b)))
        assert (sparse * dense).step == 4

    def test_exact_division(self, rng):
        for a, b in strided_pairs(rng):
            check((a * b).exact_divide(b), ref(a))
            for n in range(1, 6):
                check(divide_by_quantum_integer(a * quantum_integer(n), n), ref(a))

    def test_not_divisible_agrees(self, rng):
        for a, b in strided_pairs(rng):
            for num, den in ((a, b), (a + b, b)):
                if num.is_zero():
                    continue
                try:
                    expected = ref_divide(ref(num), ref(den))
                except NotDivisible:
                    with pytest.raises(NotDivisible):
                        num.exact_divide(den)
                else:
                    check(num.exact_divide(den), expected)
            for n in (2, 3, 5):
                qn = ref(quantum_integer(n))
                try:
                    expected = ref_divide(ref(a), qn)
                except NotDivisible:
                    with pytest.raises(NotDivisible):
                        divide_by_quantum_integer(a, n)
                else:
                    check(divide_by_quantum_integer(a, n), expected)

    def test_derivative_kills_a_middle_constant_term(self):
        p = strided(-6, 3, [1, -2, 7, 4, -1])   # exponents -6 .. 6, constant 7
        d = p.derivative()
        check(d, ref_derivative(ref(p)))
        assert d.coefficient(-1) == 0 and d.step == 3 and len(d.coeffs) == 5

    def test_eval_and_residue_sums_off_the_root_lattice(self, rng):
        # step does not divide 4N for steps 3 and 6 here: gathered powers.
        for p in strided_samples(rng, (20,) + EDGE):
            for n in (1, 2, 3, 5, 9):
                pt = RootOfUnityPoint(n)
                order = pt.order
                start, sums = p._residue_sums(order)
                got = [0] * order
                for j, s in enumerate(sums.tolist()):
                    got[(start + p.step * j) % order] += s
                assert got == ref_residue_sums(ref(p), order)
                powers = pt.powers()
                expected = sum(complex(powers[e % order]) * c for e, c in ref(p).items())
                scale = 1 + sum(abs(c) for c in ref(p).values())
                assert abs(p.eval_at_root(pt) - expected) <= 1e-12 * scale

    def test_accumulator_refines_its_lattice(self):
        acc = PolyAccumulator()
        expected = {}
        terms = [(1, 0, quantum_integer(4), 4),             # step 4 sets the lattice
                 (2, 6, quantum_integer(3), 4),             # on it
                 (-1, 2, strided(0, 2, [1, 3, 1]), 2),      # refines to 2
                 (3, 0, LaurentPoly.monomial(1, 5), 1),     # a monomial off it: 1
                 (1, -100, strided(0, 6, [1, 1]), 1)]       # a coarser term, far out
        for coeff, shift, poly, step in terms:
            acc.add(coeff, shift, poly)
            expected = ref_add(expected, ref_scale_shift(ref(poly), coeff, shift))
            result = acc.result()                           # shared, then copied
            check(result, expected)
            assert result.step == step
        acc = PolyAccumulator()
        acc.hint_bounds(-50, 50)
        acc.add(1, 0, quantum_integer(5))
        acc.add(1, 4, quantum_integer(5))
        assert acc.result().step == 4
        check(acc.result(), ref_add(ref(quantum_integer(5)),
                                    ref_scale_shift(ref(quantum_integer(5)), 1, 4)))

    def test_refinement_drops_the_coarse_margins(self):
        # Two terms stored on step 10^5: the first allocation's margins span
        # millions of exponents, and a refinement spreads only the written
        # range.
        wide = strided(0, 10 ** 5, [1, 1])
        acc = PolyAccumulator()
        acc.add(1, 0, wide)
        acc.add(1, 1, LaurentPoly.one())
        assert acc._step == 1 and len(acc._buf) <= 2 * 10 ** 5
        check(acc.result(), {0: 1, 1: 1, 10 ** 5: 1})
        # A buffer that cancelled to zero restarts at the refining term.
        acc = PolyAccumulator()
        acc.add(1, 0, wide)
        acc.add(-1, 0, wide)
        acc.add(2, 3, strided(0, 6, [1, 1]))
        assert acc._step == 1 and len(acc._buf) <= 64
        check(acc.result(), {3: 2, 9: 2})

    def test_equality_across_steps(self):
        q = quantum_integer(3)
        dense = LaurentPoly.from_terms(q.support())
        assert q.step == 4 and dense.step == 1
        assert q == dense and dense == q
        assert q != dense + LaurentPoly.monomial(1, 0)
        assert q != dense.scale_shift(1, 4)
        assert q * 2 ** 62 == dense * 2 ** 62 and q * 2 ** 62 != dense * (2 ** 62 - 1)
        assert strided(0, 2, [1, 0, 1]) == strided(0, 4, [1, 1]) == strided(0, 1, [1, 0, 0, 0, 1])
        assert strided(0, 2, [1, 5, 1]) != strided(0, 4, [1, 1])
        assert strided(0, 2, [2 ** 70, 0, 1]) != strided(0, 4, [2 ** 70, 1, 1])
        assert LaurentPoly.monomial(3, 8) == strided(8, 6, [3]) == quantum_integer(1).scale_shift(3, 8)

    def test_cancellation_leaves_a_coarser_true_lattice(self):
        a = strided(0, 2, [1, 1, 1])                        # 1 + A^2 + A^4
        b = strided(2, 1, [-1])                             # -A^2
        c = a + b
        assert c.step == 2 and c.coeffs.tolist() == [1, 0, 1]
        assert c == strided(0, 4, [1, 1]) == LaurentPoly.from_terms([(0, 1), (4, 1)])
        check(c * c, ref_mul(ref(c), ref(c)))
        check(divide_by_quantum_integer(c * quantum_integer(3), 3), ref(c))
        assert c.num_terms() == 2 and c.coefficient(2) == 0 and c.coefficient(4) == 1

    def test_engine_values_live_on_step_4(self):
        for text, colors in (("cable(2,13;1;cable(2,3;1;unknot))", (6,)),
                             ("connsum(cable(2,3;1;unknot),1;cable(2,5;1;unknot),1)", (5,)),
                             ("cable(2,4;1;unknot)", (4, 3))):
            p = colored_jones(parse(text), colors)
            assert p.step == 4
            assert p == LaurentPoly.from_terms(p.support())

    def test_memo_limits_the_exponent_span_not_the_stored_length(self, monkeypatch):
        q = quantum_integer(5)                              # 5 entries, span 17
        monkeypatch.setattr(jones, "MEMO_SPAN_LIMIT", 5)
        memo = {}
        assert colored_jones(Unknot(), (5,), memo) == q
        assert not memo
        monkeypatch.setattr(jones, "MEMO_SPAN_LIMIT", 17)
        assert colored_jones(Unknot(), (5,), memo) == q
        assert list(memo.values()) == [q]
