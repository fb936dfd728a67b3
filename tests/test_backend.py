"""Exact-vs-fast referee for the LaurentPoly array backend.

Each reference value is a dict {exponent: coefficient} of Python ints and
each reference operation is a plain loop over it, so nothing can overflow
or round.  The array backend must give exactly the same polynomial, in its
canonical dtype: int64 when every |coefficient| is below 2^62, object
otherwise.  Inputs cover small dense spans, sparse spans near 1e6, and
coefficients around the int64 edge.
"""

import json

import numpy as np
import pytest

from cablejones.asympt import growth_table
from cablejones.laurent import (
    LaurentPoly,
    NotDivisible,
    PolyAccumulator,
    RootOfUnityPoint,
    divide_by_quantum_integer,
    quantum_integer,
)
from cablejones.linkexpr import parse

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
