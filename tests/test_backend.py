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
import math
import random

import numpy as np
import pytest

from cablejones import laurent
from cablejones.asympt import growth_table
from cablejones.jones import colored_jones
from cablejones.laurent import (
    LaurentPoly,
    NotDivisible,
    RootOfUnityPoint,
    _add_product,
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


def no_convolve(monkeypatch):
    """Make any product that would convolve fail, so it must take the
    sparse path."""
    def fail(*args, **kwargs):
        raise AssertionError("the product convolved")
    monkeypatch.setattr(np, "convolve", fail)


SCATTER, SHIFTED = 0, 10 ** 18  # laurent._SCATTER_COST values that force one regime


def sparse_regimes(monkeypatch):
    """Run a loop body once with each regime of the sparse product forced,
    checking that its products took that regime and never convolved."""
    no_convolve(monkeypatch)
    shifted = []
    add_shifted = laurent._add_shifted

    def spy(*args):
        shifted.append(True)
        add_shifted(*args)

    monkeypatch.setattr(laurent, "_add_shifted", spy)
    for cost in (SCATTER, SHIFTED):
        monkeypatch.setattr(laurent, "_SCATTER_COST", cost)
        shifted.clear()
        yield cost
        assert bool(shifted) == (cost == SHIFTED)


def ring_terms(rng, span: int) -> list:
    """Five terms with distinct exponents spanning exactly `span`."""
    lo = rng.randint(-5 * 10 ** 5, 5 * 10 ** 5 - span)
    inner = rng.sample(range(lo + 1, lo + span), 3)
    return [(e, rng.choice((-1, 1)) * rng.randint(1, 10 ** 6))
            for e in sorted((lo, *inner, lo + span))]


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

    def test_sparse_products(self, rng, monkeypatch):
        # Each factor is a pair of far-apart copies, so the shorter one is
        # sparse and every product takes the sparse path.
        pairs = []
        for a, b in all_pairs(rng):
            x = a + a.scale_shift(rng.choice((1, -1, 2, -7)), 5000 + rng.randint(0, 40))
            y = b + b.scale_shift(rng.choice((1, -1, 3)), 9000 + rng.randint(0, 40))
            pairs.append((x, y, ref_mul(ref(x), ref(y))))
        for _ in sparse_regimes(monkeypatch):
            for x, y, expected in pairs:
                check(x * y, expected)
                check(y * x, expected)

    def test_ring_shaped_sparse_products(self, rng, monkeypatch):
        # Five terms a factor at spans near 1e6, as in the benchmark's
        # sparse ring cases, and (1 + A^k)(1 - A^k) = 1 - A^2k, whose middle
        # term cancels.  The ends of a product are the products of the
        # factors' ends, so they never cancel.
        pairs = []
        for span in (9 * 10 ** 5, 10 ** 6 - 1, 10 ** 6):
            a = LaurentPoly.from_terms(ring_terms(rng, span))
            b = LaurentPoly.from_terms(ring_terms(rng, span - rng.randint(0, 1000)))
            pairs.append((a, b))
        k = 3 * 10 ** 5
        pairs.append((LaurentPoly.from_terms([(0, 1), (k, 1)]),
                      LaurentPoly.from_terms([(-7, 1), (k - 7, -1)])))
        monkeypatch.setattr(laurent, "_SCATTER_CHUNK", 7)  # one row a chunk
        for _ in sparse_regimes(monkeypatch):
            for a, b in pairs:
                p = a * b
                check(p, ref_mul(ref(a), ref(b)))
                assert p.step == 1 and len(p.coeffs) == len(a.coeffs) + len(b.coeffs) - 1
        assert ref(pairs[-1][0] * pairs[-1][1]) == {-7: 1, 2 * k - 7: -1}

    def test_sparse_product_kernel_with_a_one_term_factor(self, monkeypatch):
        # The kernel on its own: out[ka + kb] += ca cb, a one-term side first
        # or second, against a loop over the terms.
        kb = np.array([0, 3, 4, 900], dtype=np.int64)
        cb = np.array([5, -1, 2, -7], dtype=np.int64)
        for _ in sparse_regimes(monkeypatch):
            for ka, ca in ((np.array([0]), np.array([3])), (np.array([0]), np.array([-1])),
                           (np.array([0, 6]), np.array([1, 4]))):
                for args in ((ka, ca, kb, cb), (kb, cb, ka, ca)):
                    out = np.zeros(int(ka[-1] + kb[-1]) + 1, dtype=np.int64)
                    _add_product(out, *args)
                    expected = np.zeros_like(out)
                    for i, c in zip(ka.tolist(), ca.tolist()):
                        for j, d in zip(kb.tolist(), cb.tolist()):
                            expected[i + j] += c * d
                    assert out.tolist() == expected.tolist()

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
    def test_sparse_product_bound_passes_the_edge(self, monkeypatch):
        # sum |c| * bound(y) = 2^62 puts the buffer on Python ints; the
        # overlap cancels, so the exact result fits int64 and comes back so.
        # Just below, at 2^62 - 1, the buffer is int64 and so is the result.
        y = LaurentPoly(0, [1] * 20001)
        buffers = []

        def spy(val, arr, *args):
            buffers.append(arr.dtype)
            return make(val, arr, *args)

        make = laurent._make
        monkeypatch.setattr(laurent, "_make", spy)
        for _ in sparse_regimes(monkeypatch):
            for c, d, buf, top in ((2 ** 61, -(2 ** 61), object, 2 ** 61),
                                   (2 ** 61, 2 ** 61, object, 2 ** 62),
                                   (2 ** 61 - 1, 2 ** 61, np.int64, 2 ** 62 - 1)):
                x = LaurentPoly.from_terms([(0, c), (10 ** 4, d)])
                buffers.clear()
                p = x * y
                check(p, ref_mul(ref(x), ref(y)))
                assert p.max_abs_coeff() == top and buffers == [np.dtype(buf)]

    def test_sparse_product_leaves_its_factors_alone(self, monkeypatch):
        # Terms of +-1 add y as it is; the result owns a fresh read-only
        # array of exactly the product's length.
        y = LaurentPoly(-3, [2, -1, 5] * 3000)
        x = LaurentPoly.from_terms([(0, 1), (4000, -1), (8000, 3)])
        before = y.coeffs.copy()
        for _ in sparse_regimes(monkeypatch):
            p = x * y
            check(p, ref_mul(ref(x), ref(y)))
            assert (y.coeffs == before).all() and not p.coeffs.flags.writeable
            assert not np.shares_memory(p.coeffs, y.coeffs)
            assert len(p.coeffs.base) == len(p.coeffs) == len(x.coeffs) + len(y.coeffs) - 1

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

    def test_input_errors(self):
        with pytest.raises(ValueError, match="N must be a positive integer"):
            RootOfUnityPoint(0)
        with pytest.raises(ValueError, match="divisor color must be >= 1"):
            divide_by_quantum_integer(quantum_integer(3), 0)
        with pytest.raises(ValueError, match="in the variable A"):
            LaurentPoly.from_json_dict({"variable": "q", "terms": [[0, "1"]]})


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

    def test_sparse_product_takes_the_gcd_lattice(self, monkeypatch):
        # A far term keeps the shorter factor sparse, so the sparse path
        # runs, on the lattice gcd(step_x, step_y).
        for _ in sparse_regimes(monkeypatch):
            for sx in (4, 2, 1, 6):
                for sy in (4, 2, 1, 6):
                    x = strided(2, sx, [3, 0, -1] + [0] * 3000 + [2])
                    y = strided(-7, sy, [k % 5 - 2 or 1 for k in range(3500)])
                    p = x * y
                    check(p, ref_mul(ref(x), ref(y)))
                    assert p.step == math.gcd(sx, sy)

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

    def test_json_read_back_takes_the_step_of_its_exponents(self):
        def round_trip(p):
            return LaurentPoly.from_json_dict(json.loads(json.dumps(p.to_json_dict())))

        cable = colored_jones(parse("cable(2,13;1;cable(2,3;1;unknot))"), (6,))
        back = round_trip(cable)
        assert back == cable and back.step == 4 and back.coeffs.dtype == np.int64
        assert len(back.coeffs) == len(cable.coeffs)
        for p, step in ((LaurentPoly.monomial(-3, 8), 1),          # one term
                        (LaurentPoly.from_terms([(-3, 1), (2, 5), (6, -1)]), 1),
                        (strided(-6, 6, [2 ** 70, 0, -1]), 12),
                        (LaurentPoly.zero(), 1)):
            back = round_trip(p)
            assert back == p and back.step == step
            assert back.coeffs.dtype == p.coeffs.dtype
        # Built from terms, the same value stays on step 1.
        assert LaurentPoly.from_terms(cable.support()).step == 1

    def test_memo_keeps_the_numerator(self):
        # The memo holds numerators J (A^2 - A^-2); [5] becomes A^10 - A^-10,
        # two terms, where J itself has 5 entries and an exponent span of 17.
        q = quantum_integer(5)
        memo = {}
        assert colored_jones(Unknot(), (5,), memo) == q
        [(key, num)] = memo.items()
        assert key == (Unknot(), (5,))
        assert num.exps.tolist() == [-10, 10] and num.coeffs.tolist() == [-1, 1]
        # A repeat query is served from the memo, entry for entry.
        memo[key] = num._replace(coeffs=2 * num.coeffs, bound=2)
        assert colored_jones(Unknot(), (5,), memo) == 2 * q


class TestTrim:
    """_make trims zero runs at either end of wide arrays in one scan."""

    def test_zero_runs_at_the_ends(self, monkeypatch, rng):
        scans = []
        support = laurent._support

        def spy(arr):
            scans.append(len(arr))
            return support(arr)

        monkeypatch.setattr(laurent, "_support", spy)
        for n in (5_000, 20_000, 50_000):
            lo = rng.randint(1, n // 8)
            hi = rng.randint(4097, n - lo - 2)
            for low, high in ((lo, 0), (0, hi), (lo, hi), (n, 0)):
                for scale in (1, 2 ** 70):
                    arr = np.zeros(n, dtype=object)
                    arr[low: n - high] = [scale * rng.randint(-3, 3)
                                          for _ in range(n - high - low)]
                    if low < n:
                        arr[low] = arr[n - high - 1] = scale
                    if scale == 1:
                        arr = arr.astype(np.int64)
                    expected = {-7 + 4 * i: int(c) for i, c in enumerate(arr) if c}
                    scans.clear()
                    p = _make(-7, arr, step=4)
                    assert scans == [n]
                    check(p, expected)
                    assert p.val == (-7 + 4 * low if expected else 0)


class TestWideEquality:
    """Equality of int64 arrays around 8192 entries and far past them."""

    @staticmethod
    def wide(n: int, val: int = -5, step: int = 4) -> LaurentPoly:
        return _make(val, np.arange(n, dtype=np.int64) % 7 + 1, step=step)

    def test_equal_and_unequal_arrays(self):
        for n in (8191, 8192, 8193, 300_000):
            a = self.wide(n)
            assert a == self.wide(n)
            assert a != self.wide(n, val=-1) and a != self.wide(n, step=2)
            for i in (0, n // 2, n - 1):
                c = a.coeffs.copy()
                c[i] += 1
                b = _make(a.val, c, step=a.step)
                assert a != b and b != a

    def test_mirror_views(self):
        for n in (8193, 300_000):
            a = self.wide(n)
            am = a.mirror()
            assert not am.coeffs.flags.c_contiguous
            assert am.mirror() == a and am == _make(am.val, am.coeffs.copy(), step=4)
            c = am.coeffs.copy()
            c[n // 2] = -c[n // 2]
            assert am != _make(am.val, c, step=4)
            assert _make(am.val, c, step=4).mirror() != a

    def test_different_steps(self):
        # The same value on step 4 and spread onto step 2 still compares equal.
        a = self.wide(8192)
        spread = np.zeros(2 * len(a.coeffs) - 1, dtype=np.int64)
        spread[::2] = a.coeffs
        assert a == _make(a.val, spread, step=2)
        spread[len(spread) // 2 + 1] = 1
        assert a != _make(a.val, spread, step=2)


# -- carried supports ---------------------------------------------------------

def carried(p: LaurentPoly) -> LaurentPoly:
    """p, once a support that it carries is checked against its array."""
    if p._nz is not None:
        assert p._nz.dtype == np.int64
        assert p._nz.tolist() == laurent._support(p.coeffs).tolist()
    return p


def dropped(p: LaurentPoly) -> LaurentPoly:
    """The same value on the same array, carrying no support."""
    return laurent._wrap(p.val, p.coeffs, p._bound, p.step)


def wide_sparse(rng, step: int = 1, mag: int = 10 ** 6, top: float = 6) -> LaurentPoly:
    """3 to 8 terms over a span of 1e3 to 10^top exponents, all multiples of
    `step` apart, read back from JSON, which puts them on that lattice (or
    a coarser one) and carries the support when it is sparse."""
    span = int(10 ** rng.uniform(3, top)) // step
    ks = {0, span} | {rng.randint(1, span - 1) for _ in range(rng.randint(1, 6))}
    lo = rng.randint(-10 ** 6, 10 ** 5)
    terms = [[lo + step * k, str(rng.choice((-1, 1)) * rng.randint(1, mag))] for k in ks]
    return carried(LaurentPoly.from_json_dict({"variable": "A", "terms": terms}))


def carried_pairs(rng):
    """Pairs with at least one sparse factor of 1 to 8 terms: on steps 1, 2
    and 4, with Python-int coefficients, against sparse, dense, monomial
    and zero factors, and (A^a + A^(a+k)) (A^b - A^(b+k)), whose middle
    cancels."""
    # Python-int arrays are slow to build and check, so they span less.
    sparse = [wide_sparse(rng, step, mag, top)
              for step in (1, 2, 4) for mag, top in ((10 ** 6, 6), (2 ** 70, 4.5))
              for _ in range(6)]
    sparse += [LaurentPoly.from_terms([(-8, 5), (span - 8, -(2 ** 70))])
               for span in (1500, 3000, 30000)]
    others = [random_poly(rng, nonzero=True), LaurentPoly.monomial(-7, 12), LaurentPoly.zero(),
              LaurentPoly.from_terms([(5, 3), (5, -3)]),        # cancels to zero
              LaurentPoly.from_terms([(5, 3), (8, 1), (8, -1)])]  # to one term
    for a in sparse:
        yield a, rng.choice(sparse)
        yield a, rng.choice(others)
    # A dense factor longer than the sparse one.
    dense = LaurentPoly(-3, [2, -1, 5] * 3000)
    for step in (1, 2, 4):
        yield wide_sparse(rng, step, top=3.8), dense
    for k in (3000, 4 * 10 ** 5):
        yield (LaurentPoly.from_terms([(-9, 1), (k - 9, 1)]),
               LaurentPoly.from_terms([(4, 1), (k + 4, -1)]))


class TestCarriedSupport:
    """A polynomial that carries its support gives what the same array gives
    without it, and the support it carries is its true one."""

    def test_products(self, rng):
        kinds = set()
        for a, b in carried_pairs(rng):
            for x, y in ((a, b), (b, a)):
                p = carried(x * y)
                expected = dropped(x) * dropped(y)
                check(p, ref_mul(ref(x), ref(y)))
                assert p == expected and expected == p
                assert p.coeffs.dtype == expected.coeffs.dtype and p.step == expected.step
                kinds.add((x._nz is not None, y._nz is not None, p._nz is not None))
                # A product carries exactly when its term bound is sparse,
                # whichever factor carried.
                assert (p._nz is not None) == laurent._is_sparse(
                    x.num_terms() * y.num_terms(), len(p.coeffs))
        assert {(True, True, True), (True, False, True), (True, False, False),
                (False, False, False)} <= kinds

    def test_middle_cancellation(self):
        k = 4 * 10 ** 5
        p = carried(LaurentPoly.from_terms([(0, 1), (k, 1)])
                    * LaurentPoly.from_terms([(0, 1), (k, -1)]))
        assert p._nz.tolist() == [0, 2 * k] and ref(p) == {0: 1, 2 * k: -1}

    def test_unary_operations_and_json(self, rng):
        for a, _ in carried_pairs(rng):
            for p, expected in ((-a, -dropped(a)),
                                (a.scale_shift(1, 7), dropped(a).scale_shift(1, 7)),
                                (a.scale_shift(-3, -2), dropped(a).scale_shift(-3, -2)),
                                (a.scale_shift(2 ** 70, 0), dropped(a).scale_shift(2 ** 70, 0)),
                                (a.mirror(), dropped(a).mirror()),
                                (a.mirror().mirror(), a)):
                carried(p)
                assert p._nz is None or a._nz is not None
                assert p == expected and expected == p
                assert p.coeffs.dtype == expected.coeffs.dtype
            assert list(a.support()) == list(dropped(a).support())
            assert a.num_terms() == dropped(a).num_terms() and str(a) == str(dropped(a))
            back = carried(LaurentPoly.from_json_dict(json.loads(json.dumps(a.to_json_dict()))))
            assert back == a and list(back.support()) == list(a.support())
            if back.step == a.step:
                assert (back._nz is None) == (a._nz is None)

    def test_eval_at_root(self, rng):
        for a, b in carried_pairs(rng):
            for p in (a, a * b, a.mirror()):
                for n in (2, 5, 12, 30):
                    pt = RootOfUnityPoint(n)
                    got, expected = p.eval_at_root(pt), dropped(p).eval_at_root(pt)
                    assert abs(got - expected) <= 1e-12 * abs(expected)
                    assert str(got) == str(expected) or got
        # c A^a - c A^(a + 4N t) vanishes at A0 exactly; so does it times
        # anything, and one more term is its value.
        for n in (3, 8, 30):
            pt = RootOfUnityPoint(n)
            for c in (7, 2 ** 70):
                z = carried(LaurentPoly.from_terms([(-5, c), (-5 + 4 * n * 1000, -c)]))
                assert z._nz is not None
                for p in (z, z * wide_sparse(random.Random(n)), z.mirror()):
                    assert str(p.eval_at_root(pt)) == str(dropped(p).eval_at_root(pt)) == "0j"
                one = carried(LaurentPoly.from_terms([*z.support(), (4 * n * 500, 1)]))
                assert one._nz is not None and one.eval_at_root(pt) == 1

    def test_carrier_times_a_wide_sparse_sum(self, monkeypatch):
        # A sum carries no support, so its own value at A0 counts every
        # entry as a term in the rounding bound and often takes the exact
        # path; its product with a carrier counts the terms and carries.
        rng = random.Random(11)
        exact = []
        exact_value = laurent._exact_value

        def spy(columns, n):
            exact.append(n)
            return exact_value(columns, n)

        monkeypatch.setattr(laurent, "_exact_value", spy)
        products = []
        for _ in range(50):
            terms = ring_terms(rng, 8800)
            a = LaurentPoly.from_terms(ring_terms(rng, 8800))
            b = LaurentPoly.from_terms(terms[:2]) + LaurentPoly.from_terms(terms[2:])
            assert a._nz is not None and b._nz is None
            p = carried(a * b)
            check(p, ref_mul(ref(a), ref(b)))
            assert p._nz is not None
            products.append(p)
        points = [RootOfUnityPoint(n) for n in (2, 5, 12, 30)]
        for p in products:
            for pt in points:
                p.eval_at_root(pt)
        assert exact == []
        for p in products:
            for pt in points:
                dropped(p).eval_at_root(pt)
        assert exact

    def test_equality_against_a_changed_coefficient(self, rng):
        for a, _ in carried_pairs(rng):
            if a._nz is None:
                continue
            assert a == dropped(a) and dropped(a) == a
            for i in (a._nz[0], a._nz[len(a._nz) // 2], a._nz[-1]):
                c = a.coeffs.copy()
                c[i] += 1
                for b in (laurent._wrap(a.val, c, a._bound + 1, a.step, a._nz),
                          _make(a.val, c, step=a.step)):
                    assert a != b and b != a
            # A term added between two of a's also makes them differ.
            gap = int(np.argmax(np.diff(a._nz)))
            other = carried(a + LaurentPoly.monomial(1, a.val + a.step * (int(a._nz[gap]) + 1)))
            assert a != other and other != a


class TestProductsCountBothFactors:
    """A product decides to convolve from both factors' lengths and term
    counts on their common lattice, so a factor that is short only on its
    own coarse lattice, or a dense factor times a sparse longer one, never
    convolves."""

    def test_coarse_two_term_factor(self, monkeypatch):
        # Read back from JSON, two terms 30000 apart sit on step 30000 in
        # two entries; on step 1 they span 30001.
        no_convolve(monkeypatch)
        three = LaurentPoly.from_terms([(-11, 4), (50_000, -9), (174_911, 7)])
        for big in (5, 2 ** 70):
            two = LaurentPoly.from_json_dict(
                {"variable": "A", "terms": [[30_000, "-3"], [0, str(big)]]})
            assert two.step == 30_000 and len(two.coeffs) == 2 and two._nz is None
            for x, y in ((two, three), (three, two)):
                p = carried(x * y)
                check(p, ref_mul(ref(x), ref(y)))
                assert p._nz is not None

    def test_dense_factor_times_two_far_terms(self, monkeypatch):
        no_convolve(monkeypatch)
        dense = _make(-7, np.arange(200_000, dtype=np.int64) % 7 - 9)
        two = LaurentPoly.from_terms([(0, 3), (300_000, -2)])
        assert two._nz is not None
        first = dense * two
        check(first, ref_mul(ref(dense), ref(two)))
        for p in (two * dense, dense * dropped(two), dropped(two) * dense):
            assert p == first and p.coeffs.dtype == first.coeffs.dtype


class TestSparseCasesCostTheirTerms:
    """Ring-style sparse cases never scan a coefficient array; small dense
    cases still do."""

    @staticmethod
    def spy(monkeypatch) -> list:
        calls = []
        support, residue_sums = laurent._support, LaurentPoly._residue_sums

        def spy_support(arr):
            calls.append("_support")
            return support(arr)

        def spy_residue_sums(self, order):
            calls.append("_residue_sums")
            return residue_sums(self, order)

        monkeypatch.setattr(laurent, "_support", spy_support)
        monkeypatch.setattr(LaurentPoly, "_residue_sums", spy_residue_sums)
        return calls

    @staticmethod
    def ring_case(a: LaurentPoly, b: LaurentPoly, pt: RootOfUnityPoint):
        a.eval_at_root(pt)
        (a * b).eval_at_root(pt)
        a.mirror().eval_at_root(pt)
        assert a.mirror().mirror() == a

    def test_sparse_cases(self, rng, monkeypatch):
        calls = self.spy(monkeypatch)
        for span in (10 ** 4, 3 * 10 ** 4, 10 ** 5, 3 * 10 ** 5, 10 ** 6):
            a = LaurentPoly.from_terms(ring_terms(rng, span))
            b = LaurentPoly.from_terms(ring_terms(rng, span - rng.randint(0, 1000)))
            self.ring_case(a, b, RootOfUnityPoint(rng.randint(2, 30)))
            self.ring_case(b, a, RootOfUnityPoint(rng.randint(2, 30)))
            a.to_json_dict(), str(a)
        assert calls == []

    def test_dense_cases(self, rng, monkeypatch):
        calls = self.spy(monkeypatch)
        for _ in range(20):
            a, b = random_poly(rng, nonzero=True), random_poly(rng, nonzero=True)
            self.ring_case(a, b, RootOfUnityPoint(rng.randint(2, 30)))
        assert calls.count("_residue_sums") == 60
        calls.clear()
        # Five terms over a span too short to carry take the sparse product
        # on a scanned support, one scan per factor that carries none.
        a = LaurentPoly.from_terms(ring_terms(rng, 1500))
        b = LaurentPoly.from_terms(ring_terms(rng, 1600))
        c = LaurentPoly.from_terms(ring_terms(rng, 10 ** 5))
        assert a._nz is None and b._nz is None and c._nz is not None
        a * b
        assert calls == ["_support", "_support"]
        calls.clear()
        a * c
        assert calls == ["_support"]
