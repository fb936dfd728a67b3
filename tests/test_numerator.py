"""Referee for the numerator engine of cablejones.jones.

The referee is the dense recursion the engine replaced: every value is a
LaurentPoly, a cable adds up its terms child.scale_shift(c, shift) with +,
a connected sum multiplies and divides by [n], and values whose exponent
span exceeds a limit are not memoized.  colored_jones must give literally the same polynomial, in the
same dtype, on cables of the unknot and of everything else, negative
windings, colors through zero, twists, connected sums on both sides of a
cable, and inputs that push coefficients or exponents past int64.

The connected-sum kernel (sparse product, then division by
A^(2n) - A^(-2n)) has a referee of its own: the step-4 product with a dense
J and division by [n] that it replaced, which must give the same numerator
entry for entry in each regime of the product.

Merging equal exponents has a referee too: a dict of sums, on both of
_merge's sorts, at the edge where its packed int64 keys stop fitting.  A
cable of a torus knot's lattice keys are decoded per m, and taken to the
edges of int32 and of int64.
"""

from dataclasses import replace

import numpy as np
import pytest

from cablejones import jones, laurent
from cablejones.jones import (
    _lattice_indices,
    _materialize,
    _Numerator,
    _sparse,
    colored_jones,
    colored_numerator,
)
from cablejones.laurent import (
    LaurentPoly,
    NotDivisible,
    _make,
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
    mirror_expr,
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
        assert {(e, (n,)) for n in (3, 4, 5)} <= memo.keys()
        assert colored_numerator(e, (4,), memo) is memo[e, (4,)]
        # A cable of a torus knot is one sum; a child of any other shape is
        # memoized on its own.
        e = parse("cable(2,3;1;twist(1;1;cable(2,5;1;unknot)))")
        for n in (3, 5):
            same(colored_jones(e, (n,), memo), referee(e, (n,)))
        assert (e.child, (13,)) in memo


def unbatched(e):
    """e with every torus knot under a cable wrapped in a zero twist, which
    makes the engine expand that cable child by child."""
    if isinstance(e, Cable):
        child = e.child
        if (isinstance(child, Cable) and isinstance(child.child, Unknot)
                and cable_gcd(child.r, child.s) == 1):
            return replace(e, child=Twist(child, 1, 0))
        return replace(e, child=unbatched(child))
    if isinstance(e, Twist):
        return replace(e, child=unbatched(e.child))
    if isinstance(e, ConnSum):
        return replace(e, left=unbatched(e.left), right=unbatched(e.right))
    return e


def batched_agrees(e, *color_vectors):
    """The engine's numerator is the one that expanding each cable child by
    child gives (exponents, coefficients, dtypes and bound), and its J is
    the referee's."""
    if isinstance(e, str):
        e = parse(e)
    for colors in color_vectors:
        got = colored_numerator(e, colors)
        identical(got, colored_numerator(unbatched(e), colors))
        same(_materialize(got), referee(e, colors))


def spied(monkeypatch, name, f, *args):
    """What jones.<name> returned while f(*args) ran."""
    results = []
    original = getattr(jones, name)
    with monkeypatch.context() as mp:
        mp.setattr(jones, name, lambda *a: results.append(original(*a)) or results[-1])
        f(*args)
    return results


ITERATED = "cable(2,13;1;cable(2,3;1;unknot))"


class TestCableOverATorusKnot:
    """A cable of a torus knot is one double sum; it must give the numerator
    that the term-by-term expansion gives, bound included."""

    def test_iterated_cable_and_its_mirror(self):
        e = parse(ITERATED)
        for knot in (e, mirror_expr(e)):
            for root in (knot, Twist(knot, 1, 3), Twist(knot, 1, -2)):
                batched_agrees(root, (1,), (2,), (5,), (9,))

    def test_outer_block_of_two_colors(self):
        batched_agrees("cable(2,4;1;cable(2,3;1;unknot))", (5, 6), (1, 1), (3, 2))
        batched_agrees("cable(-6,4;1;cable(3,2;1;unknot))", (4, 3), (2, 5))

    def test_child_colors_through_zero(self):
        # p = 1: the child color m + 1 passes 0 and goes negative.
        batched_agrees("cable(1,1;1;cable(2,3;1;unknot))", (1,), (2,), (5,), (8,))
        batched_agrees("cable(-3,1;1;cable(2,5;1;unknot))", (1,), (2,), (5,), (8,))
        batched_agrees("cable(-3,1;1;cable(-2,3;1;unknot))", (2,), (5,), (8,))

    def test_each_m_copies_a_prefix_of_the_knot(self):
        # Before the merge, the 2|j| keys that one m owns carry its index and
        # decode to the knot colored |j|, shifted by rg m (m p + 2) and scaled
        # by sign(j) C[m].
        for text, block in (("cable(-2,5;1;cable(-3,4;1;unknot))", (4,)),
                            ("cable(-3,1;1;cable(-2,3;1;unknot))", (7,)),
                            ("cable(2,4;1;cable(2,3;1;unknot))", (5, 6))):
            e = parse(text)
            g = cable_gcd(e.r, e.s)
            p, rg = e.s // g, e.r // g
            table = trinomial_table(block)
            w = table.width
            packed = jones._torus_knot_keys(e.child, table, p, rg,
                                            abs(rg) * w * (w * p + 2))
            assert packed.bound == sum(c * abs(m * p + 1) for m, c in table.items())
            assert packed.keys.dtype == np.int32 and packed.keys.min() >= 0
            payload = packed.keys & ((1 << packed.bits) - 1)
            exps = (packed.keys >> packed.bits).astype(np.int64) * packed.step + packed.lo
            coeffs = packed.weights[payload]
            end = 0
            for i, (m, c) in enumerate(table.items()):
                j = m * p + 1
                # The knot colored 0 has no terms.
                knot = (list(zip(*colored_numerator(e.child, (abs(j),))[:2])) if j
                        else [])
                size = 2 * abs(j)
                assert len(knot) == size
                assert (payload[end:end + size] >> 1 == i).all(), (text, m)
                shift = rg * m * (m * p + 2)
                got = dict_sums(exps[end:end + size] - shift, coeffs[end:end + size])
                sign = 1 if j > 0 else -1
                assert got == [(int(x), sign * c * int(y)) for x, y in knot if c], (text, m)
                end += size
            assert end == len(packed.keys)

    def test_iterated_cable_past_31_bit_keys(self, monkeypatch):
        # At N = 128 the largest key has 31 bits and at N = 129 it needs 32
        # (c = 9), so the keys go from int32 to int64; the dense referee is
        # too wide here, so the check is against the child-by-child numerator.
        e = parse(ITERATED)
        for n, dtype in ((128, np.int32), (129, np.int64)):
            packed = spied(monkeypatch, "_torus_knot_keys", colored_numerator, e, (n,))
            assert [p.keys.dtype for p in packed] == [dtype]
            identical(colored_numerator(e, (n,)), colored_numerator(unbatched(e), (n,)))

    # (expression, colors, largest key, key dtype or None for the general
    # branch); the knots' windings are solved for keys at the edges.
    KEY_EDGES = (("cable(1,2;1;cable(268435454,1;1;unknot))", (2,), 2 ** 31 - 1, np.int32),
                 ("cable(1,2;1;cable(268435455,1;1;unknot))", (2,), 2 ** 31 + 7, np.int64),
                 ("cable(1,2;1;cable(6862628003612184,5;1;unknot))", (5,), 2 ** 63 - 1,
                  np.int64),
                 ("cable(1,2;1;cable(38430716820228232,3;1;unknot))", (4,), 2 ** 63 + 7,
                  None))

    def test_key_width_at_the_edges(self, monkeypatch):
        tops = []
        key_dtype = jones._key_dtype
        monkeypatch.setattr(jones, "_key_dtype", lambda k: tops.append(k) or key_dtype(k))
        for text, colors, top_key, dtype in self.KEY_EDGES:
            e = parse(text)
            tops.clear()
            packed = spied(monkeypatch, "_torus_knot_keys", colored_numerator, e, colors)
            assert tops == [top_key], text
            assert [None if p is None else p.keys.dtype for p in packed] == [dtype], text
            identical(colored_numerator(e, colors), colored_numerator(unbatched(e), colors))

    def test_benchmark_rows_take_the_packed_path(self, monkeypatch):
        # The benchmark's iterated rows, mirrored or not and under any of its
        # framing twists: no argsort and no child expanded on its own.
        e = parse(ITERATED)
        calls = []
        jones_ = jones._jones
        argsort = np.argsort
        monkeypatch.setattr(jones, "_jones", lambda e, *a: calls.append(e) or jones_(e, *a))
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append("argsort")
                            or argsort(*a, **k))
        for knot in (e, mirror_expr(e)):
            for twist in range(-3, 4):
                root = Twist(knot, 1, twist)
                for n in (16, 32, 48):
                    calls.clear()
                    colored_numerator(root, (n,))
                    assert calls == [root, knot], (twist, n)

    def test_inner_windings(self):
        batched_agrees("cable(2,3;1;cable(-2,3;1;unknot))", (2,), (5,))
        batched_agrees("cable(2,3;1;cable(0,1;1;unknot))", (2,), (5,))
        batched_agrees("cable(-2,5;1;cable(-3,4;1;unknot))", (3,), (4,))

    def test_three_level_chain(self):
        batched_agrees("cable(2,3;1;cable(2,5;1;cable(3,2;1;unknot)))", (2,), (3,), (4,))
        batched_agrees("cable(3,2;1;cable(-2,3;1;cable(2,5;1;unknot)))", (2,), (3,))

    def test_connected_sums(self):
        batched_agrees("cable(2,3;1;connsum(cable(2,3;1;unknot),1;"
                       "cable(-2,5;1;unknot),1))", (2,), (4,))
        batched_agrees(f"connsum({ITERATED},1;cable(3,2;1;cable(2,5;1;unknot)),1)",
                       (2,), (3,), (5,))


def dict_sums(exps, coeffs) -> list[tuple[int, int]]:
    """The nonzero sums of coeffs at equal exps, ascending: _merge's referee."""
    sums: dict[int, int] = {}
    for e, c in zip(exps.tolist(), coeffs.tolist()):
        sums[e] = sums.get(e, 0) + c
    return sorted((e, c) for e, c in sums.items() if c)


class TestMerge:
    """_merge against a dict of sums.  Both sorts must give the same terms;
    the packed int64 keys are taken exactly when they fit."""

    @staticmethod
    def merges(monkeypatch, exps, coeffs, packs: bool):
        exps, coeffs = np.asarray(exps), np.asarray(coeffs)
        expected = dict_sums(exps, coeffs)
        argsort = np.argsort
        for few_runs in (False, True):
            calls = []
            with monkeypatch.context() as mp:
                mp.setattr(np, "argsort",
                           lambda *a, **k: calls.append(1) or argsort(*a, **k))
                got = jones._merge(exps, coeffs, 7, few_runs)
            assert bool(calls) == (few_runs or not packs)
            assert list(zip(got.exps.tolist(), got.coeffs.tolist())) == expected
            assert got.coeffs.dtype == coeffs.dtype and got.bound == 7

    def test_many_runs_and_few(self, monkeypatch):
        gen = np.random.default_rng(14)
        for runs in (1, 3, 48):
            parts = [np.sort(gen.integers(-300, 300, gen.integers(1, 60)))
                     for _ in range(runs)]
            exps = np.concatenate(parts)
            self.merges(monkeypatch, exps, gen.integers(-5, 6, len(exps)), True)
        table = trinomial_table((9,))
        m = np.arange(-table.width, table.width + 1, 2)
        self.merges(monkeypatch, *jones._unknot_cable(m, 3, -2, table.array), True)

    def test_duplicates_cancellation_and_one_term(self, monkeypatch):
        self.merges(monkeypatch, [-3, -3, 1, 1, 1, 5], [2, -2, 1, 1, -1, 7], True)
        self.merges(monkeypatch, [-8, 4, 4, -8], [1, 3, -3, -1], True)  # all cancel
        self.merges(monkeypatch, [-11], [4], True)

    def test_key_at_the_edge_of_int64(self, monkeypatch):
        # 4 terms, b = 2: a span of 2^61 - 1 gives the key 2^63 - 1, and one
        # more overflows, so the stable argsort takes over.
        lo = -(2 ** 60)
        for hi, packs in ((2 ** 60 - 1, True), (2 ** 60, False)):
            self.merges(monkeypatch, [hi, lo, hi, 0], [1, 2, 3, 4], packs)
            self.merges(monkeypatch, [hi, lo, lo, hi], [1, 2, 3, 4], packs)

    def test_object_exponents_and_coefficients(self, monkeypatch):
        big = 2 ** 70
        exps = np.array([big, -big, big, 3], dtype=object)
        self.merges(monkeypatch, exps, np.array([1, 2, -1, 5]), False)
        coeffs = np.array([big, 5, -big, 2 ** 65], dtype=object)
        self.merges(monkeypatch, np.array([9, -2, 9, 0]), coeffs, True)

    def test_more_than_two_to_the_sixteen_terms(self, monkeypatch):
        gen = np.random.default_rng(16)
        n = (1 << 16) + 5  # b = 17
        exps = gen.integers(-10 ** 6, 10 ** 6, n)
        self.merges(monkeypatch, exps, gen.integers(-3, 4, n), True)


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

    def test_cable_of_a_torus_knot_past_int64(self):
        # The table total 3^48 is past 2^62 already; for 61 colors 2 it is
        # 2^61, and only the bound sum C[m] |m + 1| passes 2^62.
        e = parse("cable(0,48;1;cable(1,2;1;unknot))")
        batched_agrees(e, (3,) * 48)
        e = parse("cable(0,61;1;cable(1,2;1;unknot))")
        assert trinomial_table((2,) * 61).total() < 2 ** 62
        assert colored_numerator(e, (2,) * 61).bound >= 2 ** 62
        batched_agrees(e, (2,) * 61)

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

    def test_cable_of_a_torus_knot(self):
        # The knot is the R-framed unknot, so its (1,1)-cable is R + 1 twists.
        e = Cable(Cable(Unknot(), 1, self.R, 1), 1, 1, 1)
        for n in (2, 3, 5):
            got = colored_numerator(e, (n,))
            assert got.exps.dtype == object
            identical(got, colored_numerator(unbatched(e), (n,)))
            same(_materialize(got), self.twisted(n, self.R + 1))
        # Colored 1, only m = m' = 0 is left, but r' still exceeds int64.
        e = Cable(Cable(Unknot(), 1, 2 ** 70 + 1, 3), 1, 1, 1)
        assert colored_jones(e, (1,)) == LaurentPoly.one()

    def test_connected_sum_inside_a_cable(self):
        e = Cable(ConnSum(Twist(Unknot(), 1, self.R), 1, Unknot(), 1), 1, 1, 1)
        same(colored_jones(e, (3,)), self.twisted(3, self.R + 1))

    def test_lattice_past_int64(self):
        # The knot colored 2 and 4 takes twists of 3 and 15 times 2^70, so the
        # cable's numerator spans about 3 * 2^70 steps of A^4: J is refused as
        # too large, while its statistics need no lattice indices.
        e = Cable(Twist(Cable(Unknot(), 1, 2, 5), 1, 2 ** 70), 1, 2, 3)
        num = colored_numerator(e, (2,))
        span = int(num.exps[-1]) - int(num.exps[0])
        assert span // 4 > 3 * 2 ** 70
        with pytest.raises(MemoryError, match=f"spanning {span} exponents"):
            colored_jones(e, (2,))
        assert jones._statistics(num)[2] == 1
        # Up to 2^63 - 1 steps the indices are int64.
        for steps, fits in ((2 ** 63 - 1, True), (2 ** 63, False)):
            num = _Numerator(np.array([-2, 4 * steps - 2], dtype=object),
                             np.array([-1, 1]), 1)
            if fits:
                assert _lattice_indices(num).tolist() == [0, steps]
            else:
                with pytest.raises(MemoryError):
                    _lattice_indices(num)

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


# -- the connected-sum kernel ---------------------------------------------------

def referee_connsum(e, colors, memo):
    """The connected-sum numerator as the engine first computed it: one
    side's N spread to step 4, times the dense J of the other side, divided
    by [n] with divide_by_quantum_integer."""
    cl = component_count(e.left)
    n = colors[e.i - 1]
    tail = colors[cl:]
    left = jones._jones(e.left, colors[:cl], memo)
    right = jones._jones(e.right, tail[:e.j - 1] + (n,) + tail[e.j - 1:], memo)
    k = _lattice_indices(left)
    arr = np.zeros(int(k[-1]) + 1, dtype=left.coeffs.dtype)
    arr[k] = left.coeffs
    product = _make(int(left.exps[0]), arr, left.bound, 4) * _materialize(right)
    return _sparse(divide_by_quantum_integer(product, n))


def identical(got: _Numerator, expected: _Numerator):
    assert got.exps.dtype == expected.exps.dtype
    assert got.coeffs.dtype == expected.coeffs.dtype
    assert got.exps.tolist() == expected.exps.tolist()
    assert got.coeffs.tolist() == expected.coeffs.tolist()
    assert got.bound == expected.bound


def referee_numerator(monkeypatch, e, colors, memo=None):
    """colored_numerator with every connected sum in the tree taken by the
    referee kernel."""
    with monkeypatch.context() as m:
        m.setattr(jones, "_connsum", referee_connsum)
        return colored_numerator(e, colors, memo)


SCATTER, SHIFTED = 0, 10 ** 18  # _SCATTER_COST values that force one regime
T23, T25, T27 = "cable(2,3;1;unknot)", "cable(2,5;1;unknot)", "cable(2,7;1;unknot)"
ITERATED_A = "cable(2,5;1;cable(2,3;1;unknot))"
ITERATED_B = "cable(3,2;1;cable(2,3;1;unknot))"


@pytest.fixture(params=[None, SCATTER, SHIFTED], ids=["rule", "scatter", "shifted"])
def regime(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(laurent, "_SCATTER_COST", request.param)
    return request.param


def kernel_agrees(monkeypatch, text, color_vectors):
    e = parse(text)
    for colors in color_vectors:
        identical(colored_numerator(e, colors), referee_numerator(monkeypatch, e, colors))


class TestConnectedSumKernel:
    """The sparse product N_l N_r divided by A^(2n) - A^(-2n) against the
    referee kernel, entry for entry, in each regime of the product."""

    def test_torus_knots_in_both_orders(self, monkeypatch, regime):
        for left, right in ((T23, T25), (T25, T23)):
            kernel_agrees(monkeypatch, f"connsum({left},1;{right},1)",
                          [(n,) for n in range(2, 65)])

    def test_connected_sum_of_a_connected_sum(self, monkeypatch, regime):
        kernel_agrees(monkeypatch, f"connsum(connsum({T23},1;{T25},1),1;{T27},1)",
                      [(2,), (5,), (16,), (33,)])
        kernel_agrees(monkeypatch, f"connsum({T27},1;connsum({T23},1;{T25},1),1)",
                      [(3,), (12,)])

    def test_iterated_cables(self, monkeypatch, regime):
        kernel_agrees(monkeypatch, f"connsum({ITERATED_A},1;{ITERATED_B},1)",
                      [(n,) for n in range(1, 9)])

    def test_with_the_unknot(self, monkeypatch, regime):
        kernel_agrees(monkeypatch, f"connsum({T23},1;unknot,1)", [(1,), (2,), (7,)])
        kernel_agrees(monkeypatch, f"connsum(unknot,1;{ITERATED_A},1)", [(1,), (4,)])

    def test_joined_on_the_second_component(self, monkeypatch, regime):
        kernel_agrees(monkeypatch, f"connsum(cable(0,2;1;unknot),2;{T23},1)",
                      [(2, 3), (3, 5), (1, 4)])
        kernel_agrees(monkeypatch, f"connsum({T25},1;cable(0,2;1;unknot),2)",
                      [(3, 2), (6, 4)])

    def test_negative_windings(self, monkeypatch, regime):
        kernel_agrees(monkeypatch, f"connsum(cable(-2,3;1;unknot),1;{T25},1)",
                      [(2,), (9,), (20,)])
        kernel_agrees(monkeypatch, "connsum(cable(-2,5;1;cable(3,2;1;unknot)),1;"
                                   "cable(-3,2;1;unknot),1)", [(3,), (6,)])

    @pytest.mark.parametrize("chunk", [1, 3, 150])  # 150: several rows a chunk
    def test_scatter_in_small_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(laurent, "_SCATTER_COST", SCATTER)
        monkeypatch.setattr(laurent, "_SCATTER_CHUNK", chunk)
        kernel_agrees(monkeypatch, f"connsum({T23},1;{T25},1)", [(2,), (3,), (10,)])
        kernel_agrees(monkeypatch, f"connsum(connsum({T23},1;{T25},1),1;unknot,1)",
                      [(4,)])


def numerator_of(J: LaurentPoly) -> _Numerator:
    """The engine numerator J (A^2 - A^-2), with its exact bound."""
    return _sparse(J * LaurentPoly.from_terms([(2, 1), (-2, -1)]))


def ones_on_step_4(k: int) -> LaurentPoly:
    """1 + A^4 + ... + A^(4(k - 1))."""
    return quantum_integer(k).scale_shift(1, 2 * (k - 1))


class TestConnectedSumGuards:
    """Hand-made numerators fed to the kernel through the memo."""

    E = ConnSum(Unknot(), 1, Twist(Unknot(), 1, 1), 1)

    def kernel(self, left, right, n, monkeypatch=None):
        """(kernel result, referee result) for the two numerators joined at n."""
        def memo():
            return {(self.E.left, (n,)): left, (self.E.right, (n,)): right}
        got = colored_numerator(self.E, (n,), memo())
        if monkeypatch is None:
            return got, None
        return got, referee_numerator(monkeypatch, self.E, (n,), memo())

    @pytest.mark.parametrize("force", [SCATTER, SHIFTED])
    def test_sums_straddle_int64(self, monkeypatch, force):
        # N_l = c [n] (1 + x + ... + x^7) (A^2 - A^-2) and likewise N_r with
        # d and [m]: 16 terms each, so sum |N_l| sum |N_r| = 256 c d, while a
        # product coefficient reaches 16 c d (8 c d once divided).
        monkeypatch.setattr(laurent, "_SCATTER_COST", force)
        dtypes = []
        divide = jones._divide_binomial

        def spy(buf, span, width):
            dtypes.append(buf.dtype)
            return divide(buf, span, width)

        monkeypatch.setattr(jones, "_divide_binomial", spy)
        n, m, k = 9, 11, 8
        for c, d, buf_dtype, result_dtype in (
                (2 ** 27, 2 ** 27 - 1, np.int64, np.int64),   # 256 c d < 2^62
                (2 ** 27, 2 ** 27, object, np.int64),         # 256 c d = 2^62
                (2 ** 30, 2 ** 30, object, object),           # 8 c d = 2^63
                (2 ** 61, 1, object, object)):                # sum |N_l| = 2^65
            left = numerator_of(quantum_integer(n) * ones_on_step_4(k) * c)
            right = numerator_of(quantum_integer(m) * ones_on_step_4(k) * d)
            dtypes.clear()
            got, expected = self.kernel(left, right, n, monkeypatch)
            assert dtypes[0] == buf_dtype
            identical(got, expected)
            assert got.coeffs.dtype == result_dtype
            J = quantum_integer(m) * ones_on_step_4(k) ** 2 * (c * d)
            assert _materialize(got) == J

    def test_product_that_the_binomial_does_not_divide(self, monkeypatch):
        three = numerator_of(quantum_integer(3))
        two = numerator_of(quantum_integer(2))
        for force in (SCATTER, SHIFTED):
            monkeypatch.setattr(laurent, "_SCATTER_COST", force)
            with pytest.raises(NotDivisible, match="remainder"):
                self.kernel(three, two, 4)
            # Shorter than the divisor: (A^2 - A^-2)^2 over A^10 - A^-10.
            one = numerator_of(LaurentPoly.one())
            with pytest.raises(NotDivisible, match="span"):
                self.kernel(one, one, 5)

    def test_exponents_in_two_classes_mod_4(self):
        mixed = _Numerator(np.array([-2, -1, 2, 3]), np.array([-1, -1, 1, 1]), 1)
        with pytest.raises(NotDivisible, match="mod 4"):
            self.kernel(mixed, numerator_of(quantum_integer(2)), 2)
