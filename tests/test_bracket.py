import math
import random
from collections import defaultdict

import pytest

from cablejones.bracket import (
    MAX_STRANDS,
    MonomialMatch,
    TooManyStrands,
    cable_word,
    equal_up_to_monomial,
    jones_from_bracket,
    kauffman_bracket,
    parallel_word,
)
from cablejones.jones import colored_jones, normalized_jones
from cablejones.laurent import LaurentPoly, quantum_integer
from cablejones.linkexpr import component_count, parse


def lp(*terms):
    return LaurentPoly.from_terms(terms)


def torus(r, s):
    """(word, strands) of the (r, s)-torus braid."""
    word, strands, _ = cable_word(parse(f"cable({r},{s};1;unknot)"))
    return word, strands


def writhe(word):
    return sum(sign for _, sign in word)


def at_one(p):
    """p(1); for a writhe-corrected bracket this is V(1) = (-2)^(components - 1)."""
    return sum(c for _, c in p.support())


DELTA = lp((2, -1), (-2, -1))
TREFOIL = "cable(3,2;1;unknot)"


def reference_bracket(word, strands):
    """The transfer on dicts of Python ints, one state and one term at a time.

    A state maps each boundary point to its partner: top points 0..n-1,
    bottom points n..2n-1.
    """
    n = strands
    states = {tuple(range(n, 2 * n)) + tuple(range(n)): {0: 1}}
    for k, sign in word:
        out = defaultdict(lambda: defaultdict(int))
        a, b = n + k - 1, n + k
        for m, poly in states.items():
            capped = list(m)
            capped[m[a]], capped[m[b]], capped[a], capped[b] = m[b], m[a], b, a
            for x, c in poly.items():
                out[m][x + sign] += c
                if m[a] == b:  # the cap closes a loop: A^-sign * delta
                    out[m][x - sign + 2] -= c
                    out[m][x - sign - 2] -= c
                else:
                    out[tuple(capped)][x - sign] += c
        states = out
    total = LaurentPoly.zero()
    for m, poly in states.items():
        parent = list(range(2 * n))

        def find(p):
            while parent[p] != p:
                p = parent[p]
            return p
        for p, q in [(p, m[p]) for p in range(2 * n)] + [(i, n + i) for i in range(n)]:
            parent[find(p)] = find(q)
        loops = sum(find(p) == p for p in range(2 * n))
        total = total + LaurentPoly.from_terms(poly.items()) * DELTA ** (loops - 1)
    return total


class TestDiagramGeneration:
    def test_trefoil_closure(self):
        word, strands = torus(3, 2)
        assert (word, strands) == ([(1, 1)] * 3, 2)
        assert writhe(word) == 3
        assert at_one(jones_from_bracket(word, strands)) == 1

    def test_four_three(self):
        word, strands = torus(4, 3)
        assert len(word) == 8 and strands == 3
        assert at_one(jones_from_bracket(word, strands)) == 1

    def test_hopf(self):
        word, strands = torus(2, 2)
        assert len(word) == 2
        assert at_one(jones_from_bracket(word, strands)) == -2

    def test_negative_r(self):
        word, strands = torus(-2, 3)
        assert word == [(2, -1), (1, -1)] * 2
        assert writhe(word) == -4
        assert at_one(jones_from_bracket(word, strands)) == 1

    def test_component_count_is_gcd(self):
        # Torus links past the 16 crossings the old state sum allowed.
        for r in (1, 2, 3, 4, -3, 9):
            for s in (2, 3, 4, 6):
                got = at_one(jones_from_bracket(*torus(r, s)))
                assert got == (-2) ** (math.gcd(abs(r), s) - 1), (r, s)

    def test_strand_bound(self):
        with pytest.raises(TooManyStrands):
            kauffman_bracket([], MAX_STRANDS + 1)
        with pytest.raises(ValueError) as no_strands:
            kauffman_bracket([], 0)
        assert not isinstance(no_strands.value, TooManyStrands)
        assert kauffman_bracket([], MAX_STRANDS) == DELTA ** (MAX_STRANDS - 1)

    def test_bad_letters(self):
        for word, strands in (([(2, 1)], 2), ([(0, 1)], 2), ([(1, 2)], 2)):
            with pytest.raises(ValueError):
                kauffman_bracket(word, strands)


class TestKauffmanBracket:
    def test_zero_crossing_circle(self):
        assert kauffman_bracket([], 1) == LaurentPoly.one()

    def test_single_positive_curl(self):
        assert kauffman_bracket([(1, 1)], 2) == LaurentPoly.monomial(-1, 3)

    def test_single_negative_curl(self):
        assert kauffman_bracket([(1, -1)], 2) == LaurentPoly.monomial(-1, -3)

    def test_hopf_four_states(self):
        assert kauffman_bracket(*torus(2, 2)) == lp((4, -1), (-4, -1))

    def test_reidemeister_one_stabilization(self):
        # Adding a kink multiplies the bracket by -A^(+-3).
        for r, s in [(3, 2), (2, 3), (-2, 3)]:
            word, _ = torus(r, s)
            base = kauffman_bracket(word, s)
            for sign in (1, -1):
                stab = kauffman_bracket(word + [(s, sign)], s + 1)
                assert stab == base.scale_shift(-1, 3 * sign)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_a_dict_transfer(self, seed):
        rng = random.Random(seed)
        strands = rng.randint(1, 5)
        word = random_word(rng, strands, rng.randint(0, 16)) if strands > 1 else []
        assert kauffman_bracket(word, strands) == reference_bracket(word, strands)

    def test_python_ints_past_int64(self):
        # An alternating 3-braid whose bracket has coefficients past 2^63.
        word = [(1, 1), (2, -1)] * 50
        got = kauffman_bracket(word, 3)
        assert got.max_abs_coeff() > 2 ** 63
        assert got == reference_bracket(word, 3)


class TestJonesFromBracket:
    def test_trefoil_eight_states(self):
        got = jones_from_bracket(*torus(3, 2))
        assert got == lp((-16, -1), (-12, 1), (-4, 1))

    def test_curl_writhe_correction_cancels(self):
        assert jones_from_bracket([(1, 1)], 2) == LaurentPoly.one()

    def test_hopf_writhe_corrected(self):
        got = jones_from_bracket(*torus(2, 2))
        match = equal_up_to_monomial(got, lp((-10, -1), (-2, -1)))
        assert match is not None


def random_word(rng, strands, length):
    return [(rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)]


class TestBraidRelations:
    """The transfer against the braid group's relations and Markov moves,
    on seeded random words of 2 to 5 strands."""

    SEEDS = range(12)

    def words(self, seed, min_strands=2):
        rng = random.Random(seed)
        strands = rng.randint(min_strands, 5)
        return rng, strands, random_word(rng, strands, rng.randint(0, 14))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_inverse_pair_cancels(self, seed):
        rng, strands, word = self.words(seed)
        k, sign, at = rng.randint(1, strands - 1), rng.choice((1, -1)), rng.randint(0, len(word))
        longer = word[:at] + [(k, sign), (k, -sign)] + word[at:]
        assert kauffman_bracket(longer, strands) == kauffman_bracket(word, strands)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_far_letters_commute(self, seed):
        rng, strands, word = self.words(seed, min_strands=3)
        k = rng.randint(1, strands - 1)
        far = [j for j in range(1, strands) if abs(j - k) >= 2] or [k]
        pair = [(k, rng.choice((1, -1))), (rng.choice(far), rng.choice((1, -1)))]
        at = rng.randint(0, len(word))
        one = word[:at] + pair + word[at:]
        other = word[:at] + pair[::-1] + word[at:]
        assert kauffman_bracket(one, strands) == kauffman_bracket(other, strands)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_braid_relation(self, seed):
        rng, strands, word = self.words(seed, min_strands=3)
        k, sign, at = rng.randint(1, strands - 2), rng.choice((1, -1)), rng.randint(0, len(word))
        a, b = (k, sign), (k + 1, sign)
        one = word[:at] + [a, b, a] + word[at:]
        other = word[:at] + [b, a, b] + word[at:]
        assert kauffman_bracket(one, strands) == kauffman_bracket(other, strands)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_markov_stabilisation(self, seed):
        rng, strands, word = self.words(seed)
        base = kauffman_bracket(word, strands)
        for sign in (1, -1):
            stab = kauffman_bracket(word + [(strands, sign)], strands + 1)
            assert stab == base.scale_shift(-1, 3 * sign)


class TestEqualUpToMonomial:
    def test_trefoil_engine_versus_bracket(self):
        engine = lp((14, 1), (6, 1), (2, -1))
        oracle = lp((-16, -1), (-12, 1), (-4, 1))
        match = equal_up_to_monomial(engine, oracle)
        assert match == MonomialMatch(1, 18, False)

    def test_identity(self):
        p = lp((3, 2), (0, -1))
        assert equal_up_to_monomial(p, p) == MonomialMatch(1, 0, False)

    def test_mirrored_match(self):
        p = lp((5, 1), (1, 2))
        assert equal_up_to_monomial(p.mirror().scale_shift(-1, 7), p) == \
            MonomialMatch(-1, 7, True)

    def test_no_match(self):
        assert equal_up_to_monomial(quantum_integer(2), quantum_integer(3)) is None
        assert equal_up_to_monomial(lp((0, 2)), lp((0, 3))) is None

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            equal_up_to_monomial(LaurentPoly.zero(), LaurentPoly.one())


class TestOracleAgreement:
    CASES = ((2, 3), (-2, 3), (2, 5), (3, 4), (2, 2), (2, 4))

    @pytest.mark.parametrize("r,s", CASES)
    def test_engine_matches_diagram_oracle_at_color_two(self, r, s):
        e = parse(f"cable({r},{s};1;unknot)")
        colors = (2,) * component_count(e)
        engine = normalized_jones(e, colors, 1)
        oracle = jones_from_bracket(*torus(r, s))
        match = equal_up_to_monomial(engine, oracle)
        assert match is not None, (r, s)


class TestCableWords:
    def test_parallel_replaces_each_letter_by_s_squared(self):
        assert parallel_word([(1, 1)], 2) == [(2, 1), (3, 1), (1, 1), (2, 1)]
        assert parallel_word([(2, -1), (1, 1)], 3)[:9] == \
            [(k, -1) for k in (6, 7, 8, 5, 6, 7, 4, 5, 6)]
        assert len(parallel_word(torus(3, 2)[0], 3)) == 27

    def test_parallel_of_a_kink_is_the_hopf_link(self):
        # The 2-parallel of a 1-framed unknot is a 2-component link with
        # linking number 1: the Hopf link.
        word = parallel_word([(1, 1)], 2)
        assert equal_up_to_monomial(jones_from_bracket(word, 4),
                                    jones_from_bracket(*torus(2, 2))) is not None

    def test_torus_knot_framing(self):
        word, strands, framing = cable_word(parse("cable(-2,3;1;unknot)"))
        assert (word, strands, framing) == ([(2, -1), (1, -1)] * 2, 3, -6)

    def test_cable_of_a_cable(self):
        # t = r + s(f_K - w) = 1 + 2(6 - 3) = 7 pattern letters.
        word, strands, framing = cable_word(parse(f"cable(1,2;1;{TREFOIL})"))
        assert strands == 4 and framing == 2 + 4 * 6
        assert word == parallel_word([(1, 1)] * 3, 2) + [(1, 1)] * 7

    @pytest.mark.parametrize("text", [
        "twist(1;1;unknot)",
        "connsum(unknot,1;unknot,1)",
        "cable(1,2;1;cable(2,2;1;unknot))",
        "cable(1,2;2;cable(2,2;1;unknot))",
    ])
    def test_rejects_what_is_not_a_cable_chain(self, text):
        with pytest.raises(ValueError):
            cable_word(parse(text))


def engine_match(engine, oracle):
    match = equal_up_to_monomial(engine, oracle)
    assert match is not None and not match.mirrored
    return match


class TestCablesOfTheTrefoil:
    """cable(r,s;1;K) is the (r, s) cable relative to K's engine framing."""

    COLOR_TWO = (
        *(f"cable({r},2;1;{TREFOIL})" for r in (1, 3, 5, 7, 13, -1)),
        *(f"cable({r},3;1;{TREFOIL})" for r in (2, -2, 1)),
        *(f"cable({r},2;1;cable(5,2;1;{TREFOIL}))" for r in (1, -3)),
    )

    @pytest.mark.parametrize("text", COLOR_TWO)
    def test_color_two(self, text):
        # The writhe-corrected bracket is 0-framed; the engine's value
        # carries the framing f, a factor A^(3f) at color 2.
        e = parse(text)
        word, strands, framing = cable_word(e)
        match = engine_match(normalized_jones(e, (2,), 1), jones_from_bracket(word, strands))
        assert match.shift == 3 * framing

    @pytest.mark.parametrize("text", [
        TREFOIL, "cable(5,2;1;unknot)", f"cable(-1,2;1;{TREFOIL})"])
    def test_color_three_by_kirby_melvin(self, text):
        # S_2(z) = z^2 - 1: the 2-parallel with unknot delta, minus the
        # empty diagram.
        e = parse(text)
        word, strands, _ = cable_word(e)
        oracle = DELTA * kauffman_bracket(parallel_word(word, 2), 2 * strands) \
            - LaurentPoly.one()
        engine_match(colored_jones(e, (3,)), oracle)

    def test_zero_framing_reading_does_not_match(self):
        # The Seifert-framed (1, 2) cable, pattern twist r - s*w, is a
        # different knot from the engine's cable(1,2;1;trefoil).
        e = parse(f"cable(1,2;1;{TREFOIL})")
        trefoil = [(1, 1)] * 3
        assert 1 - 2 * writhe(trefoil) == -5
        word = parallel_word(trefoil, 2) + [(1, -1)] * 5
        assert equal_up_to_monomial(normalized_jones(e, (2,), 1),
                                    jones_from_bracket(word, 4)) is None
