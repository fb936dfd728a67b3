from itertools import product
from math import comb

import pytest

from cablejones import symfun
from cablejones.symfun import (
    NotContained,
    TwoRowPartition,
    chain_trace,
    expected_character_coefficients,
    h_product_character_expansion,
    skew_schur_at_roots,
    strip_sign,
    two_row_partitions,
    verify_coefficients,
)

P = TwoRowPartition
EMPTY = P(0, 0)


class TestTwoRowPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            P(1, 2)
        with pytest.raises(ValueError):
            P(2, -1)

    def test_character_index(self):
        assert P(4, 0).character_index == 5
        assert P(3, 3).character_index == 1


class TestSkewSchurAtRoots:
    def test_frozen_examples_length_four(self):
        assert skew_schur_at_roots(P(4, 0), EMPTY, 4) == 1
        assert skew_schur_at_roots(P(3, 1), EMPTY, 4) == -1
        # A 2x2 block is not a border strip.
        assert skew_schur_at_roots(P(2, 2), EMPTY, 4) == 0

    def test_not_contained(self):
        with pytest.raises(NotContained):
            skew_schur_at_roots(P(1, 0), P(2, 0), 3)

    def test_values_in_range(self):
        for p in (1, 2, 3, 4):
            for outer in two_row_partitions(8):
                for size in range(9):
                    for inner in two_row_partitions(size, within=outer):
                        assert skew_schur_at_roots(outer, inner, p) in (-1, 0, 1)


def enumerate_chains(colors, p, mu):
    """Independent chain enumeration (explicit recursion, no DP)."""
    sizes = [p * (n - 1) for n in colors]

    def walk(level, nu):
        if level == len(sizes):
            return [[]] if nu == mu else []
        target = nu.size + sizes[level]
        out = []
        for nxt in two_row_partitions(target, within=mu):
            if not nxt.contains(nu):
                continue
            w = skew_schur_at_roots(nxt, nu, p)
            if w == 0:
                continue
            for rest in walk(level + 1, nxt):
                out.append([(nxt, w)] + rest)
        return out

    return walk(0, EMPTY)


class TestChainTrace:
    def test_frozen_examples(self):
        assert chain_trace((2, 2), 4, P(4, 4)) == 2
        assert chain_trace((2, 2), 4, P(7, 1)) == -1
        assert chain_trace((2,), 3, P(3, 0)) == 1

    def test_wrong_size_is_zero(self):
        assert chain_trace((2, 2), 4, P(3, 0)) == 0

    def test_agrees_with_explicit_enumeration(self):
        for colors in [(2, 2), (3,), (2, 3), (2, 2, 2)]:
            for p in (1, 2, 3):
                total = p * (sum(colors) - len(colors))
                for mu in two_row_partitions(total):
                    chains = enumerate_chains(colors, p, mu)
                    total_weight = sum(
                        __import__("math").prod(w for _, w in ch) for ch in chains)
                    assert chain_trace(colors, p, mu) == total_weight

    def test_sign_coherence(self):
        # Every surviving chain at a fixed mu carries the same sign,
        # determined by mu2 mod p.
        for colors in [(2, 2), (2, 3), (3, 2), (2, 2, 2)]:
            for p in (1, 2, 3, 4):
                total = p * (sum(colors) - len(colors))
                for mu in two_row_partitions(total):
                    chains = enumerate_chains(colors, p, mu)
                    for ch in chains:
                        product_sign = 1
                        for _, w in ch:
                            product_sign *= w
                        assert product_sign == strip_sign(mu, p), (colors, p, mu)


class TestCharacterExpansion:
    def test_frozen_examples(self):
        assert h_product_character_expansion((2, 2), 1) == {3: 1, 1: 1}
        assert h_product_character_expansion((2,), 2) == {3: 1, 1: -1}
        for n in (1, 3, 6):
            assert h_product_character_expansion((n,), 1) == {n: 1}

    def test_pairwise_difference_pattern_at_p_one(self):
        # At p = 1 the collapsed coefficients are C[m] - C[m+2].
        from cablejones.trinomial import trinomial_table
        for colors in [(2, 3), (3, 3), (2, 2, 2), (4, 2)]:
            table = trinomial_table(colors)
            expansion = h_product_character_expansion(colors, 1)
            for j, c in expansion.items():
                assert c == table[j - 1] - table[j + 1]


class TestPascalTriangle:
    def test_all_twos_gives_binomials(self):
        # g colors equal to 2: |K_mu| at half-integer index w is C(g, g/2+w).
        for g in (1, 2, 3, 4, 5):
            colors = (2,) * g
            for p in (1, 2, 3):
                total = p * g
                for mu in two_row_partitions(total):
                    k = chain_trace(colors, p, mu)
                    j = mu.character_index
                    # j = |2wp+1| determines |w| up to the sign branches.
                    matches = [m for m in range(-g, g + 1)
                               if abs(m * p + 1) == j and (m - g) % 2 == 0]
                    expected = sum(
                        (1 if m * p + 1 > 0 else -1) * comb(g, (g + m) // 2)
                        for m in matches)
                    assert k == expected, (g, p, mu)


class TestVerifyCoefficients:
    def test_frozen_examples(self):
        for colors, p in [((2, 2), 4), ((3,), 2), ((2, 3), 1)]:
            assert verify_coefficients(colors, p).passed

    def test_sweep(self):
        for g in (1, 2, 3):
            for colors in product(range(1, 5), repeat=g):
                for p in (1, 2, 3):
                    report = verify_coefficients(colors, p)
                    assert report.passed, str(report)

    def test_p_below_one(self):
        mu = TwoRowPartition(2, 0)
        for call in (lambda: skew_schur_at_roots(mu, TwoRowPartition(0, 0), 0),
                     lambda: chain_trace((2,), 0, mu),
                     lambda: h_product_character_expansion((2,), -1)):
            with pytest.raises(ValueError, match="p must be >= 1"):
                call()

    def test_both_mismatches_are_reported(self, monkeypatch):
        # A wrong target at j = 3 fails the character expansion and the
        # chain count at mu = (2,0), whose character index is 3.
        assert str(verify_coefficients((2, 2), 1)) == "colors=(2, 2) p=1: pass"
        true = symfun.expected_character_coefficients
        monkeypatch.setattr(symfun, "expected_character_coefficients",
                            lambda colors, p: {**true(colors, p), 3: 7})
        report = verify_coefficients((2, 2), 1)
        assert not report.passed
        assert report.failures == ("character expansion at j=3: got 1, want 7",
                                   "chain count at mu=(2,0): got 1, want 7")
        assert str(report) == ("colors=(2, 2) p=1: FAIL (character expansion at j=3: "
                               "got 1, want 7; chain count at mu=(2,0): got 1, want 7)")

    def test_expected_collapse_matches_direct_sum(self):
        exp = expected_character_coefficients((2, 2), 1)
        assert exp == {3: 1, 1: 1}
        exp = expected_character_coefficients((2,), 2)
        assert exp == {3: 1, 1: -1}
