"""Referees from theorems that do not use the cabling formula.

Kontsevich-Zagier: for q = A0^4 = exp(2 pi i / N), the zero-framed trefoil
has J'_N(A0) = q sum_{n<N} (q;q)_n (Zagier, "Vassiliev invariants and a
strange identity related to the Dedekind eta-function", Topology 40, 2001).
The sum is taken exactly, as integer columns modulo q^N - 1, so the check
runs at any N, far past where the cabling sum's own oracles stop.
"""

import cmath

import numpy as np
import pytest

from cablejones import parse
from cablejones.asympt import eval_normalized_at_root
from cablejones.linkexpr import mirror_expr

TREFOIL = parse("twist(-6;1;cable(2,3;1;unknot))")


def kontsevich_zagier(n: int) -> complex:
    """q sum_{k<n} (q;q)_k at q = exp(2 pi i / n).

    (q;q)_(k+1) = (q;q)_k - q^(k+1) (q;q)_k, a roll of its columns modulo
    q^n - 1.  The columns are Python ints: they reach 116 bits at n = 512,
    while their sum stays within 12 bits up to n = 2048, so the one float
    dot at the end rounds only the powers of q.
    """
    poch = np.zeros(n, dtype=object)
    poch[0] = 1
    total = poch.copy()
    for k in range(1, n):
        poch = poch - np.roll(poch, k)
        total += poch
    q = np.exp(2j * np.pi * np.arange(n) / n)
    return complex(total.astype(float) @ q) * q[1 % n]


class TestKontsevichZagier:
    @pytest.mark.parametrize("n", [1, 5, 16, 64, 512, 2048])
    def test_trefoil_and_its_mirror(self, n):
        expected = kontsevich_zagier(n)
        value = eval_normalized_at_root(TREFOIL, n)
        assert abs(value / expected - 1) < 1e-14
        mirrored = eval_normalized_at_root(mirror_expr(TREFOIL), n)
        assert abs(mirrored - expected.conjugate()) < 1e-14 * abs(expected)

    def test_small_sums_by_hand(self):
        # N = 1: q = 1 and the sum is (q;q)_0 = 1.  N = 2: q = -1, and
        # q ((q;q)_0 + (q;q)_1) = -(1 + 2) = -3.
        assert kontsevich_zagier(1) == 1
        assert abs(kontsevich_zagier(2) + 3) < 1e-15
        q = cmath.exp(2j * cmath.pi / 3)
        assert abs(kontsevich_zagier(3) - q * (1 + (1 - q) + (1 - q) * (1 - q * q))) < 1e-14
