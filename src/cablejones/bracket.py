"""Kauffman bracket of braid closures by a Temperley-Lieb transfer.

This is a first-principles oracle, independent of the cabling engine: it
knows nothing about quantum integers or trinomial tables, only about
smoothing crossings and counting loops.

A braid word is a list of letters (k, sign) on `strands` strands; letter k
in 1..strands-1 crosses the strands at positions k, k+1.  Each letter is
expanded as sigma_k^(+-1) = A^(+-1) * id + A^(-+1) * e_k, where the
Temperley-Lieb generator e_k caps positions k, k+1 and cups them again;
a cap that closes on itself is a loop and multiplies by
delta = -A^2 - A^-2.  The states are the non-crossing matchings of the
2 * strands boundary points (Catalan(strands) of them), each carrying a
Laurent polynomial.  At the end the top is glued to the bottom, and a state
that closes into l loops weighs delta^(l - 1), so the empty closure of one
strand has bracket 1.  A single positive kink then contributes -A^3, which
fixes every other sign convention here.  The writhe-corrected polynomial
(-A^3)^(-writhe) * bracket is invariant and matches the Jones polynomial of
the closure up to the global variable choice; comparisons against the
cabling engine therefore go through :func:`equal_up_to_monomial`, which
absorbs one unit monomial and an optional mirror.

Word builders.  :func:`parallel_word` is the blackboard s-parallel of a
word, and :func:`cable_word` builds the braid of a chain of cables over the
unknot, placing each cable pattern relative to the engine's framing (see
:mod:`cablejones.linkexpr`); for cable(r,s;1;unknot) it is the (r, s)
torus braid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laurent import _INT64_BOUND, ComputationError, LaurentPoly, _max_abs
from .linkexpr import Cable, LinkExpr, Unknot, component_count

__all__ = [
    "MAX_STRANDS",
    "MonomialMatch",
    "TooManyStrands",
    "cable_word",
    "equal_up_to_monomial",
    "jones_from_bracket",
    "kauffman_bracket",
    "parallel_word",
]

# The transfer holds one polynomial per non-crossing matching, Catalan(s)
# of them on s strands: 1430 at 8 strands, 16796 at 10.
MAX_STRANDS = 8

Word = list[tuple[int, int]]


class TooManyStrands(ComputationError, ValueError):
    """The braid has more strands than the transfer's bound MAX_STRANDS."""


def _sweep(s: int, t: int) -> Word:
    """(sigma_1 ... sigma_(s-1))^t; for t < 0, the inverse sweep |t| times."""
    if t >= 0:
        return [(k, 1) for k in range(1, s)] * t
    return [(k, -1) for k in range(s - 1, 0, -1)] * -t


def parallel_word(word: Word, s: int) -> Word:
    """The blackboard s-parallel: strand p becomes the bundle of strands
    (p-1)s+1 .. ps, and each letter becomes the s^2 letters of its sign
    that cross bundle k over bundle k + 1."""
    return [((k - 1) * s + i + j, sign) for k, sign in word
            for i in range(s, 0, -1) for j in range(s)]


def cable_word(e: LinkExpr) -> tuple[Word, int, int]:
    """(word, strands, framing) of a chain of cables on component 1 over the
    unknot, where `framing` is the engine's framing of the closure.

    cable(r,s;1;K) is the s-parallel of K's word with the pattern
    (sigma_1 ... sigma_(s-1))^t on the first bundle, t = r + s(f_K - w), where
    w is K's writhe and f_K its engine framing; its framing is
    r*s + s^2 * f_K.
    """
    if isinstance(e, Unknot):
        return [], 1, 0
    if not isinstance(e, Cable) or component_count(e.child) != 1:
        raise ValueError(f"not a chain of cables over the unknot: {e}")
    word, strands, f = cable_word(e.child)
    t = e.r + e.s * (f - sum(sign for _, sign in word))
    return (parallel_word(word, e.s) + _sweep(e.s, t), strands * e.s,
            e.r * e.s + e.s * e.s * f)


def _cap(m: tuple, n: int, k: int) -> tuple[tuple, bool]:
    """e_k applied below matching m: the new state and whether a loop closed."""
    a, b = n + k - 1, n + k
    if m[a] == b:
        return m, True
    out = list(m)
    x, y = m[a], m[b]
    out[x], out[y], out[a], out[b] = y, x, b, a
    return tuple(out), False


def _loops(m: tuple, n: int) -> int:
    """Loops of matching m once top point i is glued to bottom point n + i."""
    seen = [False] * (2 * n)
    loops = 0
    for p in range(2 * n):
        if not seen[p]:
            loops += 1
            while not seen[p]:
                q = m[p]
                seen[p] = seen[q] = True
                p = (q + n) % (2 * n)
    return loops


def kauffman_bracket(word: Word, strands: int) -> LaurentPoly:
    """Bracket of the closure of `word`: sum over states of A^(#A - #B) *
    delta^(loops - 1), summed by the transfer over non-crossing matchings."""
    if strands < 1:
        raise ValueError("need at least one strand")
    if strands > MAX_STRANDS:
        raise TooManyStrands(f"{strands} strands exceed the bound {MAX_STRANDS}")
    for k, sign in word:
        if not 1 <= k < strands or sign not in (1, -1):
            raise ValueError(f"bad braid letter ({k}, {sign})")
    n = strands
    # Points 0..n-1 are the top, n..2n-1 the bottom; m[p] is p's partner.
    states = [tuple(range(n, 2 * n)) + tuple(range(n))]
    index = {states[0]: 0}
    images: dict[int, list] = {k: [] for k, _ in word}
    for m in states:  # grows until every e_k image is a state
        for k, img in images.items():
            m2, loop = _cap(m, n, k)
            if m2 not in index:
                index[m2] = len(states)
                states.append(m2)
            img.append((index[m2], loop))
    maps = {}
    for k, img in images.items():
        j, loop = map(np.array, zip(*img))
        order = np.argsort(j)
        targets, starts, fan = np.unique(j[order], return_index=True, return_counts=True)
        maps[k] = (loop, order, targets, starts, int(fan.max()))
    # Column pad + x holds A^x.  Exponents move by at most 3 a letter, so
    # the terms lie in c[:, lo + 3:hi - 3] before each letter and rolls in
    # c[:, lo:hi] never wrap one.
    pad = 3 * len(word)
    c = np.zeros((len(states), 2 * pad + 1), dtype=np.int64)
    c[0, pad] = 1
    lo, hi = pad, pad + 1
    for k, sign in word:
        loop, order, targets, starts, fan = maps[k]
        lo, hi = lo - 3, hi + 3
        w = c[:, lo:hi]
        # Each entry gains at most one identity term and 2 * fan e_k terms.
        if c.dtype != object and _max_abs(w) * (1 + 2 * fan) >= _INT64_BOUND:
            c = c.astype(object)
            w = c[:, lo:hi]
        part = np.roll(w, -sign, axis=1)
        part[loop] = -np.roll(part[loop], 2, axis=1) - np.roll(part[loop], -2, axis=1)
        w[:] = np.roll(w, sign, axis=1)
        w[targets] += np.add.reduceat(part[order], starts, axis=0)
    loops = np.array([_loops(m, n) for m in states])
    delta = LaurentPoly(-2, (-1, 0, 0, 0, -1))
    total = LaurentPoly.zero()
    for count in set(loops.tolist()):
        row = c[loops == count].sum(axis=0, dtype=object)
        total = total + LaurentPoly(-pad, row) * delta ** (count - 1)
    return total


def jones_from_bracket(word: Word, strands: int) -> LaurentPoly:
    """Writhe-corrected bracket (-A^3)^(-writhe) * <closure of word>."""
    w = sum(sign for _, sign in word)
    return kauffman_bracket(word, strands).scale_shift((-1) ** (w & 1), -3 * w)


@dataclass(frozen=True)
class MonomialMatch:
    sign: int
    shift: int
    mirrored: bool


def equal_up_to_monomial(p: LaurentPoly, q: LaurentPoly) -> MonomialMatch | None:
    """Find (sign, shift, mirrored) with p = sign * A^shift * q (or mirror(q)).

    Absorbs the global framing and chirality units that separate
    differently-normalized presentations of the same invariant.  Returns
    None when no such unit exists; a direct match is preferred over a
    mirrored one.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("both polynomials must be nonzero")
    for mirrored in (False, True):
        qc = q.mirror() if mirrored else q
        if p.maxdeg - p.mindeg != qc.maxdeg - qc.mindeg:
            continue
        top_p = p.coeffs[-1]
        top_q = qc.coeffs[-1]
        if abs(top_p) != abs(top_q):
            continue
        sign = 1 if (top_p > 0) == (top_q > 0) else -1
        shift = p.maxdeg - qc.maxdeg
        if p == qc.scale_shift(sign, shift):
            return MonomialMatch(sign, shift, mirrored)
    return None
