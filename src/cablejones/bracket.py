"""Kauffman-bracket state sum on generated braid-closure diagrams.

This is a first-principles oracle, independent of the cabling engine: it
knows nothing about quantum integers or trinomial tables, only about
smoothing crossings in a planar diagram and counting loops.

Conventions.  A braid generator crossing has four edge slots
(in_left, in_right, out_left, out_right).  For a positive crossing the
A-smoothing is the identity pairing {in_left-out_left, in_right-out_right}
and the B-smoothing is the cup-cap {in_left-in_right, out_left-out_right};
a negative crossing swaps the two roles.  With loop weight
delta = -A^2 - A^-2 and the state sum

    sum over states of A^(#A - #B) * delta^(loops - 1),

a single positive kink contributes the factor -A^3, which fixes the
orientation of every other sign convention here.  The writhe-corrected
polynomial (-A^3)^(-writhe) * bracket is invariant and matches the Jones
polynomial of the closure up to the global variable choice; comparisons
against the cabling engine therefore go through
:func:`equal_up_to_monomial`, which absorbs one unit monomial and an
optional mirror.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .laurent import ComputationError, LaurentPoly

__all__ = [
    "Crossing",
    "MonomialMatch",
    "PlanarDiagram",
    "TooManyCrossings",
    "braid_closure_diagram",
    "equal_up_to_monomial",
    "jones_from_bracket",
    "kauffman_bracket",
    "torus_closure_diagram",
]

MAX_CROSSINGS = 16


class TooManyCrossings(ComputationError, ValueError):
    """The 2^crossings state sum would exceed the configured bound."""


@dataclass(frozen=True)
class Crossing:
    in_left: int
    in_right: int
    out_left: int
    out_right: int
    sign: int  # +1 for a positive braid generator, -1 for its inverse


@dataclass(frozen=True)
class PlanarDiagram:
    """A closed 4-valent diagram: crossings plus closure arcs over edge ids."""

    crossings: tuple[Crossing, ...]
    closures: tuple[tuple[int, int], ...]
    n_edges: int
    writhe: int
    n_components: int

    def __post_init__(self):
        counts = [0] * self.n_edges
        for c in self.crossings:
            for e in (c.in_left, c.in_right, c.out_left, c.out_right):
                counts[e] += 1
        for a, b in self.closures:
            counts[a] += 1
            counts[b] += 1
        bad = [e for e, k in enumerate(counts) if k != 2]
        if bad:
            raise ValueError(f"edges {bad} do not appear exactly twice")


def braid_closure_diagram(word: list[tuple[int, int]], strands: int,
                          max_crossings: int = MAX_CROSSINGS) -> PlanarDiagram:
    """Closure of a braid word, given as (generator index k, sign) letters.

    Generator k in 1..strands-1 crosses the strands at positions k, k+1.
    """
    if strands < 1:
        raise ValueError("need at least one strand")
    if len(word) > max_crossings:
        raise TooManyCrossings(
            f"{len(word)} crossings exceed the bound {max_crossings}")
    current = list(range(strands))
    positions = list(range(strands))  # positions[p] = strand currently at p
    next_edge = strands
    crossings = []
    for k, sign in word:
        if not 1 <= k < strands or sign not in (1, -1):
            raise ValueError(f"bad braid letter ({k}, {sign})")
        u, v = current[k - 1], current[k]
        x, y = next_edge, next_edge + 1
        next_edge += 2
        crossings.append(Crossing(u, v, x, y, sign))
        current[k - 1], current[k] = x, y
        positions[k - 1], positions[k] = positions[k], positions[k - 1]
    closures = tuple((current[p], p) for p in range(strands))
    # Closure identifies top position p with bottom position p; components
    # are the cycles of start-position -> end-position.
    end_of = {positions[p]: p for p in range(strands)}
    seen = [False] * strands
    comps = 0
    for start in range(strands):
        if seen[start]:
            continue
        comps += 1
        p = start
        while not seen[p]:
            seen[p] = True
            p = end_of[p]
    return PlanarDiagram(tuple(crossings), closures, next_edge,
                         sum(s for _, s in word), comps)


def torus_closure_diagram(r: int, s: int,
                          max_crossings: int = MAX_CROSSINGS) -> PlanarDiagram:
    """The standard closed-braid diagram of the (r, s)-torus braid.

    The braid is the r-th power of the full sweep through generators
    1..s-1 (the inverse sweep, in inverse order, when r < 0); blackboard
    framing, writhe sign(r) * |r| * (s - 1).
    """
    if r == 0:
        raise ValueError("r must be nonzero; the 0-winding cable is not a braid closure here")
    if s < 2:
        raise ValueError("s must be >= 2")
    if abs(r) * (s - 1) > max_crossings:
        raise TooManyCrossings(
            f"{abs(r) * (s - 1)} crossings exceed the bound {max_crossings}")
    if r > 0:
        sweep = [(k, 1) for k in range(1, s)]
    else:
        sweep = [(k, -1) for k in range(s - 1, 0, -1)]
    return braid_closure_diagram(sweep * abs(r), s, max_crossings)


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def kauffman_bracket(d: PlanarDiagram,
                     max_crossings: int = MAX_CROSSINGS) -> LaurentPoly:
    """Exhaustive state sum sum_states A^(#A - #B) * delta^(loops - 1)."""
    n = len(d.crossings)
    if n > max_crossings:
        raise TooManyCrossings(f"{n} crossings exceed the bound {max_crossings}")
    delta = LaurentPoly.from_terms([(2, -1), (-2, -1)])
    max_loops = d.n_edges  # every loop uses at least one edge
    delta_pow = [LaurentPoly.one()]
    for _ in range(max_loops):
        delta_pow.append(delta_pow[-1] * delta)
    counts: Counter[tuple[int, int]] = Counter()
    crossings = d.crossings
    closures = d.closures
    n_edges = d.n_edges
    for state in range(1 << n):
        parent = list(range(n_edges))
        for idx in range(n):
            c = crossings[idx]
            a_choice = not (state >> idx) & 1
            identity = a_choice if c.sign > 0 else not a_choice
            if identity:
                pairs = ((c.in_left, c.out_left), (c.in_right, c.out_right))
            else:
                pairs = ((c.in_left, c.in_right), (c.out_left, c.out_right))
            for x, y in pairs:
                rx, ry = _find(parent, x), _find(parent, y)
                if rx != ry:
                    parent[rx] = ry
        for x, y in closures:
            rx, ry = _find(parent, x), _find(parent, y)
            if rx != ry:
                parent[rx] = ry
        loops = sum(1 for e in range(n_edges) if _find(parent, e) == e)
        b_count = bin(state).count("1")
        counts[n - 2 * b_count, loops] += 1
    return sum((delta_pow[loops - 1].scale_shift(count, shift)
                for (shift, loops), count in counts.items()), LaurentPoly.zero())


def jones_from_bracket(d: PlanarDiagram,
                       max_crossings: int = MAX_CROSSINGS) -> LaurentPoly:
    """Writhe-corrected bracket (-A^3)^(-writhe) * <d>."""
    b = kauffman_bracket(d, max_crossings)
    w = d.writhe
    return b.scale_shift((-1) ** (w & 1), -3 * w)


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
