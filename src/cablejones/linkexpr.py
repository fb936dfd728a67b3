"""Expression trees for banded links built from the unknot.

Every link of zero simplicial volume is reachable from the 0-framed unknot
by cabling, framing twists, and connected sums, so the input language is
the little grammar

    expr := "unknot"
          | "cable" "(" r "," s ";" i ";" expr ")"
          | "twist" "(" f ";" i ";" expr ")"
          | "connsum" "(" expr "," i ";" expr "," j ")"

with integers r, f, positive integers s, i, j, and 1-based component
indices.  Whitespace is ignored everywhere: the parser reads the text one
token at a time (a keyword, a signed integer, or one other character), and
no token holds a space.  It accepts at most MAX_NESTING levels of cable,
twist and connsum inside one another, so the recursive parser, mirror and
engine stay far from Python's recursion limit.

Component bookkeeping: (r,s)-cabling component i replaces it with
g = gcd(|r|, s) cable components (gcd(0, s) = s).  Numbering the s cable
strands 0..s-1, strands land in the same component exactly when their
numbers agree mod g, and the g new components sit at positions
i..i+g-1 in residue order, shifting later components up by g-1.  A
connected sum joins component i of the left factor to component j of the
right factor; the merged component keeps position i, and the remaining
right components follow after all left components in their original order.

Framing: for a knot K, cable(r,s;1;K) is the (r,s) cable relative to the
framing the engine gives K, f_K, not to K's 0-framing.  The engine frames
the result by r*s + s^2 * f_K, with f_K = 0 for the unknot, so
cable(r,s;1;unknot) carries framing r*s and cable(r,s;1;cable(3,2;1;unknot))
winds r times around the 6-framed trefoil.  As a braid closure, the cable
is the blackboard s-parallel of K's braid word with the pattern
(sigma_1 ... sigma_(s-1))^(r + s(f_K - w)) on the first bundle, where w is
the writhe of K's word; ``bracket.cable_word`` builds it, and the tests
check it against the engine.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "BadCableParams",
    "BadComponentIndex",
    "Cable",
    "ColorArityMismatch",
    "ConnSum",
    "ExprSyntaxError",
    "ExpressionTooDeep",
    "LinkExpr",
    "MAX_NESTING",
    "NonPositiveColor",
    "Twist",
    "Unknot",
    "cable_gcd",
    "component_count",
    "mirror_expr",
    "parse",
    "to_text",
    "validate_colors",
]


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ExpressionTooDeep(ValueError):
    """Expression text nests more than MAX_NESTING constructors."""


class BadComponentIndex(ValueError):
    pass


class BadCableParams(ValueError):
    pass


class ColorArityMismatch(ValueError):
    pass


class NonPositiveColor(ValueError):
    pass


MAX_NESTING = 100


def cable_gcd(r: int, s: int) -> int:
    """Number of components of the closed (r,s)-torus braid; gcd(0, s) = s."""
    return math.gcd(abs(r), s)


@dataclass(frozen=True)
class Unknot:
    def __str__(self) -> str:
        return "unknot"


@dataclass(frozen=True)
class Cable:
    """(i; r, s)-cabling: component i is replaced by the closed torus braid."""

    child: "LinkExpr"
    i: int
    r: int
    s: int

    def __post_init__(self):
        if self.s < 1:
            raise BadCableParams(f"cable strand count must be >= 1, got {self.s}")
        _check_index(self.i, self.child)

    def __str__(self) -> str:
        return f"cable({self.r},{self.s};{self.i};{self.child})"


@dataclass(frozen=True)
class Twist:
    """Framing change by f full twists on component i."""

    child: "LinkExpr"
    i: int
    f: int

    def __post_init__(self):
        _check_index(self.i, self.child)

    def __str__(self) -> str:
        return f"twist({self.f};{self.i};{self.child})"


@dataclass(frozen=True)
class ConnSum:
    """Connected sum joining component i of left to component j of right."""

    left: "LinkExpr"
    i: int
    right: "LinkExpr"
    j: int

    def __post_init__(self):
        _check_index(self.i, self.left)
        _check_index(self.j, self.right)

    def __str__(self) -> str:
        return f"connsum({self.left},{self.i};{self.right},{self.j})"


LinkExpr = Unknot | Cable | Twist | ConnSum


def _check_index(i: int, child: "LinkExpr"):
    c = component_count(child)
    if not 1 <= i <= c:
        raise BadComponentIndex(
            f"component index {i} out of range 1..{c}")


def component_count(e: LinkExpr) -> int:
    if isinstance(e, Unknot):
        return 1
    if isinstance(e, Cable):
        return component_count(e.child) + cable_gcd(e.r, e.s) - 1
    if isinstance(e, Twist):
        return component_count(e.child)
    if isinstance(e, ConnSum):
        return component_count(e.left) + component_count(e.right) - 1
    raise TypeError(f"not a link expression: {e!r}")


def mirror_expr(e: LinkExpr) -> LinkExpr:
    """Mirror image: negate every cabling winding r and every twist f."""
    if isinstance(e, Unknot):
        return e
    if isinstance(e, Cable):
        return Cable(mirror_expr(e.child), e.i, -e.r, e.s)
    if isinstance(e, Twist):
        return Twist(mirror_expr(e.child), e.i, -e.f)
    if isinstance(e, ConnSum):
        return ConnSum(mirror_expr(e.left), e.i, mirror_expr(e.right), e.j)
    raise TypeError(f"not a link expression: {e!r}")


def validate_colors(e: LinkExpr, colors: Sequence[int]) -> None:
    """Check one positive color per component; raise otherwise."""
    colors = tuple(colors)
    c = component_count(e)
    if len(colors) != c:
        raise ColorArityMismatch(
            f"expression has {c} components but {len(colors)} colors given")
    for n in colors:
        if not isinstance(n, int) or n < 1:
            raise NonPositiveColor(f"colors must be positive integers, got {n!r}")


def to_text(e: LinkExpr) -> str:
    """Canonical textual form; parse(to_text(e)) == e."""
    return str(e)


class _Parser:
    """Recursive descent over the tokens of the text, read one at a time."""

    def __init__(self, text: str):
        # A token is a word (letters and numerals such as "²"; a keyword is
        # all letters), a signed decimal integer, or any other non-space
        # character.  Whitespace matches nothing, so finditer steps over it;
        # a pattern that matched it, such as a leading \s*, would be retried
        # at every space of a run, quadratic in its length.
        self.tokens = re.finditer(r"[^\W\d_]+|[+-]?\d+|\S", text)
        self.end = len(text)

    def token(self) -> str:
        """The next token, or "" past the end; self.pos is where it starts."""
        m = next(self.tokens, None)
        self.pos = m.start() if m else self.end
        return m[0] if m else ""

    def expect(self, ch: str):
        if self.token() != ch:
            raise ExprSyntaxError(f"expected '{ch}'", self.pos)

    def integer(self) -> int:
        tok = self.token()
        if not tok[-1:].isdecimal():  # only an integer token ends in a decimal digit
            raise ExprSyntaxError("expected an integer", self.pos)
        try:
            return int(tok)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ExprSyntaxError("integer has too many digits", self.pos) from None

    def index(self) -> int:
        i = self.integer()
        if i < 1:
            raise ExprSyntaxError("component index must be positive", self.pos)
        return i

    def expr(self, depth: int = 0) -> LinkExpr:
        """Parse one expression inside `depth` enclosing constructors."""
        kw = self.token()
        start = self.pos
        if not kw[:1].isalpha():
            raise ExprSyntaxError("expected a keyword", start)
        if kw == "unknot":
            return Unknot()
        if kw not in ("cable", "twist", "connsum"):
            raise ExprSyntaxError(f"unknown keyword '{kw}'", start)
        if depth >= MAX_NESTING:
            raise ExpressionTooDeep(
                f"expression nests more than {MAX_NESTING} levels (at position {start})")
        self.expect("(")
        if kw == "connsum":
            left = self.expr(depth + 1)
            self.expect(",")
            i = self.index()
            self.expect(";")
            right = self.expr(depth + 1)
            self.expect(",")
            j = self.index()
            self.expect(")")
            return ConnSum(left, i, right, j)
        n = self.integer()  # the cable's r or the twist's f
        if kw == "cable":
            self.expect(",")
            s = self.integer()
            if s < 1:
                raise BadCableParams(
                    f"cable strand count must be >= 1, got {s} (at position {self.pos})")
        self.expect(";")
        i = self.index()
        self.expect(";")
        child = self.expr(depth + 1)
        self.expect(")")
        return Cable(child, i, n, s) if kw == "cable" else Twist(child, i, n)


def parse(text: str) -> LinkExpr:
    """Parse expression text into a validated tree.

    Raises ExprSyntaxError with a position on malformed text,
    BadComponentIndex on an out-of-range component, BadCableParams on
    a non-positive strand count, and ExpressionTooDeep past MAX_NESTING
    nested constructors.
    """
    p = _Parser(text)
    e = p.expr()
    if p.token():
        raise ExprSyntaxError("trailing input", p.pos)
    return e
