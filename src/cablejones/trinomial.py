"""Generalized trinomial coefficient tables.

For a color vector N = (N_0, ..., N_{g-1}) the table holds the coefficients
of the product of symmetric uniform Laurent factors

    prod_k (x^((N_k-1)/2) + x^((N_k-1)/2 - 1) + ... + x^(-(N_k-1)/2)),

one all-ones factor per color.  The coefficient of x^w is indexed here by
the integer m = 2w, so the support is {m : |m| <= |N|-g, m = |N|-g mod 2}.
These integers weight the terms of the cabling expansion in
:mod:`cablejones.jones`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["CoeffTable", "coefficient", "trinomial_table", "validate_color_vector"]


def validate_color_vector(colors: Sequence[int]) -> tuple[int, ...]:
    colors = tuple(colors)
    if not colors:
        raise ValueError("color vector must have at least one entry")
    for c in colors:
        if not isinstance(c, int) or c < 1:
            raise ValueError(f"colors must be positive integers, got {c!r}")
    return colors


class CoeffTable:
    """Coefficients C[m] of one color vector, indexed by m = 2w.

    C[m] = C[-m] > 0 on the support, the values are unimodal in |m|, and
    they sum to the product of the colors.
    """

    __slots__ = ("colors", "width", "_values")

    def __init__(self, colors: tuple[int, ...], values: list[int]):
        self.colors = colors
        self.width = sum(colors) - len(colors)  # largest |m| in the support
        self._values = values

    def __getitem__(self, m: int) -> int:
        if abs(m) > self.width or (m - self.width) % 2:
            return 0
        return self._values[(m + self.width) // 2]

    def support(self) -> range:
        """The m values carrying nonzero coefficients, ascending."""
        return range(-self.width, self.width + 1, 2)

    def items(self):
        for m in self.support():
            yield m, self._values[(m + self.width) // 2]

    def total(self) -> int:
        return sum(self._values)

    def as_json_dict(self) -> dict:
        return {"m": list(self.support()), "C": [str(v) for v in self._values]}

    def __repr__(self) -> str:
        return f"CoeffTable(colors={self.colors}, values={self._values})"


def trinomial_table(colors: Sequence[int]) -> CoeffTable:
    """Convolve one all-ones vector per color into the coefficient table.

    Every entry is at most the product of the colors (the sum of all
    entries), so the convolution runs in int64 when that product is below
    2^62 and on Python ints otherwise.

    >>> trinomial_table((3, 3))._values
    [1, 2, 3, 2, 1]
    """
    colors = validate_color_vector(colors)
    dtype = np.int64 if math.prod(colors) < 1 << 62 else object
    arr = np.ones(colors[0], dtype=dtype)
    for n in colors[1:]:
        arr = np.convolve(arr, np.ones(n, dtype=dtype))
    return CoeffTable(colors, arr.tolist())


def coefficient(colors: Sequence[int], m: int) -> int:
    """C[m] for the given color vector; 0 outside the support."""
    return trinomial_table(colors)[m]
