"""Generalized trinomial coefficient tables.

For a color vector N = (N_0, ..., N_{g-1}) the table holds the coefficients
of the product of symmetric uniform Laurent factors

    prod_k (x^((N_k-1)/2) + x^((N_k-1)/2 - 1) + ... + x^(-(N_k-1)/2)),

one all-ones factor per color.  The coefficient of x^w is indexed here by
the integer m = 2w, so the support is {m : |m| <= |N|-g, m = |N|-g mod 2}.
These integers weight the terms of the cabling expansion in
:mod:`cablejones.jones`.  The table is built one color at a time, each
all-ones factor applied as a difference of running sums.
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

    ``array`` holds C[-width], C[-width + 2], ..., C[width], read-only, in
    int64 when the product of the colors is below 2^62 and as Python ints
    otherwise.  C[m] = C[-m] > 0 on the support, the values are unimodal in
    |m|, and they sum to the product of the colors.
    """

    __slots__ = ("colors", "width", "array")

    def __init__(self, colors: tuple[int, ...], array: np.ndarray):
        self.colors = colors
        self.width = sum(colors) - len(colors)  # largest |m| in the support
        array.setflags(write=False)
        self.array = array

    def __getitem__(self, m: int) -> int:
        if abs(m) > self.width or (m - self.width) % 2:
            return 0
        return int(self.array[(m + self.width) // 2])

    def support(self) -> range:
        """The m values carrying nonzero coefficients, ascending."""
        return range(-self.width, self.width + 1, 2)

    def values(self) -> list[int]:
        """The coefficients in ascending m, as Python ints."""
        return self.array.tolist()

    def items(self):
        return zip(self.support(), self.values())

    def total(self) -> int:
        return int(self.array.sum())

    def as_json_dict(self) -> dict:
        return {"m": list(self.support()), "C": [str(v) for v in self.values()]}

    def __repr__(self) -> str:
        return f"CoeffTable(colors={self.colors}, values={self.values()})"


def trinomial_table(colors: Sequence[int]) -> CoeffTable:
    """Convolve one all-ones vector per color into the coefficient table.

    Convolving arr with n ones sums each window of n entries, so it is the
    running sums of arr padded by n - 1 zeros minus the same running sums
    shifted by n: O(len(arr)) per color instead of O(len(arr) n).  Every
    running sum is at most the product of the colors (the sum of all
    entries), so the sums run in int64 when that product is below 2^62 and
    on Python ints otherwise.

    >>> trinomial_table((3, 3)).values()
    [1, 2, 3, 2, 1]
    """
    colors = validate_color_vector(colors)
    dtype = np.int64 if math.prod(colors) < 1 << 62 else object
    arr = np.ones(colors[0], dtype=dtype)
    for n in colors[1:]:
        sums = np.cumsum(np.concatenate((arr, np.zeros(n - 1, dtype=dtype))))
        arr = sums.copy()
        arr[n:] -= sums[:-n]
    return CoeffTable(colors, arr)


def coefficient(colors: Sequence[int], m: int) -> int:
    """C[m] for the given color vector; 0 outside the support."""
    return trinomial_table(colors)[m]
