import random
from itertools import product

import numpy as np
import pytest

from cablejones.trinomial import coefficient, trinomial_table


def brute_force_table(colors):
    """Independent oracle: enumerate every choice of offsets and count sums.

    Each factor of length N contributes an offset in {-(N-1), -(N-1)+2,
    ..., N-1} (twice the half-integer exponent); the coefficient at m is
    the number of tuples summing to m.
    """
    counts = {}
    ranges = [range(-(n - 1), n, 2) for n in colors]
    for combo in product(*ranges):
        m = sum(combo)
        counts[m] = counts.get(m, 0) + 1
    return counts


def test_single_factor():
    t = trinomial_table((5,))
    assert dict(t.items()) == {m: 1 for m in range(-4, 5, 2)}


def test_two_twos():
    t = trinomial_table((2, 2))
    assert dict(t.items()) == {-2: 1, 0: 2, 2: 1}


def test_three_three():
    t = trinomial_table((3, 3))
    assert [t[m] for m in range(-4, 5, 2)] == [1, 2, 3, 2, 1]
    assert dict(t.items()) == brute_force_table((3, 3))


def test_repr():
    assert repr(trinomial_table((2, 3))) == "CoeffTable(colors=(2, 3), values=[1, 2, 2, 1])"


def test_coefficient_accessor():
    assert coefficient((3, 3), 0) == 3
    assert coefficient((2, 2), 1) == 0       # parity mismatch
    assert coefficient((4,), 6) == 0         # beyond |N| - g


def test_invalid_colors():
    with pytest.raises(ValueError):
        trinomial_table(())
    with pytest.raises(ValueError):
        trinomial_table((3, 0))


def test_random_tables_against_brute_force_and_invariants():
    rng = random.Random(7)
    for _ in range(60):
        g = rng.randint(1, 5)
        colors = tuple(rng.randint(1, 8) for _ in range(g))
        t = trinomial_table(colors)
        width = sum(colors) - g
        assert t.width == width
        items = dict(t.items())
        assert items == brute_force_table(colors)
        # symmetry, positivity, total mass
        for m in t.support():
            assert t[m] == t[-m] > 0
        assert t.total() == __import__("math").prod(colors)
        # outside the support or off-parity: zero
        assert t[width + 2] == 0
        assert t[width + 1] == 0
        # unimodal in |m|
        values = [t[m] for m in range(width % 2, width + 1, 2)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_extension_recurrence():
    rng = random.Random(8)
    for _ in range(40):
        g = rng.randint(1, 4)
        colors = tuple(rng.randint(1, 6) for _ in range(g))
        extra = rng.randint(1, 6)
        base = trinomial_table(colors)
        ext = trinomial_table(colors + (extra,))
        for m in range(-ext.width - 2, ext.width + 3):
            total = sum(base[m - d] for d in range(-(extra - 1), extra, 2))
            assert ext[m] == total


def test_single_color_is_all_ones():
    for n in range(1, 9):
        t = trinomial_table((n,))
        assert all(c == 1 for _, c in t.items())
        assert len(list(t.items())) == n


def loop_table(colors):
    """The plain Python-int convolution, the reference for both backends."""
    values = [1] * colors[0]
    for n in colors[1:]:
        out = [0] * (len(values) + n - 1)
        for i, v in enumerate(values):
            for j in range(n):
                out[i + j] += v
        values = out
    return values


def test_int64_and_python_int_paths_match_the_loop():
    # prod(colors) below 2^62 convolves in int64; at or above it, on Python
    # ints in an object array.
    rng = random.Random(9)
    cases = [tuple(rng.randint(1, 40) for _ in range(rng.randint(2, 4)))
             for _ in range(30)]
    cases += [(512, 512), (2,) * 61, (2,) * 62, (4,) * 31, (4,) * 34]
    for colors in cases:
        values = trinomial_table(colors).values()
        assert values == loop_table(colors)
        assert all(type(v) is int for v in values)
    big = trinomial_table((4,) * 34).values()
    assert max(big) > 2 ** 63 and sum(big) == 4 ** 34


def convolve_table(colors):
    """The table as a chain of np.convolve with all-ones vectors, in int64."""
    arr = np.ones(colors[0], dtype=np.int64)
    for n in colors[1:]:
        arr = np.convolve(arr, np.ones(n, dtype=np.int64))
    return arr


def test_running_sums_match_the_convolution_chain():
    rng = random.Random(11)
    for g in range(1, 6):
        for _ in range(8):
            colors = tuple(rng.randint(1, 300) for _ in range(g))
            table = trinomial_table(colors)
            assert table.array.dtype == np.int64
            assert table.values() == convolve_table(colors).tolist()
    for colors in ((1,), (1, 1), (300, 1), (1, 300), (300,) * 5, (1, 2, 1, 300, 1)):
        assert trinomial_table(colors).values() == convolve_table(colors).tolist()
