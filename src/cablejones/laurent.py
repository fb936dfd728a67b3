"""Exact Laurent polynomial arithmetic in the variable A = q^(1/4).

All link invariants in this package are integer Laurent polynomials in a
single variable A, with q = A^4.  A polynomial is stored on an exponent
lattice: a minimum exponent ``val``, a ``step`` >= 1 and a 1-D numpy array
``coeffs`` in which ``coeffs[i]`` is the coefficient of A^(val + step*i),
with no zero at either end; the zero polynomial is the empty array with
``val = 0``.  The array is read-only, so polynomials can share it.

Coefficients are machine words (``dtype=np.int64``) when they fit and Python
ints in a ``dtype=object`` array otherwise, so nothing ever overflows.  Each
polynomial carries a proved upper bound on its largest |coefficient|, and
each operation derives the bound of every intermediate it forms from the
bounds of its operands: a sum adds them, a product multiplies them by the
shorter length, a derivative by the largest |exponent|.  An operation runs
in int64 only when that bound is below 2^62; otherwise it runs on Python
ints, and its result drops back to int64 when its exact maximum fits.  The
dtype is therefore a function of the value: int64 exactly when every
|coefficient| is below 2^62.

The step is a lattice that contains the support, not necessarily the
coarsest one: each operation derives the step of its result from the steps
of its operands (a gcd), never by scanning coefficients, and a polynomial
with at most one term fits every lattice.  The quantum integer [n] lives on
step 4, and so does everything the cabling engine builds from it, because
cabling shifts differ by multiples of 4: the engine stores and adds a
quarter of the entries a dense array would.  Supports are nearly contiguous
on their lattice, so this form wins over a sparse map.  Values built from
explicit terms start on step 1.  Bulk sums of many shifted polynomials go
through :class:`PolyAccumulator`, one vectorized slice add per term.

Evaluation at the root of unity A0 = exp(i*pi/2N) first sums the
coefficients exactly per residue class of the exponent mod 4N, so
polynomials of huge degree lose no precision before the single final dot
product with the powers of A0.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "LaurentPoly",
    "NotDivisible",
    "PolyAccumulator",
    "RootOfUnityPoint",
    "divide_by_quantum_integer",
    "quantum_integer",
]

# Every int64 intermediate is proved to stay below this in absolute value;
# coefficients at or above it live in dtype=object arrays.
_INT64_BOUND = 1 << 62

# Trimming scans this many entries at a time inward from each end.
_SCAN = 4096

# A product takes the shifted-add path when its convolution would cost more
# multiply-adds than one slice add per nonzero term, with the Python
# overhead of a term counted as this many multiply-adds.
_TERM_COST = 2048


class NotDivisible(ArithmeticError):
    """Exact division left a nonzero remainder.

    Divisibility is an invariant everywhere this package divides (connected
    sums, normalization), so this error signals either a caller bug or a
    violated invariant, never a rounding problem.
    """


@functools.lru_cache(maxsize=64)
def _doubled_powers(n: int) -> np.ndarray:
    one_period = np.array([cmath.exp(1j * math.pi * k / (2 * n)) for k in range(4 * n)],
                          dtype=np.complex128)
    out = np.concatenate([one_period, one_period])
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RootOfUnityPoint:
    """The evaluation point A0 = exp(i*pi/2N), a primitive 4N-th root of unity.

    Equivalently q0 = A0^4 = exp(2*pi*i/N).  A0^(2N) = -1 and A0^(4N) = 1.
    """

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be a positive integer")

    @property
    def order(self) -> int:
        return 4 * self.N

    @property
    def a0(self) -> complex:
        return cmath.exp(1j * math.pi / (2 * self.N))

    def powers(self) -> np.ndarray:
        """A0^k for k = 0..8N-1, each computed from its own angle.

        Two full periods, so the powers of any 4N consecutive exponents form
        one slice.  Built once per N and shared, hence read-only.
        """
        return _doubled_powers(self.N)


def _dtype(bound: int):
    """The dtype in which values bounded by `bound` are computed."""
    return np.int64 if bound < _INT64_BOUND else object


def _max_abs(arr: np.ndarray) -> int:
    """Exact max |c| over a nonempty array, as a Python int."""
    return max(-int(arr.min()), int(arr.max()))


def _nonzero_range(arr: np.ndarray) -> tuple[int, int]:
    """(lo, hi) such that arr[lo:hi] runs from the first to the last nonzero.

    Scans windows inward from each end; sums of cable terms carry nonzero
    extreme terms, so a wide array is normally touched in two windows.
    """
    n = len(arr)
    if n and arr[0] and arr[-1]:
        return 0, n
    lo = 0
    while lo < n:
        nz = arr[lo: lo + _SCAN].nonzero()[0]
        if len(nz):
            if lo + _SCAN >= n:
                return lo + int(nz[0]), lo + int(nz[-1]) + 1
            lo += int(nz[0])
            break
        lo += _SCAN
    else:
        return 0, 0
    hi = n
    while True:
        start = max(lo, hi - _SCAN)
        nz = arr[start: hi].nonzero()[0]
        if len(nz):
            return lo, start + int(nz[-1]) + 1
        hi = start


def _wrap(val: int, arr: np.ndarray, bound: int, step: int) -> "LaurentPoly":
    """A polynomial on `arr`, already trimmed and in its canonical dtype."""
    p = object.__new__(LaurentPoly)
    arr.setflags(write=False)
    p.val = val
    p.step = step
    p.coeffs = arr
    p._bound = bound
    return p


def _make(val: int, arr: np.ndarray, bound: int | None = None,
          step: int = 1) -> "LaurentPoly":
    """The polynomial sum(arr[i] A^(val+step*i)), trimmed and in canonical dtype.

    ``bound`` is a proved upper bound on max|arr|.  When it is missing or does
    not show that the coefficients fit int64, the exact maximum is computed
    and decides the dtype.  The result may share memory with `arr`.
    """
    lo, hi = _nonzero_range(arr)
    if lo == hi:
        return LaurentPoly.zero()
    arr = arr[lo:hi]
    if bound is None or bound >= _INT64_BOUND:
        bound = _max_abs(arr)
        dtype = _dtype(bound)
        if arr.dtype != dtype:
            arr = arr.astype(dtype)
    return _wrap(val + lo * step, arr, bound, step)


def _lattice(p: "LaurentPoly") -> int:
    """p's step for a gcd; 0 when p has at most one term and fits any lattice."""
    return p.step if len(p.coeffs) > 1 else 0


def _spread(arr: np.ndarray, k: int) -> np.ndarray:
    """arr with k - 1 zeros between neighbours: from step s to step s/k."""
    if k == 1 or len(arr) <= 1:
        return arr
    out = np.zeros((len(arr) - 1) * k + 1, dtype=arr.dtype)
    out[::k] = arr
    return out


def _on(p: "LaurentPoly", step: int) -> np.ndarray:
    """p's coefficients on the finer lattice `step`, which divides p's."""
    return _spread(p.coeffs, p.step // step) if p.step != step else p.coeffs


def _common(a: "LaurentPoly", b: "LaurentPoly", offset: int = 0):
    """(s, x, y): a lattice s holding both a and b shifted by `offset`, with
    their coefficients on it.  Equal steps with the offset on the lattice
    take no gcd and no copy."""
    s = a.step
    if b.step == s and not offset % s:
        return s, a.coeffs, b.coeffs
    s = math.gcd(_lattice(a), _lattice(b), offset) or s
    return s, _on(a, s), _on(b, s)


_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.setflags(write=False)


class LaurentPoly:
    """An integer Laurent polynomial: coefficients on an exponent lattice.

    ``coeffs[i]`` is the coefficient of A^(val + step*i); the stored array
    never has a zero first or last entry.  The constructor stores step 1.
    Equality is exponent-by-exponent, whatever the steps.

    >>> LaurentPoly(-2, (1, 0, 3, 0, -1))
    LaurentPoly('-A^2 + 3 + A^-2')
    >>> LaurentPoly(0, ()).is_zero()
    True
    """

    # _bound >= max |coeffs|, proved by the operation that built the value.
    __slots__ = ("val", "step", "coeffs", "_bound")

    def __init__(self, val: int, coeffs: Sequence[int]):
        try:
            arr = np.array(coeffs, dtype=np.int64)
        except OverflowError:
            arr = np.array(coeffs, dtype=object)
        p = _make(val, arr)
        self.val, self.step, self.coeffs, self._bound = p.val, p.step, p.coeffs, p._bound

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _wrap(0, _EMPTY, 0, 1)

    @staticmethod
    def one() -> "LaurentPoly":
        return _wrap(0, np.ones(1, dtype=np.int64), 1, 1)

    @staticmethod
    def monomial(coeff: int, exponent: int) -> "LaurentPoly":
        return LaurentPoly(exponent, (coeff,))

    @staticmethod
    def from_terms(terms: Iterable[tuple[int, int]]) -> "LaurentPoly":
        """Build from (exponent, coefficient) pairs; repeats accumulate."""
        sums: dict[int, int] = {}
        for e, c in terms:
            sums[e] = sums.get(e, 0) + c
        sums = {e: c for e, c in sums.items() if c}
        if not sums:
            return LaurentPoly.zero()
        lo = min(sums)
        bound = max(abs(c) for c in sums.values())
        out = np.zeros(max(sums) - lo + 1, dtype=_dtype(bound))
        out[np.array([e - lo for e in sums], dtype=np.int64)] = list(sums.values())
        return _wrap(lo, out, bound, 1)

    # -- inspection -----------------------------------------------------

    def is_zero(self) -> bool:
        return not len(self.coeffs)

    @property
    def mindeg(self) -> int:
        if not len(self.coeffs):
            raise ValueError("the zero polynomial has no degree")
        return self.val

    @property
    def maxdeg(self) -> int:
        if not len(self.coeffs):
            raise ValueError("the zero polynomial has no degree")
        return self.val + (len(self.coeffs) - 1) * self.step

    def support(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) for every nonzero term, ascending."""
        v, s = self.val, self.step
        nz = self.coeffs.nonzero()[0]
        for i, c in zip(nz.tolist(), self.coeffs[nz].tolist()):
            yield v + s * i, c

    def num_terms(self) -> int:
        return int(np.count_nonzero(self.coeffs))

    def coefficient(self, exponent: int) -> int:
        i, off = divmod(exponent - self.val, self.step)
        if not off and 0 <= i < len(self.coeffs):
            return int(self.coeffs[i])
        return 0

    def max_abs_coeff(self) -> int:
        if not len(self.coeffs):
            return 0
        return _max_abs(self.coeffs)

    def abs_coeff_sum(self) -> int:
        """Sum of |coefficients|; bounds |P(z)| on the unit circle."""
        arr = self.coeffs
        if len(arr) * self._bound >= _INT64_BOUND:
            arr = arr.astype(object)
        return int(np.abs(arr).sum())

    # -- ring operations ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if self.step != other.step and len(a) > 1 and len(b) > 1:
            # Neither step need be the coarsest lattice of the support, so
            # compare the ends, then both arrays on the common finer lattice.
            if (self.val != other.val or self.maxdeg != other.maxdeg
                    or a.dtype != b.dtype):
                return False
            g = math.gcd(self.step, other.step)
            a, b = _on(self, g), _on(other, g)
        elif self.val != other.val or len(a) != len(b) or a.dtype != b.dtype:
            return False  # the dtype is a function of the value
        if a.dtype == object:
            return bool((a == b).all())
        return a.tobytes() == b.tobytes()

    __hash__ = None  # compare by value; not usable as a dict key

    def __bool__(self) -> bool:
        return bool(len(self.coeffs))

    def __neg__(self) -> "LaurentPoly":
        return _wrap(self.val, -self.coeffs, self._bound, self.step)

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not len(self.coeffs):
            return other
        if not len(other.coeffs):
            return self
        va, vb = self.val, other.val
        s, a, b = _common(self, other, vb - va)
        lo = min(va, vb)
        i, j = (va - lo) // s, (vb - lo) // s
        bound = self._bound + other._bound
        out = np.zeros(max(i + len(a), j + len(b)), dtype=_dtype(bound))
        out[i: i + len(a)] = a
        out[j: j + len(b)] += b
        return _make(lo, out, bound, s)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return self.scale_shift(other, 0)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not len(self.coeffs) or not len(other.coeffs):
            return LaurentPoly.zero()
        a, b = self, other
        if len(a.coeffs) > len(b.coeffs):
            a, b = b, a
        la, lb = len(a.coeffs), len(b.coeffs)
        if la * lb <= np.count_nonzero(a.coeffs) * (lb + _TERM_COST):
            # Dense enough to convolve, on the lattice gcd(step_a, step_b).
            # Every output coefficient sums at most la nonzero products (the
            # lattice change adds only zeros), each bounded by the product
            # of the bounds.  The extreme products
            # are nonzero, so the result needs no trimming.
            s, x, y = _common(a, b)
            bound = la * a._bound * b._bound
            if bound < _INT64_BOUND:
                return _wrap(a.val + b.val, np.convolve(x, y), bound, s)
            # One object operand makes numpy convolve on Python ints.
            return _make(a.val + b.val, np.convolve(x.astype(object), y), step=s)
        nz = a.coeffs.nonzero()[0]
        acc = PolyAccumulator()
        acc.hint_bounds(a.val + b.val, a.maxdeg + b.maxdeg + 1)
        for i, c in zip(nz.tolist(), a.coeffs[nz].tolist()):
            acc.add(c, a.val + a.step * i, b)
        return acc.result()

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of a general Laurent polynomial")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale_shift(self, coeff: int, shift: int) -> "LaurentPoly":
        """coeff * A^shift * self; shares the coefficient array when coeff = 1."""
        if coeff == 0 or not len(self.coeffs):
            return LaurentPoly.zero()
        if coeff == 1:
            return _wrap(self.val + shift, self.coeffs, self._bound, self.step)
        bound = abs(int(coeff)) * self._bound
        if bound < _INT64_BOUND:
            return _wrap(self.val + shift, self.coeffs * coeff, bound, self.step)
        return _make(self.val + shift, self.coeffs.astype(object) * coeff, step=self.step)

    def exact_divide(self, b: "LaurentPoly") -> "LaurentPoly":
        """Return q with self = q * b exactly, else raise NotDivisible.

        Long division against the top term of b, on Python ints and on the
        lattice gcd(step_self, step_b), which holds q whenever q exists;
        every intermediate coefficient quotient must be an exact integer and
        the remainder must vanish.

        >>> (quantum_integer(3) + 1).exact_divide(quantum_integer(2))
        LaurentPoly('A^2 + A^-2')
        """
        if b.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        s, x, y = _common(self, b)
        nb = len(y)
        if len(x) < nb:
            raise NotDivisible("degree span smaller than the divisor's")
        rem = x.tolist()
        btop = int(y[-1])
        nz = y.nonzero()[0]
        terms = list(zip(nz.tolist(), y[nz].tolist()))
        q = [0] * (len(rem) - nb + 1)
        for k in range(len(rem) - 1, nb - 2, -1):
            c = rem[k]
            if not c:
                continue
            cq, r = divmod(c, btop)
            if r:
                raise NotDivisible("leading coefficient does not divide")
            pos = k - (nb - 1)
            q[pos] = cq
            for j, d in terms:
                rem[pos + j] -= cq * d
        if any(rem):
            raise NotDivisible("nonzero remainder")
        # q has nonzero ends: times the ends of b they give the ends of self.
        bound = max(max(q), -min(q))
        return _wrap(self.val - b.val, np.array(q, dtype=_dtype(bound)), bound, s)

    def derivative(self) -> "LaurentPoly":
        """d/dA, termwise: c*A^k -> c*k*A^(k-1)."""
        n = len(self.coeffs)
        if n == 0:
            return self
        v, s = self.val, self.step
        bound = self._bound * max(abs(v), abs(v + (n - 1) * s))
        # Object exponents make numpy multiply on Python ints.
        exponents = np.arange(v, v + n * s, s, dtype=_dtype(bound))
        return _make(v - 1, self.coeffs * exponents, bound, s)

    def mirror(self) -> "LaurentPoly":
        """Substitute A -> A^(-1): the coefficient of A^k moves to A^(-k)."""
        if not len(self.coeffs):
            return self
        return _wrap(-self.maxdeg, self.coeffs[::-1], self._bound, self.step)

    def eval_at_root(self, pt: RootOfUnityPoint) -> complex:
        """Evaluate at A0 = exp(i*pi/2N) by exact residue-class reduction.

        The coefficients are summed exactly per residue class of the
        exponent mod 4N before any floating-point work, so exponent
        magnitude never costs precision; one dot product with the powers of
        A0 finishes.
        """
        order = pt.order
        start, sums = self._residue_sums(order)
        s = self.step
        if order % s:
            powers = pt.powers()[(start + s * np.arange(len(sums))) % order]
        else:
            powers = pt.powers()[start: start + s * len(sums): s]
        return complex(np.dot(sums, powers))

    def _residue_sums(self, order: int) -> tuple[int, np.ndarray]:
        """(start, sums): sums[j] is the exact sum of the coefficients whose
        exponent is congruent to start + step*j mod `order`.

        Exponents val + step*i repeat mod `order` with period
        width = order / gcd(step, order) in i, so the array is folded into
        rows of `width` columns and summed down the columns.
        """
        arr = self.coeffs
        s = self.step
        width = order if s == 1 else order // math.gcd(s, order)
        rows, tail = divmod(len(arr), width)
        # A column sums at most rows + 1 coefficients.
        if (rows + 1) * self._bound >= _INT64_BOUND:
            arr = arr.astype(object)
        if rows:
            sums = arr[: rows * width].reshape(rows, width).sum(axis=0)
            sums[:tail] += arr[rows * width:]
        else:
            sums = arr
        return self.val % order, sums

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        """{"variable": "A", "terms": [[exp, "coeff"], ...]} by descending exponent."""
        terms = [[e, str(c)] for e, c in self.support()]
        terms.reverse()
        return {"variable": "A", "terms": terms}

    @staticmethod
    def from_json_dict(data: dict) -> "LaurentPoly":
        if data.get("variable") != "A":
            raise ValueError("expected a polynomial in the variable A")
        return LaurentPoly.from_terms((int(e), int(c)) for e, c in data["terms"])

    def __str__(self) -> str:
        if not len(self.coeffs):
            return "0"
        parts = []
        for e, c in reversed(list(self.support())):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                a = "A" if e == 1 else f"A^{e}"
                body = a if mag == 1 else f"{mag}{a}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


def quantum_integer(n: int) -> LaurentPoly:
    """The quantum integer [n] = A^(2(n-1)) + A^(2(n-3)) + ... + A^(-2(n-1)).

    [0] = 0 and [-n] = -[n]; [n] is the value of the unknot colored with the
    n-dimensional representation.

    >>> quantum_integer(2)
    LaurentPoly('A^2 + A^-2')
    >>> quantum_integer(-3)
    LaurentPoly('-A^4 - 1 - A^-4')

    It is stored on step 4, one entry per term:

    >>> q = quantum_integer(3)
    >>> q.val, q.step, q.coeffs.tolist()
    (-4, 4, [1, 1, 1])
    """
    if n == 0:
        return LaurentPoly.zero()
    sign = 1 if n > 0 else -1
    n = abs(n)
    return _wrap(-2 * (n - 1), np.full(n, sign, dtype=np.int64), 1, 4)


class PolyAccumulator:
    """Streaming sum of terms coeff * A^shift * poly on a strided buffer.

    The buffer takes its lattice from the first term and grows geometrically
    as terms arrive, so a long cabling sum costs one vectorized slice add per
    term and never holds more than the running total plus the current term.
    A later term off that lattice refines the buffer once to the gcd lattice;
    a term on a coarser lattice adds into a strided slice.  The buffer stays
    int64 while the running bound sum(|coeff| * bound(poly)) is below 2^62
    and moves to Python ints once that bound is crossed.
    """

    __slots__ = ("_buf", "_lo", "_step", "_bound", "_hint")

    def __init__(self):
        self._buf = None
        self._lo = 0      # exponent of _buf[0]
        self._step = 1    # _buf[i] is the coefficient of A^(_lo + _step*i)
        self._bound = 0
        self._hint = None

    def _start(self, lo: int, hi: int, step: int):
        """First allocation, on the lattice lo + step*Z: covers [lo, hi) and
        the hinted range."""
        if self._hint is not None:
            hint_lo, hint_hi = self._hint
            if hint_lo < lo:
                lo -= -(-(lo - hint_lo) // step) * step
            hi = max(hi, hint_hi)
        n = -(-(hi - lo) // step)
        margin = max(16, n // 4)
        self._step = step
        self._lo = lo - margin * step
        self._buf = np.zeros(n + 2 * margin, dtype=_dtype(self._bound))

    def _ensure(self, lo: int, hi: int):
        """Cover exponents [lo, hi); lo lies on the buffer's lattice."""
        s = self._step
        cur_hi = self._lo + len(self._buf) * s
        # A read-only buffer is shared with an earlier result: copy it first.
        if lo >= self._lo and hi <= cur_hi and self._buf.flags.writeable:
            return
        new_lo = min(lo, self._lo)
        new_hi = max(hi, cur_hi)
        margin = max(16, (new_hi - new_lo) // (2 * s)) * s
        if lo < self._lo:
            new_lo -= margin
        if hi > cur_hi:
            new_hi += margin
        grown = np.zeros(-(-(new_hi - new_lo) // s), dtype=self._buf.dtype)
        off = (self._lo - new_lo) // s
        grown[off: off + len(self._buf)] = self._buf
        self._buf = grown
        self._lo = new_lo

    def hint_bounds(self, lo: int, hi: int):
        """Size the first allocation to cover [lo, hi); purely an optimization."""
        if hi > lo:
            self._hint = (lo, hi)

    def add(self, coeff: int, shift: int, poly: LaurentPoly):
        if coeff == 0 or poly.is_zero():
            return
        self._bound += abs(int(coeff)) * poly._bound
        lo = shift + poly.val
        n = len(poly.coeffs)
        ps = _lattice(poly)
        hi = lo + (n - 1) * ps + 1
        if self._buf is None:
            self._start(lo, hi, poly.step)
        s = self._step
        if ps % s or (lo - self._lo) % s:
            # Refine to the gcd lattice.  Trim the buffer to its nonzero
            # range first, so the spread does not carry the coarse margins.
            g = math.gcd(s, ps, lo - self._lo)
            i, j = _nonzero_range(self._buf)
            self._lo = self._lo + i * s if i < j else lo
            self._buf = _spread(self._buf[i:j], s // g)
            self._step = s = g
        self._ensure(lo, hi)
        if self._buf.dtype != object and self._bound >= _INT64_BOUND:
            self._buf = self._buf.astype(object)
        o = (lo - self._lo) // s
        k = ps // s or 1
        arr = poly.coeffs
        view = self._buf[o: o + (n - 1) * k + 1: k]
        if coeff == 1:
            view += arr
        elif coeff == -1:
            view -= arr
        else:
            view += arr.astype(self._buf.dtype, copy=False) * coeff

    def result(self) -> LaurentPoly:
        if self._buf is None:
            return LaurentPoly.zero()
        # The result shares the buffer, so a later add works on a copy.
        self._buf.flags.writeable = False
        return _make(self._lo, self._buf, self._bound, self._step)


def divide_by_quantum_integer(a: LaurentPoly, n: int) -> LaurentPoly:
    """Exact division a / [n] for n >= 1, in time linear in the span of a.

    Uses [n] = (A^(2n) - A^(-2n)) / (A^2 - A^(-2)): multiply by the small
    binomial, divide by the large one.  Equivalent to
    ``a.exact_divide(quantum_integer(n))`` including the NotDivisible
    behaviour, but does not touch every (quotient term, divisor term) pair.
    """
    if n < 1:
        raise ValueError("divisor color must be >= 1")
    if n == 1 or a.is_zero():
        return a
    # Work on the lattice g = gcd(step, 4), which holds a, [n] and the
    # quotient.  num = a * (A^2 - A^-2) starts at A^(val - 2); A^2 is 4/g
    # entries above A^-2.  Dividing num by A^(-2n) (A^(4n) - 1) unrolls
    # q[i] = q[i - 4n/g] - num[i] in one ascending pass: q is minus the
    # running sums down each of 4n/g columns, and its top 4n/g entries are
    # the remainder.
    g = math.gcd(_lattice(a), 4)
    arr = _on(a, g)
    shift = 4 // g
    width = 4 * n // g
    span = len(arr) + shift
    if span <= width:
        raise NotDivisible("degree span smaller than the divisor's")
    rows = -(-span // width)
    # A running sum adds at most `rows` entries of num, each at most 2 bound(a).
    bound = rows * 2 * a._bound
    buf = np.zeros(rows * width, dtype=_dtype(bound))
    buf[shift:span] = arr
    buf[:span - shift] -= arr
    grid = buf.reshape(rows, width)
    np.cumsum(grid, axis=0, out=grid)
    qlen = span - width
    if buf[qlen:span].any():
        raise NotDivisible("nonzero remainder")
    q = buf[:qlen]
    np.negative(q, out=q)
    return _make(a.val - 2 + 2 * n, q, bound, g)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
