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
step 4, and so do the dense J that jones.colored_jones materializes from
the engine's sparse numerator and a connected sum's product buffer, whose
exponents differ by multiples of 4: each stores a quarter of the entries a
dense array would.  Values built from explicit terms start on step 1; a
value read back from JSON takes the gcd of its exponent differences as its
step.

The engine's values are nearly contiguous on their lattice, but a value
built from a few terms far apart is not.  Such a value also carries its
support, _nz: the ascending int64 indices of its nonzero entries, kept when
it is sparse (_is_sparse: a pass over the terms costs less than one over
the array) and the operation that built it knew the support at no cost.
_from_sums (from_terms, from_json_dict) sets it, a sparse product sets it
to the distinct sums of the two supports that survive cancellation, mirror
reverses it, and negation and scale_shift keep it; every other operation
stores None.  The coefficients stay in the one dense array either way, and
_terms reads a value's terms: the carried support, or one scan of the
array.  A product, an evaluation at A0, equality, support() and
num_terms() of a carrier cost its terms, apart from the zeroed buffer a
product allocates and any spread onto a common finer lattice; any other
value takes the paths below.

A binary operation first aligns its operands on the lattice
gcd(step_a, step_b) with _common.  A product then decides once, from both
factors' aligned lengths la, lb and term counts ta, tb: it convolves, at
la lb multiply-adds, unless _add_product costs less, at
min(ta tb _SCATTER_COST + _TERM_COST, ta (lb + _TERM_COST),
tb (la + _TERM_COST)).  That kernel adds the products of the two supports
into one buffer of the product's exact length, in the dtype fixed up front
by sum |c| over the factor of fewer terms times the other's bound, in
whichever way counts fewer operations: scattering every product with
np.add.at, or one slice add of one factor, spread dense, per term of the
other.  Its product carries its support when _is_sparse(ta tb, la + lb - 1)
holds; a product that convolves never passes that test, as
la lb >= la + lb - 1.  The cabling engine's connected sums use the same
kernel.

Evaluation at the root of unity A0 = exp(i*pi/2N) first sums the
coefficients exactly per residue class of the exponent mod 4N, so
polynomials of huge degree lose no precision before the single final dot
product with the powers of A0.  Both kinds of value take one flow: a dense
array folds into sums on its own step (_residue_sums), a carrier scatters
its terms into 4N sums on step 1, and from there the same slice or gather
of the powers, the same rounding-bound test and the same exact fallback
serve both.  Whether a value at A0 is 0 is decided exactly, in one place:
_exact_value takes 4N integer residue columns to their coordinates in a
Z-basis of Z[A0], which all vanish exactly when the value does.
eval_at_root takes a value from it whenever the float dot is within 2^30
times its rounding bound of 0, or when the sums could leave the float
range, so there is no tolerance to set; integers past the float range
reach a float only as the value itself, or as their quotient by an exact
divisor that _exact_value takes before its dot.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "ComputationError",
    "LaurentPoly",
    "NotDivisible",
    "RootOfUnityPoint",
    "divide_by_quantum_integer",
    "quantum_integer",
]

# Every int64 intermediate is proved to stay below this in absolute value;
# coefficients at or above it live in dtype=object arrays.
_INT64_BOUND = 1 << 62

# A product calls the sparse kernel when its convolution would cost more
# multiply-adds than the kernel, with the Python overhead of a term, or of
# one scatter, counted as this many multiply-adds.
_TERM_COST = 2048

# The sparse path scatters when that counts fewer operations than shifted
# adds, with one np.add.at product counted as this many slice-add entries.
# Both costs grow alike once the buffer leaves the cache: on connected sums
# of 2.5k to 1M entries the break-even lay between 7 and 26 entries, median
# 12, with no trend in the size (2-core x86-64 VM, numpy 2.4)...
_SCATTER_COST = 12
# ...in chunks of at most about this many products, whose index and product
# arrays (1 MB) stay in the cache; 1M-product chunks took twice as long.
_SCATTER_CHUNK = 1 << 16

# Support scans take (arr != 0).nonzero() from this many entries on, which
# beats arr.nonzero() on wide int64 arrays and loses on short ones.
_MASK_MIN = 400


class ComputationError(Exception):
    """Base of every error in which a well-formed input fails to compute.

    Each subclass also keeps its own standard base (ArithmeticError or
    ValueError); the CLI maps this class to exit code 1.
    """


class NotDivisible(ComputationError, ArithmeticError):
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


@functools.lru_cache(maxsize=64)
def _integral_basis(n: int) -> tuple:
    """(index, steps, basis): how 4n residue columns become their integer
    coordinates in a Z-basis of Z[A0], A0 = A0(n).

    Write 4n = prod q with q = p^e.  As the q are coprime, r = sum (4n/q) r_q
    mod 4n runs once over every residue as each r_q runs below q (the CRT),
    and A0^r = prod w_q^(r_q) for the primitive q-th roots w_q = A0^(4n/q).
    So columns[index] holds each column at (r_q) on one axis per q, each
    axis split as (p, q/p).  The p-th roots of unity sum to 0, so
    w^((p-1) q/p + s) = -sum_{t < p-1} w^(t q/p + s): for each
    (before, p, after) in steps, row p - 1 of that axis is subtracted from
    the others.  What is left are the coordinates on the basis
    prod w_q^(j_q), j_q < phi(q), whose values are `basis`.  For n a power
    of two the index is the identity and the one step is the fold by
    A0^(2n) = -1.
    """
    m = 4 * n
    factors, rest, p = [], m, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        q = 1
        while rest % p == 0:
            rest //= p
            q *= p
        if q > 1:
            factors.append((p, q))
        p += 1
    index = np.zeros((), dtype=np.int64)
    for p, q in factors:
        index = (index[..., None] + m // q * np.arange(q)) % m
    index = index.reshape(-1)
    steps, kept, before, rest = [], index, 1, m
    for p, q in factors:
        steps.append((before, p, rest // p))
        kept = kept.reshape(before, p, rest // p)[:, :p - 1]
        before *= q - q // p
        rest //= q
    basis = _doubled_powers(n)[kept.reshape(-1)]
    basis.setflags(write=False)
    if len(factors) == 1:  # the identity, taken as a view
        index = slice(None)
    return index, tuple(steps), basis


def _exact_value(columns: np.ndarray, n: int, divisor: int = 1) -> complex:
    """sum_r columns[r] A0(n)^r / divisor over 4n exact integer columns, with
    no tolerance: 0j when that sum is 0.

    The columns become their coordinates in a Z-basis of Z[A0] (see
    _integral_basis), which are all 0 exactly when the sum is, and then 0j
    is returned before any float work.  Otherwise one dot with the basis
    values gives the value.  As A0^(2n) = -1, the columns also fold to
    columns[r] - columns[r + 2n] for r < 2n, whose dot with A0^r is the
    same value.  A dot's rounding bound grows with the sum of the
    |integers| it takes, so the fold's dot is taken when that sum is the
    smaller one.  When 4n has an odd prime factor the coordinates are often
    the larger, and their dot loses digits; but a value with few small
    coordinates stays exact (1 + Phi_12 at A0(3) is 1).  Python ints are
    each divided by `divisor` before the dot, exactly rounded, so a quotient
    in the float range comes out of integers past it; int64 coordinates are
    divided after it.  Every intermediate is a +-1 sum of distinct columns,
    so int64 columns with sum |columns| below 2^62 do not overflow.
    """
    index, steps, basis = _integral_basis(n)
    t = columns[index]
    for before, p, after in steps:
        t = t.reshape(before, p, after)
        t = t[:, :p - 1] - t[:, p - 1:]
    t = t.reshape(-1)
    if not np.count_nonzero(t):
        return 0j
    if len(steps) > 1:  # for n a power of two the coordinates are the fold
        fold = columns[:2 * n] - columns[2 * n:]
        # Python ints sum exactly; int64 sums in floats, as a column counts
        # in many coordinates and an int64 sum of |t| could wrap.
        kind = object if columns.dtype == object else float
        if np.abs(fold).sum(dtype=kind) < np.abs(t).sum(dtype=kind):
            t, basis = fold, _doubled_powers(n)[:2 * n]
    if divisor != 1 and t.dtype == object:
        t, divisor = t / divisor, 1
    return complex(np.dot(t, basis)) / divisor


def _dtype(bound: int):
    """The dtype in which values bounded by `bound` are computed."""
    return np.int64 if bound < _INT64_BOUND else object


def _max_abs(arr: np.ndarray) -> int:
    """Exact max |c| over a nonempty array, as a Python int."""
    return max(-int(arr.min()), int(arr.max()))


def _support(arr: np.ndarray) -> np.ndarray:
    """The ascending indices of arr's nonzero entries."""
    if len(arr) < _MASK_MIN:
        return arr.nonzero()[0]
    return (arr != 0).nonzero()[0]


def _nonzero_range(arr: np.ndarray) -> tuple[int, int]:
    """(lo, hi) such that arr[lo:hi] runs from the first to the last nonzero.

    Arrays trimmed here nearly always end in nonzeros, which the first test
    takes; any other costs one scan.
    """
    n = len(arr)
    if n and arr[0] and arr[-1]:
        return 0, n
    nz = _support(arr)
    if not len(nz):
        return 0, 0
    return int(nz[0]), int(nz[-1]) + 1


def _wrap(val: int, arr: np.ndarray, bound: int, step: int,
          nz: np.ndarray | None = None) -> "LaurentPoly":
    """A polynomial on `arr`, already trimmed and in its canonical dtype,
    carrying `nz`, arr's support, when it is sparse (see _is_sparse)."""
    p = object.__new__(LaurentPoly)
    arr.setflags(write=False)
    p.val = val
    p.step = step
    p.coeffs = arr
    p._bound = bound
    p._nz = nz
    return p


def _make(val: int, arr: np.ndarray, bound: int | None = None,
          step: int = 1, nz: np.ndarray | None = None) -> "LaurentPoly":
    """The polynomial sum(arr[i] A^(val+step*i)), trimmed and in canonical dtype.

    ``bound`` is a proved upper bound on max|arr|.  When it is missing or does
    not show that the coefficients fit int64, the exact maximum is computed
    and decides the dtype.  ``nz``, when given, is arr's support, which holds
    arr's first and last entries, and the result carries it.  The result may
    share memory with `arr`.
    """
    lo, hi = _nonzero_range(arr)
    if lo == hi:
        return LaurentPoly.zero()
    arr = arr[lo:hi]
    if bound is None or bound >= _INT64_BOUND:
        bound = _max_abs(arr if nz is None else arr[nz])
        dtype = _dtype(bound)
        if arr.dtype != dtype:
            arr = arr.astype(dtype)
    return _wrap(val + lo * step, arr, bound, step, nz)


def _is_sparse(terms: int, length: int) -> bool:
    """Whether an array of `length` entries with `terms` nonzero ones is
    sparse: a pass over its support, each term counted as one scattered
    product, plus one term's Python overhead, costs less than a pass over
    the array.  Sparse polynomials carry their support."""
    return terms * _SCATTER_COST + _TERM_COST < length


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


def _terms(p: "LaurentPoly", arr: np.ndarray, step: int) -> np.ndarray:
    """The ascending indices of p's terms in arr, p's coefficients on the
    lattice `step`, which divides p's: its carried support, or one scan."""
    if p._nz is None:
        return _support(arr)
    return p._nz * (p.step // step) if p.step != step else p._nz


def _common(a: "LaurentPoly", b: "LaurentPoly", offset: int = 0):
    """(s, x, y): a lattice s holding both a and b shifted by `offset`, with
    their coefficients on it.  Equal steps with the offset on the lattice
    take no gcd and no copy."""
    s = a.step
    if b.step == s and not offset % s:
        return s, a.coeffs, b.coeffs
    s = math.gcd(_lattice(a), _lattice(b), offset) or s
    return s, _spread(a.coeffs, a.step // s), _spread(b.coeffs, b.step // s)


def _add_shifted(out: np.ndarray, offsets: list, coeffs: list, y: np.ndarray):
    """out[i: i + len(y)] += c * y for each offset i and coefficient c.

    One slice add per term, with no multiply for c = +-1 and one scratch
    buffer for the others; y must be in out's dtype, and the caller proves
    that every sum and every c * y fits it.
    """
    ly = len(y)
    tmp = None
    for i, c in zip(offsets, coeffs):
        view = out[i: i + ly]
        if c == 1:
            view += y
        elif c == -1:
            view -= y
        else:
            if tmp is None:
                tmp = np.empty_like(y)
            view += np.multiply(y, c, out=tmp)


def _add_product(out: np.ndarray, ka: np.ndarray, ca: np.ndarray,
                 kb: np.ndarray, cb: np.ndarray):
    """out[ka[i] + kb[j]] += ca[i] cb[j] for every i, j: the product of two
    sparse polynomials, as ascending lattice indices and nonzero
    coefficients in out's dtype.

    The caller proves that sum |ca| * max |cb| fits out's dtype.  An entry
    of out sums distinct products, at most one per term of a, so every
    partial sum and every product lies within that, in either regime.  The
    operation count, in slice-add entries, picks the regime:
      * scatter, np.add.at over the outer product: la lb _SCATTER_COST;
      * shifted adds of b spread dense, one per term of a:
        la (span_b + _TERM_COST), or the same with a and b swapped.
    """
    da = len(ka) * (int(kb[-1]) + 1 + _TERM_COST)
    db = len(kb) * (int(ka[-1]) + 1 + _TERM_COST)
    if len(ka) * len(kb) * _SCATTER_COST <= min(da, db):
        if len(ka) < len(kb):
            ka, ca, kb, cb = kb, cb, ka, ca
        rows = max(1, _SCATTER_CHUNK // len(kb))
        for i in range(0, len(ka), rows):
            np.add.at(out, (ka[i: i + rows, None] + kb).ravel(),
                      (ca[i: i + rows, None] * cb).ravel())
        return
    if db < da:
        ka, ca, kb, cb = kb, cb, ka, ca
    dense = np.zeros(int(kb[-1]) + 1, dtype=out.dtype)
    dense[kb] = cb
    _add_shifted(out, ka.tolist(), ca.tolist(), dense)


def _divide_binomial(buf: np.ndarray, span: int, width: int) -> np.ndarray:
    """The quotient q of p = buf[:span], a polynomial in x, by x^width - 1.

    ``buf`` holds p followed by zeros up to a multiple of `width` entries,
    and is overwritten; span > width.  p = (x^width - 1) q unrolls to
    q[i] = q[i - width] - p[i] in one ascending pass: q is minus the running
    sums down each of `width` columns, and the top `width` running sums are
    the remainder, which must vanish.  Every entry is one running sum, so a
    bound on those proves the dtype of buf.  Returns a view of buf.
    """
    grid = buf.reshape(-1, width)
    np.cumsum(grid, axis=0, out=grid)
    qlen = span - width
    if buf[qlen:span].any():
        raise NotDivisible("nonzero remainder")
    q = buf[:qlen]
    np.negative(q, out=q)
    return q


def _sum_terms(terms: Iterable[tuple[int, int]]) -> dict[int, int]:
    """{exponent: coefficient} of (exponent, coefficient) pairs, zeros dropped."""
    sums: dict[int, int] = {}
    for e, c in terms:
        sums[e] = sums.get(e, 0) + c
    return {e: c for e, c in sums.items() if c}


def _from_sums(sums: dict[int, int], step: int) -> "LaurentPoly":
    """The polynomial of {exponent: nonzero coefficient} on a lattice
    `step` that holds every exponent."""
    if not sums:
        return LaurentPoly.zero()
    lo = min(sums)
    bound = max(map(abs, sums.values()))
    n = (max(sums) - lo) // step + 1
    out = np.zeros(n, dtype=_dtype(bound))
    nz = np.array([(e - lo) // step for e in sums], dtype=np.int64)
    out[nz] = list(sums.values())
    return _wrap(lo, out, bound, step, np.sort(nz) if _is_sparse(len(sums), n) else None)


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

    # _bound >= max |coeffs|, proved by the operation that built the value;
    # _nz is the support of a sparse value when that operation knew it, or
    # None.
    __slots__ = ("val", "step", "coeffs", "_bound", "_nz")

    def __init__(self, val: int, coeffs: Sequence[int]):
        try:
            arr = np.array(coeffs, dtype=np.int64)
        except OverflowError:
            arr = np.array(coeffs, dtype=object)
        p = _make(val, arr)
        self.val, self.step, self.coeffs, self._bound = p.val, p.step, p.coeffs, p._bound
        self._nz = None

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
        """Build from (exponent, coefficient) pairs on step 1; repeats accumulate."""
        return _from_sums(_sum_terms(terms), 1)

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
        nz = _terms(self, self.coeffs, s)
        for i, c in zip(nz.tolist(), self.coeffs[nz].tolist()):
            yield v + s * i, c

    def num_terms(self) -> int:
        return len(_terms(self, self.coeffs, self.step))

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
        if self.val != other.val or self.coeffs.dtype != other.coeffs.dtype:
            return False  # the dtype is a function of the value
        s, a, b = self.step, self.coeffs, other.coeffs
        if other.step != s:  # equal steps skip the call: equality is hot
            s, a, b = _common(self, other)
        if len(a) != len(b):
            return False
        if self._nz is not None and other._nz is not None:
            k = _terms(self, a, s)
            return (k.tolist() == _terms(other, b, s).tolist()
                    and a[k].tolist() == b[k].tolist())
        if a.dtype == object:
            return bool((a == b).all())
        return a.tobytes() == b.tobytes()

    __hash__ = None  # compare by value; not usable as a dict key

    def __bool__(self) -> bool:
        return bool(len(self.coeffs))

    def __neg__(self) -> "LaurentPoly":
        return _wrap(self.val, -self.coeffs, self._bound, self.step, self._nz)

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
        s, x, y = _common(a, b)
        la, lb = len(x), len(y)
        # Each factor has a term, so the kernel costs more than _TERM_COST
        # and the first test needs no count.
        if la * lb > _TERM_COST:
            ka, kb = _terms(a, x, s), _terms(b, y, s)
            ta, tb = len(ka), len(kb)
            if la * lb > min(ta * tb * _SCATTER_COST + _TERM_COST,
                             ta * (lb + _TERM_COST), tb * (la + _TERM_COST)):
                # The factor of fewer terms goes first.  Each output
                # coefficient sums at most one product per term of it, so
                # its sum |c| times bound(b) bounds every partial sum and
                # every product.
                if ta > tb:
                    a, b, x, y, ka, kb = b, a, y, x, kb, ka
                ca = x[ka]
                bound = sum(abs(c) for c in ca.tolist()) * b._bound
                dtype = _dtype(bound)
                out = np.zeros(la + lb - 1, dtype=dtype)
                _add_product(out, ka, ca.astype(dtype, copy=False),
                             kb, y[kb].astype(dtype, copy=False))
                nz = None
                if _is_sparse(ta * tb, len(out)):
                    # The product's support is among the distinct sums of
                    # the two; its ends, the products of the factors' ends,
                    # survive cancellation.
                    nz = np.unique(ka[:, None] + kb)
                    nz = nz[out[nz] != 0]
                return _make(a.val + b.val, out, bound, s, nz)
        # Convolve.  Every output coefficient sums at most min(la, lb)
        # nonzero products, each bounded by the product of the bounds.  The
        # extreme products are nonzero, so the result needs no trimming.
        bound = (la if la < lb else lb) * a._bound * b._bound
        if bound < _INT64_BOUND:
            return _wrap(a.val + b.val, np.convolve(x, y), bound, s)
        # One object operand makes numpy convolve on Python ints.
        return _make(a.val + b.val, np.convolve(x.astype(object), y), step=s)

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
            return _wrap(self.val + shift, self.coeffs, self._bound, self.step, self._nz)
        bound = abs(int(coeff)) * self._bound
        if bound < _INT64_BOUND:
            return _wrap(self.val + shift, self.coeffs * coeff, bound, self.step, self._nz)
        return _make(self.val + shift, self.coeffs.astype(object) * coeff,
                     step=self.step, nz=self._nz)

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
        nz = _terms(b, y, s)
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
        nz = self._nz
        if nz is not None:
            nz = len(self.coeffs) - 1 - nz[::-1]
        return _wrap(-self.maxdeg, self.coeffs[::-1], self._bound, self.step, nz)

    def eval_at_root(self, pt: RootOfUnityPoint) -> complex:
        """Evaluate at A0 = exp(i*pi/2N) by exact residue-class reduction.

        The coefficients are summed exactly per residue class of the
        exponent mod 4N before any floating-point work, so exponent
        magnitude never costs precision: a carried support is scattered
        term by term into 4N sums on step 1, any other array is folded row
        by row on its own step.  One dot product of the sums with the powers
        of A0 finishes.  That dot errs by at most (4N + 64) 2^-52 sum |c|:
        each sum converts and each product rounds within 2^-53 relative,
        each power of A0 lies within 32 * 2^-53 of exact, the sum adds
        (4N - 1) 2^-53 of the total, and the two components double that.
        A value below 2^30 times that bound, or one whose sum |c| could
        leave the float range, is taken again from the exact sums by
        _exact_value, so a zero value is exactly 0j and any other is within
        2^-30 of exact, relative, however much cancels.
        """
        order, s, nz = pt.order, self.step, self._nz
        if nz is None:
            terms = len(self.coeffs)
            start, sums = self._residue_sums(order)
        else:
            # sums[j] sums the terms of exponent start + j mod 4N; one sum
            # takes at most every term.
            terms, start = len(nz), self.val % order
            sums = np.zeros(order, dtype=_dtype(terms * self._bound))
            np.add.at(sums, (s * nz) % order, self.coeffs[nz].astype(sums.dtype, copy=False))
            s = 1
        bound = terms * self._bound  # >= sum |sums|
        # powers() holds two periods, so the powers of A0 at the exponents
        # start + s*j of the sums are powers()[index]: a slice when s
        # divides 4N, as on ring's hot path, else a gather mod 4N.
        if order % s:
            index = (start + s * np.arange(len(sums))) % order
        else:
            index = slice(start, start + s * len(sums), s)
        # Below 2^1000 every float in the dot, and its modulus, is finite.
        # Then |value| >= 2^30 (4N + 64) 2^-52 bound returns it; a float and
        # an int compare exactly, however large the bound.  The zero
        # polynomial's empty dot is exactly 0j and passes.
        if bound < 2.0 ** 1000:
            value = complex(np.dot(sums, pt.powers()[index]))
            if abs(value) * 2.0 ** 22 >= (order + 64) * bound:
                return value
        columns = np.zeros(2 * order, dtype=object)  # sum |columns| may pass 2^62
        columns[index] = sums
        return _exact_value(columns[:order] + columns[order:], pt.N)

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
        # The step is the gcd of the exponent differences, so a value that
        # lived on step 4 comes back on step 4.
        sums = _sum_terms((int(e), int(c)) for e, c in data["terms"])
        lo = min(sums, default=0)
        return _from_sums(sums, math.gcd(*(e - lo for e in sums)) or 1)

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
    # entries above A^-2.  With x = A^g, num = A^(-2n) (x^(4n/g) - 1) q.
    g = math.gcd(_lattice(a), 4)
    arr = _spread(a.coeffs, a.step // g)
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
    return _make(a.val - 2 + 2 * n, _divide_binomial(buf, span, width), bound, g)
