"""Exact max-plus (tropical) scalars and sparse matrices.

The semiring: "plus" is max, "times" is ordinary addition, the additive
identity is the bottom element (minus infinity, written "." or "-inf" in
text formats) and the multiplicative identity is 0.  Every finite value is
an exact rational, stored as a plain int whenever it is integral.  Floats
are rejected on input so all results stay bit-exact.  Rational work runs in
one scaled-integer domain (``common_scale`` and ``scaled_int`` in,
``unscaled`` out, and ``_kernel_result`` out of an array in one
vectorized pass), entered once per call.  There the kernel works on dense
numpy arrays: one max-plus product (``_max_plus_product``, behind
``matrix_mul``, ``matrix_power`` and the evaluation of ``maxplus.csr``
expansions) and one Floyd-Warshall closure (``_max_plus_closure``, behind
``kleene_star``, the dense C/R factors of ``maxplus.csr`` and the star of
the principal eigenvectors in ``maxplus.digraph``).  Every array enters
through ``_kernel_arrays``, whose bound on the results picks int64 or,
above 2^59, Python ints in object arrays, on one code path; callers read
the choice from the arrays' dtype.

A square matrix is also its weighted digraph (``maxplus.digraph`` reads
``entries`` as arcs), and a diagonal scaling is a plain tuple of values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class DimensionMismatchError(ValueError):
    """Incompatible matrix or vector shapes."""


class PositiveCircuitError(ValueError):
    """A Kleene star, or a critical graph below the maximum cycle mean, met a positive circuit."""

    def __init__(self, message="graph has a positive-weight circuit (maximum cycle mean > 0)"):
        super().__init__(message)


def common_scale(*value_groups) -> int:
    """The scaled-integer domain of the given values: the lcm of their denominators.

    Every value in every iterable times the result is an int (see
    ``scaled_int``, and ``unscaled`` for the way back); all-integer inputs
    give 1.
    """
    scale = 1
    for values in value_groups:
        for v in values:
            if not isinstance(v, int):
                scale = math.lcm(scale, v.denominator)
    return scale


def scaled_int(v, scale) -> int:
    """v * scale as an int; ``scale`` must clear v's denominator."""
    if isinstance(v, int):
        return v * scale
    num = v.numerator * scale
    q, r = divmod(num, v.denominator)
    if r:
        raise ValueError("scale does not clear the denominator")
    return q


def unscaled(v: int, scale: int):
    """The inverse of ``scaled_int``: v / scale, an int when it divides, else a Fraction."""
    q, r = divmod(v, scale)
    return Fraction(v, scale) if r else q


def as_value(x):
    """Normalize a finite entry: ints stay ints, integral Fractions collapse to int."""
    if isinstance(x, bool):
        raise TypeError("bool is not a max-plus value")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True, slots=True)
class TropicalScalar:
    """One max-plus value: an exact rational, or the bottom element.

    ``TropicalScalar(x)`` wraps a finite value; ``TropicalScalar(None)`` is
    the bottom element.  Scalars only carry a result (Karp's cycle mean);
    the arithmetic works on raw values and matrices.
    """

    value: object = None  # the finite rational, or None for the bottom element

    def __post_init__(self):
        if self.value is not None:
            object.__setattr__(self, "value", as_value(self.value))

    @property
    def is_epsilon(self) -> bool:
        return self.value is None


EPSILON = TropicalScalar(None)


class TropicalMatrix:
    """Sparse max-plus matrix; entries absent from the map are the bottom element.

    ``entries`` maps ``(row, col)`` to a finite exact rational.  Instances
    are treated as immutable; operations return new matrices.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        self.rows = rows
        self.cols = cols
        clean = {}
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry index ({i}, {j}) out of range")
            clean[(i, j)] = as_value(v)
        self.entries = clean

    @classmethod
    def _trusted(cls, rows, cols, entries):
        """Adopt ``entries`` as it is, skipping the checks of ``__init__``.

        Precondition: ``rows`` and ``cols`` are positive, every key is in
        range, every value is finite and already normalized (``as_value``
        would return it unchanged), and no one else holds the dict.
        """
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def from_rows(cls, rows):
        """Build from a dense list of lists; None marks the bottom element."""
        if not rows or not rows[0]:
            raise ValueError("from_rows needs at least one row and one column")
        ncols = len(rows[0])
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v is not None:
                    entries[(i, j)] = v
        return cls(len(rows), ncols, entries)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 0 for i in range(n)})

    @classmethod
    def epsilon(cls, n):
        """The all-bottom n x n matrix (the additive identity)."""
        return cls(n, n, {})

    def get(self, i, j):
        """Raw entry: a finite value, or None for the bottom element."""
        return self.entries.get((i, j))

    def to_rows(self):
        out = [[None] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    @property
    def finite_count(self) -> int:
        return len(self.entries)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"TropicalMatrix({self.rows}x{self.cols}, {self.finite_count} finite)"


# Finite results below this in magnitude keep the product kernel in int64:
# with the bottom at -2^61, two bottoms still add without overflow.
_INT64_BOUND = 1 << 59


def _kernel_arrays(scale, t, *matrices):
    """Enter the array kernel: its bottom element, then each matrix as a dense array.

    Every finite result to come is the weight of a path of at most t arcs
    of one matrix (its powers up to t, or its closure with t = n), or the
    product of two (t = 1), so it lies within +-bound, t times the sum of
    the matrices' largest |scaled entry|; a caller that shifts the entries
    first counts the shift in t.  Below ``_INT64_BOUND`` the arrays are
    int64 with the bottom at -2^61; above it they hold Python ints (dtype
    object) with the bottom at -4 * bound.  Either way a sum with a bottom
    operand lands below bottom // 2 and a finite one above.
    """
    scaled = [[scaled_int(v, scale) for v in m.entries.values()] for m in matrices]
    bound = t * sum(max(map(abs, values), default=0) for values in scaled)
    if bound < _INT64_BOUND:
        dtype, bottom = np.int64, -4 * _INT64_BOUND
    else:
        dtype, bottom = object, -4 * bound
    arrays = []
    for m, values in zip(matrices, scaled):
        out = np.full((m.rows, m.cols), bottom, dtype=dtype)
        if values:
            ii, jj = zip(*m.entries)
            out[list(ii), list(jj)] = values
        arrays.append(out)
    return bottom, *arrays


def _max_plus_product(x, y, bottom):
    """The max-plus product of two kernel arrays, in O(rows * cols) extra memory.

    Every sum with a bottom operand is reset to ``bottom`` afterwards, so
    the result is again a kernel array of the same domain.
    """
    out = np.full((x.shape[0], y.shape[1]), bottom, dtype=x.dtype)
    for k in range(x.shape[1]):
        np.maximum(out, x[:, k : k + 1] + y[k : k + 1, :], out=out)
    out[out < bottom // 2] = bottom
    return out


def _max_plus_power(x, t, bottom):
    """The t-th power (t >= 1) of a square kernel array, by binary exponentiation.

    Starts from the lowest set bit of t, not from the identity; the
    kernel's bound must cover paths of t arcs.
    """
    result = None
    while True:
        if t & 1:
            result = x if result is None else _max_plus_product(result, x, bottom)
        t >>= 1
        if not t:
            return result
        x = _max_plus_product(x, x, bottom)


def _max_plus_closure(x, bottom):
    """Kleene star of a square kernel array, in place.

    Floyd-Warshall over max-plus, one ``np.maximum`` per pivot: afterwards
    x[i, j] is the maximum weight of an i -> j path, the empty path's 0
    included on the diagonal.  The diagonal is checked after every pivot:
    until an entry turns positive every value is the weight of a simple
    path, within the kernel's bound (t = n), and the first positive one is
    a positive-weight circuit, for which the star diverges:
    PositiveCircuitError.
    """
    low = bottom // 2
    diagonal = x.diagonal()
    for k in range(x.shape[0]):
        np.maximum(x, x[:, k : k + 1] + x[k : k + 1, :], out=x)
        x[x < low] = bottom
        if (diagonal > 0).any():
            raise PositiveCircuitError()
    np.fill_diagonal(x, 0)


def _kernel_result(out, bottom, scale, shifts=None, which=None):
    """Leave the scaled-integer domain: the matrix of a kernel array.

    The cells of ``out`` that are not ``bottom`` are the finite entries,
    in row-major order.  Entry (i, j) is out[i, j] / scale or, given
    ``shifts`` (Python ints of any size) and an index array ``which`` of
    out's shape, (out[i, j] + shifts[which[i, j]]) / scale: an int where
    the scale divides it, else a Fraction, as ``unscaled`` gives.

    The division runs on arrays, with ``//`` and ``%`` (``np.divmod``
    rejects object arrays).  Each shift splits into scale * high + low
    with 0 <= low < scale: low joins the dividend and high the quotient,
    both as arrays, int64 while the values stay within the kernel's bound
    and Python ints in object arrays past it.  A Fraction is made only
    where the remainder is not 0.
    """
    ii, jj = np.nonzero(out != bottom)
    q = out[ii, jj]
    if scale >= _INT64_BOUND:
        q = q.astype(object)
    if shifts is not None:
        k = which[ii, jj]
        high, low = zip(*(divmod(s, scale) for s in shifts))
        q = q + np.array(low, dtype=q.dtype)[k]
    if scale > 1:
        q, r = q // scale, q % scale
    if shifts is not None:
        wide = q.dtype == object or max(map(abs, high)) >= _INT64_BOUND
        q = q + np.array(high, dtype=object if wide else np.int64)[k]
    values = q.tolist()
    if scale > 1:
        nonzero = np.flatnonzero(r)
        for m, b in zip(nonzero.tolist(), r[nonzero].tolist()):
            values[m] = Fraction(values[m] * scale + b, scale)
    entries = dict(zip(zip(ii.tolist(), jj.tolist()), values))
    return TropicalMatrix._trusted(out.shape[0], out.shape[1], entries)


def matrix_mul(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """Max-plus product: out[i][j] = max_k a[i][k] + b[k][j]."""
    if a.cols != b.rows:
        raise DimensionMismatchError(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    scale = common_scale(a.entries.values(), b.entries.values())
    bottom, x, y = _kernel_arrays(scale, 1, a, b)
    return _kernel_result(_max_plus_product(x, y, bottom), bottom, scale)


def matrix_power(a: TropicalMatrix, t) -> TropicalMatrix:
    """t-th max-plus power by binary exponentiation; the 0th power is the identity.

    Entry (i, j) of the result is the maximum weight over i-j paths of
    length exactly t in the associated digraph.  Every partial product is
    a power of at most t, so its finite entries lie within +-t * max |a_ij|.
    """
    if not a.is_square:
        raise DimensionMismatchError("matrix power needs a square matrix")
    if isinstance(t, bool) or not isinstance(t, int) or t < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if t == 0:
        return TropicalMatrix.identity(a.rows)
    scale = common_scale(a.entries.values())
    bottom, base = _kernel_arrays(scale, t, a)
    return _kernel_result(_max_plus_power(base, t, bottom), bottom, scale)


def kleene_star(a: TropicalMatrix) -> TropicalMatrix:
    """All-pairs maximum path weight, including empty paths on the diagonal.

    Computed by ``_max_plus_closure`` on the entries scaled to ints by
    their common denominator.  Requires that no circuit has positive
    weight; otherwise the series diverges and PositiveCircuitError is
    raised.
    """
    if not a.is_square:
        raise DimensionMismatchError("Kleene star needs a square matrix")
    scale = common_scale(a.entries.values())
    bottom, x = _kernel_arrays(scale, a.rows, a)
    _max_plus_closure(x, bottom)
    return _kernel_result(x, bottom, scale)
