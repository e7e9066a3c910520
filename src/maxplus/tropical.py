"""Exact max-plus (tropical) scalars and sparse matrices.

The semiring: "plus" is max, "times" is ordinary addition, the additive
identity is the bottom element (minus infinity, written "." or "-inf" in
text formats) and the multiplicative identity is 0.  Every finite value is
an exact rational, stored as a plain int whenever it is integral.  Floats
are rejected on input so all results stay bit-exact.  Rational work runs in
one scaled-integer domain (``common_scale`` and ``scaled_int`` in,
``unscaled`` out), entered once per call: the Kleene star's closure and the
max-plus product kernel behind ``matrix_mul`` and ``matrix_power`` see only
ints.  The kernel works on dense numpy arrays; a bound on its results picks
int64 or, above 2^59, Python ints in object arrays, on one code path.
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


class TropicalScalar:
    """One max-plus value: an exact rational, or the bottom element.

    ``TropicalScalar(x)`` wraps a finite value; ``TropicalScalar(None)`` is
    the bottom element.  Scalars only carry a result (Karp's cycle mean);
    the arithmetic works on raw values and matrices.
    """

    __slots__ = ("_v",)

    def __init__(self, value=None):
        self._v = None if value is None else as_value(value)

    @property
    def is_epsilon(self) -> bool:
        return self._v is None

    @property
    def value(self):
        """The finite rational, or None for the bottom element."""
        return self._v

    def __eq__(self, other):
        if not isinstance(other, TropicalScalar):
            return NotImplemented
        return self._v == other._v

    def __hash__(self):
        return hash(self._v)

    def __repr__(self):
        return "TropicalScalar(eps)" if self._v is None else f"TropicalScalar({self._v!r})"

    def __str__(self):
        return "-inf" if self._v is None else str(self._v)


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
    def epsilon(cls, rows, cols=None):
        """The all-bottom matrix (the additive identity)."""
        return cls(rows, rows if cols is None else cols, {})

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

    def submatrix(self, keep):
        """The principal submatrix on the given positions, in increasing order."""
        pos = {v: k for k, v in enumerate(sorted(keep))}
        entries = {
            (pos[i], pos[j]): v
            for (i, j), v in self.entries.items()
            if i in pos and j in pos
        }
        return TropicalMatrix(len(pos), len(pos), entries)

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
    """Enter the product kernel: its bottom element, then each matrix as a dense array.

    The products to come are the powers up to t of one matrix, or the
    product of two (t = 1), so every finite result lies within +-bound, t
    times the sum of the matrices' largest |scaled entry|.  Below
    ``_INT64_BOUND`` the arrays are int64 with the bottom at -2^61; above
    it they hold Python ints (dtype object) with the bottom at -4 * bound.
    Either way a sum with a bottom operand lands below bottom // 2 and a
    finite one above.
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


def _kernel_result(out, bottom, scale):
    """Leave the scaled-integer domain: the matrix of a kernel array."""
    ii, jj = np.nonzero(out != bottom)
    entries = {
        (i, j): unscaled(v, scale)
        for i, j, v in zip(ii.tolist(), jj.tolist(), out[ii, jj].tolist())
    }
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
    if not isinstance(t, int) or t < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if t == 0:
        return TropicalMatrix.identity(a.rows)
    scale = common_scale(a.entries.values())
    bottom, base = _kernel_arrays(scale, t, a)
    result = None
    while True:
        if t & 1:
            result = base if result is None else _max_plus_product(result, base, bottom)
        t >>= 1
        if not t:
            return _kernel_result(result, bottom, scale)
        base = _max_plus_product(base, base, bottom)


def _max_plus_closure(dist):
    """Kleene star of a dense square int matrix, in place; None is the bottom element.

    Floyd-Warshall over max-plus: afterwards dist[i][j] is the maximum
    weight of a nonempty i -> j path, and the diagonal is then raised to the
    empty path's 0.  A positive diagonal means a positive-weight circuit, for
    which the star diverges: PositiveCircuitError.  Only ``kleene_star``
    calls it, with entries already in the scaled-integer domain.
    """
    n = len(dist)
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            d_ik = dist[i][k]
            if d_ik is None:
                continue
            row_i = dist[i]
            for j in range(n):
                d_kj = row_k[j]
                if d_kj is None:
                    continue
                cand = d_ik + d_kj
                cur = row_i[j]
                if cur is None or cand > cur:
                    row_i[j] = cand
    for v in range(n):
        if dist[v][v] is not None and dist[v][v] > 0:
            raise PositiveCircuitError()
        dist[v][v] = 0


def kleene_star(a: TropicalMatrix) -> TropicalMatrix:
    """All-pairs maximum path weight, including empty paths on the diagonal.

    Computed as an algebraic-path closure (Floyd-Warshall over max-plus) on
    the entries scaled to ints by their common denominator.  Requires that
    no circuit has positive weight; otherwise the series diverges and
    PositiveCircuitError is raised.
    """
    if not a.is_square:
        raise DimensionMismatchError("Kleene star needs a square matrix")
    scale = common_scale(a.entries.values())
    dist = [[None if v is None else scaled_int(v, scale) for v in row] for row in a.to_rows()]
    _max_plus_closure(dist)
    entries = {
        (i, j): unscaled(v, scale)
        for i, row in enumerate(dist)
        for j, v in enumerate(row)
        if v is not None
    }
    return TropicalMatrix._trusted(a.rows, a.rows, entries)


@dataclass(frozen=True, slots=True)
class DiagonalScaling:
    """A finite scaling vector d, used as conjugation diag(-d) . A . diag(d)."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_value(v) for v in self.values))

    def __len__(self):
        return len(self.values)

    def inverse(self) -> "DiagonalScaling":
        return DiagonalScaling(tuple(-v for v in self.values))


def diag_conjugate(a: TropicalMatrix, d: DiagonalScaling, shift=0) -> TropicalMatrix:
    """Conjugation with a uniform shift: entry (i, j) becomes -d_i + (a_ij + shift) + d_j.

    Conjugating by d and then by its inverse restores the matrix; diagonal
    entries only pick up the shift.
    """
    if a.rows != a.cols or len(d) != a.rows:
        raise DimensionMismatchError("scaling length must equal the matrix order")
    shift = as_value(shift)
    dv = d.values
    entries = {
        (i, j): -dv[i] + (v + shift) + dv[j] for (i, j), v in a.entries.items()
    }
    return TropicalMatrix(a.rows, a.cols, entries)
