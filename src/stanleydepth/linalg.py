"""Dense exact linear algebra over a Field: one row reduction per arithmetic.

Over field scalars, `Subspace.extended` grows a reduced-echelon basis,
taking the first nonzero entry in column order as pivot; `Subspace`,
`Matrix.rref` and `Matrix.rank` grow theirs from the zero subspace.
Quotient bases are the unit vectors at non-pivot columns, listed by
ascending column index; this is the canonical basis convention used by
every downstream module, so certificates are reproducible bit for bit.
The searches push and pop integer rows (`integral_rows`, kept per Matrix
by `Matrix.integral`) on an `IntegerEchelon`, and `bareiss_determinant`
verifies witnesses by an elimination of its own; both reduce mod the
field's `modulus`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .errors import DimensionMismatchError, ShapeError
from .fields import Field


def integral_rows(field: Field, rows: Sequence[Sequence]) -> Sequence[Sequence]:
    """The block of rows on ints, for the rank kernels.

    Over GF(p) the rows come back as they are.  Over Q they are multiplied
    by one positive scale, the lcm of every denominator in the block.  A
    nonzero scale of the whole block keeps its rank, and the rank of any
    matrix with a column that is an image under it.
    """
    if field.modulus:
        return rows
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows)


class Integral(NamedTuple):
    """A matrix's `integral_rows`, and the columns of those rows."""

    rows: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[int, ...], ...]


class Matrix:
    """Immutable dense matrix of raw scalar values."""

    __slots__ = ("field", "nrows", "ncols", "entries", "_integral")

    def __init__(self, field: Field, entries: Iterable[Iterable], ncols: int | None = None):
        rows = tuple(tuple(row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ShapeError("ragged rows in matrix")
            if ncols is not None and ncols != width:
                raise ShapeError(f"declared {ncols} columns, rows have {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        self.field = field
        self.entries = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self._integral = None

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        cols = [tuple(c) for c in columns]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            nrows = 0
        return cls(field, [[c[i] for c in cols] for i in range(nrows)], len(cols))

    def columns(self) -> list[tuple]:
        if not self.nrows:
            return [()] * self.ncols
        return list(zip(*self.entries))

    def transpose(self) -> "Matrix":
        if not self.nrows:
            return Matrix(self.field, [()] * self.ncols, 0)
        return Matrix(self.field, zip(*self.entries), self.nrows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise DimensionMismatchError("matrix product over different fields")
        if self.ncols != other.nrows:
            raise DimensionMismatchError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        f = self.field
        ot = other.transpose().entries
        return Matrix(
            f,
            [[_dot(f, row, col) for col in ot] for row in self.entries],
            other.ncols,
        )

    def apply(self, vector: Sequence) -> tuple:
        """Matrix-vector product."""
        if len(vector) != self.ncols:
            raise DimensionMismatchError("vector length does not match column count")
        f = self.field
        return tuple(_dot(f, row, vector) for row in self.entries)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and the pivot columns: the basis of
        the row space that `Subspace.extended` grows, padded with zero
        rows to the matrix's height."""
        span = Subspace.zero(self.field, self.ncols).extended(self.entries)
        padding = ((self.field.zero,) * self.ncols,) * (self.nrows - span.dim)
        return Matrix(self.field, span.basis + padding, self.ncols), span.pivots

    def rank(self) -> int:
        return Subspace.zero(self.field, self.ncols).extended(self.entries).dim

    def integral(self) -> Integral:
        """The matrix on ints (`integral_rows` of its rows, one block) and
        their columns, built on first use and kept."""
        if self._integral is None:
            rows = integral_rows(self.field, self.entries)
            self._integral = Integral(rows, tuple(zip(*rows)) if rows else ((),) * self.ncols)
        return self._integral

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.entries))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {self.entries!r})"


def _dot(f: Field, u: Sequence, v: Sequence):
    acc = f.zero
    for x, y in zip(u, v):
        if not (f.is_zero(x) or f.is_zero(y)):
            acc = f.add(acc, f.mul(x, y))
    return acc


class Subspace:
    """A subspace of K^n, stored as a reduced-echelon row basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: Field, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        rows = [tuple(v) for v in vectors]
        if any(len(v) != ambient_dim for v in rows):
            raise DimensionMismatchError("vector length does not match ambient dimension")
        span = Subspace.zero(field, ambient_dim).extended(rows)
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = span.basis
        self.pivots = span.pivots

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        """The zero subspace of K^n."""
        return cls._from_echelon(field, ambient_dim, (), ())

    @classmethod
    def _from_echelon(cls, field, ambient_dim, basis, pivots) -> "Subspace":
        out = cls.__new__(cls)
        out.field = field
        out.ambient_dim = ambient_dim
        out.basis = basis
        out.pivots = pivots
        return out

    @property
    def dim(self) -> int:
        return len(self.basis)

    def extended(self, vectors: Iterable[Sequence]) -> "Subspace":
        """The span of this subspace and the given vectors, equal to
        Subspace(field, ambient_dim, list(basis) + vectors).

        Each vector is reduced against the growing basis; a nonzero
        remainder, scaled to a unit pivot and cleared from the other rows,
        becomes a new basis row.
        """
        f = self.field
        n = self.ambient_dim
        if len(self.basis) == n:
            return self
        rows = list(self.basis)
        pivots = list(self.pivots)
        for vector in vectors:
            if len(rows) == n:
                break
            if len(vector) != n:
                raise DimensionMismatchError("vector length does not match ambient dimension")
            v = _reduced(f, vector, rows, pivots)
            lead = next((j for j, x in enumerate(v) if not f.is_zero(x)), None)
            if lead is None:
                continue
            if v[lead] != f.one:
                inv = f.inv(v[lead])
                v = [f.mul(inv, x) for x in v]
            new = tuple(v)
            for i, row in enumerate(rows):
                c = row[lead]
                if not f.is_zero(c):
                    rows[i] = tuple(f.sub(x, f.mul(c, y)) if y else x for x, y in zip(row, new))
            at = next((i for i, p in enumerate(pivots) if p > lead), len(pivots))
            rows.insert(at, new)
            pivots.insert(at, lead)
        return Subspace._from_echelon(f, n, tuple(rows), tuple(pivots))

    def embedded(self, ambient_dim: int, positions: Sequence[int]) -> "Subspace":
        """This subspace inside K^ambient_dim, coordinate i sent to
        positions[i] and every other coordinate zero.  Increasing
        positions keep the basis reduced echelon, so nothing is reduced."""
        if ambient_dim == self.ambient_dim:
            return self
        zero = self.field.zero
        rows = []
        for row in self.basis:
            out = [zero] * ambient_dim
            for p, x in zip(positions, row):
                out[p] = x
            rows.append(tuple(out))
        pivots = tuple(positions[c] for c in self.pivots)
        return Subspace._from_echelon(self.field, ambient_dim, tuple(rows), pivots)

    def reduce(self, vector: Sequence) -> tuple:
        """Normal form of a vector modulo this subspace: supported on
        non-pivot columns, and zero iff the vector lies in the subspace."""
        if len(vector) != self.ambient_dim:
            raise DimensionMismatchError("vector length does not match ambient dimension")
        return tuple(_reduced(self.field, vector, self.basis, self.pivots))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient_dim})"


def _reduced(f: Field, vector: Sequence, rows: Sequence[Sequence], pivots: Sequence[int]) -> list:
    """The vector minus, for each reduced-echelon row, its pivot-column
    multiple of that row."""
    v = list(vector)
    for row, p in zip(rows, pivots):
        c = v[p]
        if not f.is_zero(c):
            v = [f.sub(x, f.mul(c, y)) if y else x for x, y in zip(v, row)]
    return v


class IntegerEchelon:
    """An echelon basis of K^n on integer rows, grown by `push` and
    shrunk by `pop` in stack order.

    Over GF(p) the rows are reduced mod p with unit pivots; over Q a
    pushed vector with a non-integer entry is first made one block of
    `integral_rows` (which keeps the rank), and rows are primitive and
    fraction-free.  A vector is
    reduced by the rows in the order they were pushed (forward
    elimination only, so no earlier row changes).  With
    `Subspace.extended` on Fraction rows in its place, the transversals
    of data/m6r9's partition over Q take about four times as long, and
    its witness search about six times.
    """

    __slots__ = ("field", "ambient_dim", "rows")

    def __init__(self, field: Field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows: list[tuple[int, list[int]]] = []

    def push(self, vector: Sequence) -> bool:
        """Add the vector and return True if it lies outside the span of
        the rows; leave the rows as they are and return False otherwise."""
        if len(self.rows) == self.ambient_dim == len(vector):
            return False
        v = self._reduced(vector)
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            return False
        p = self.field.modulus
        if p:
            inv = pow(v[lead], -1, p)
            v = [x * inv % p for x in v]
        else:
            g = math.gcd(*v)
            v = [x // g for x in v]
        self.rows.append((lead, v))
        return True

    def pop(self) -> None:
        """Remove the last row pushed."""
        self.rows.pop()

    def spans(self, vector: Sequence) -> bool:
        """Whether the vector lies in the span of the rows."""
        return len(self.rows) == self.ambient_dim == len(vector) or not any(self._reduced(vector))

    def _reduced(self, vector: Sequence) -> Sequence:
        """The vector reduced by the rows, zero iff it lies in their span."""
        if len(vector) != self.ambient_dim:
            raise DimensionMismatchError("vector length does not match ambient dimension")
        p = self.field.modulus
        v = vector
        if not p and not all(type(x) is int for x in v):
            v = integral_rows(self.field, (v,))[0]
        for pivot, row in self.rows:
            c = v[pivot] % p if p else v[pivot]
            if c:
                d = row[pivot]
                v = [d * x - c * r for x, r in zip(v, row)]
        return [x % p for x in v] if p else v


def bareiss_determinant(field: Field, rows: Sequence[Sequence[int]]) -> int:
    """The determinant of a square matrix of ints, by Bareiss's
    fraction-free elimination (Bareiss 1968): over Z when the field is Q,
    reduced mod p over GF(p).

    Each step takes the first row with a nonzero entry in the leading
    column as pivot row (a swap flips the sign; no such row means the
    determinant is 0) and replaces every later entry by the 2x2 minor
    (pivot * m_ij - m_i0 * m_0j) divided by the previous pivot.  The
    quotient is a minor of the input, so the division is exact over Z;
    over GF(p) it is a multiplication by the inverse.  The last pivot is
    the determinant up to the sign.  No row is normalized, unlike in
    `IntegerEchelon`, so the two share no elimination.
    """
    p = field.modulus
    m = [[x % p for x in row] if p else list(row) for row in rows]
    if any(len(row) != len(m) for row in m):
        raise ShapeError(f"determinant of a {len(m)}-row matrix with a row of another length")
    sign, prev = 1, 1
    while m:
        pivot = next((i for i, row in enumerate(m) if row[0]), None)
        if pivot is None:
            return 0
        if pivot:
            m[0], m[pivot] = m[pivot], m[0]
            sign = -sign
        top = m[0]
        d = top[0]
        if p:
            inv = pow(prev, -1, p)
            m = [[(d * x - row[0] * y) * inv % p for x, y in zip(row[1:], top[1:])] for row in m[1:]]
        else:
            m = [[(d * x - row[0] * y) // prev for x, y in zip(row[1:], top[1:])] for row in m[1:]]
        prev = d
    return sign * prev % p if p else sign * prev
