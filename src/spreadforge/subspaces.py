"""Dense linear algebra over any tower level, plus canonical subspaces and lines.

A Matrix or Subspace holds its tower and level once and its entries as
canonical element indexes (plain ints), and computes through the tower's
index arithmetic.  Tower compatibility is checked once per operand, not
per entry.  Subspaces are kept in reduced row echelon form so that set
membership, equality and hashing are plain structural comparisons.  A
line is a 1-dimensional Subspace: its one row, scaled so that its first
nonzero entry is 1, is its RREF.  `rank`, `rref` and `Matrix.inverse`
share one forward-elimination loop.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import (
    AmbientMismatch,
    LevelMismatch,
    NonMonicModulus,
    RankDeficient,
    SingularInput,
    ZeroVector,
)
from .gftower import FieldTower

Vector = tuple[int, ...]


def _compatible(x, y) -> bool:
    """Same level, in towers whose arithmetic agrees up to that level."""
    return x.level == y.level and (
        x.tower is y.tower or x.tower.compatible_at(y.tower, x.level)
    )


def _add_multiple(tower: FieldTower, level: int, row: Sequence[int], c: int,
                  other: Sequence[int]) -> list[int]:
    """row + c * other, entrywise."""
    add, mul = tower.add, tower.mul
    return [add(level, a, mul(level, c, b)) for a, b in zip(row, other)]


class Matrix:
    """Immutable rows x cols matrix of element indexes at one tower level."""

    __slots__ = ("tower", "level", "nrows", "ncols", "rows")

    def __init__(self, tower: FieldTower, level: int, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        self.tower = tower
        self.level = level
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, tower: FieldTower, level: int, nrows: int, ncols: int) -> "Matrix":
        return cls(tower, level, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, tower: FieldTower, level: int, n: int) -> "Matrix":
        return cls(tower, level, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def block(cls, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a matrix from a rectangular grid of blocks."""
        first = grid[0][0]
        rows: list[tuple[int, ...]] = []
        for band in grid:
            height = band[0].nrows
            for b in band:
                first._check(b)
                if b.nrows != height:
                    raise ValueError("block heights disagree within a band")
            for i in range(height):
                rows.append(tuple(itertools.chain.from_iterable(b.rows[i] for b in band)))
        return cls(first.tower, first.level, rows)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other) -> None:
        if not _compatible(self, other):
            raise LevelMismatch("operands at different levels or of incompatible towers")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        tower, level = self.tower, self.level
        return Matrix(tower, level, [
            _add_multiple(tower, level, ra, 1, rb) for ra, rb in zip(self.rows, other.rows)
        ])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return self.scale(self.tower.neg(self.level, 1))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        return Matrix(self.tower, self.level, [vector_matrix(row, other) for row in self.rows])

    def scale(self, c: int) -> "Matrix":
        mul, level = self.tower.mul, self.level
        return Matrix(self.tower, level, [[mul(level, c, a) for a in row] for row in self.rows])

    def __pow__(self, n: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be powered")
        if n < 0:
            return self.inverse() ** (-n)
        result = Matrix.identity(self.tower, self.level, self.nrows)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "Matrix":
        """Inverse via Gauss-Jordan on (self | I); SingularInput if not square/regular."""
        if self.nrows != self.ncols:
            raise SingularInput("only square matrices are invertible")
        n = self.nrows
        ident = Matrix.identity(self.tower, self.level, n)
        reduced, _ = rref(Matrix.block([[self, ident]]))
        if tuple(row[:n] for row in reduced.rows) != ident.rows:
            raise SingularInput("matrix is singular")
        return Matrix(self.tower, self.level, [row[n:] for row in reduced.rows])

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.rows)

    # -- identity ---------------------------------------------------------

    def key(self) -> tuple:
        """Structural sort/hash key: level and rows."""
        return (self.level, self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows and _compatible(self, other)

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, row)) for row in self.rows)
        return f"<Matrix {self.nrows}x{self.ncols} L{self.level} [{body}]>"


def vector_matrix(v: Sequence[int], m: Matrix) -> Vector:
    """Row vector times matrix."""
    if len(v) != m.nrows:
        raise ValueError(f"vector length {len(v)} does not match {m.nrows} rows")
    tower, level = m.tower, m.level
    out = [0] * m.ncols
    for c, row in zip(v, m.rows):
        if c:
            out = _add_multiple(tower, level, out, c, row)
    return tuple(out)


# -- elimination ------------------------------------------------------------


def _echelon(m: Matrix) -> tuple[list[list[int]], list[int]]:
    """Forward elimination: a row echelon form of m and its pivot columns."""
    tower, level = m.tower, m.level
    rows = [list(r) for r in m.rows]
    pivots: list[int] = []
    for col in range(m.ncols):
        rk = len(pivots)
        pivot = next((r for r in range(rk, m.nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        top = rows[rk]
        factor = tower.neg(level, tower.inv(level, top[col]))
        for r in range(rk + 1, m.nrows):
            if rows[r][col]:
                c = tower.mul(level, rows[r][col], factor)
                rows[r][col:] = _add_multiple(tower, level, rows[r][col:], c, top[col:])
        pivots.append(col)
        if rk + 1 == m.nrows:
            break
    return rows, pivots


def rank(m: Matrix) -> int:
    """Rank by forward elimination only (cheaper than full rref)."""
    return len(_echelon(m)[1])


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank.

    Forward elimination, then, bottom-up, each pivot row is normalized and
    its pivot column cleared in the rows above.
    """
    tower, level = m.tower, m.level
    rows, pivots = _echelon(m)
    for i in reversed(range(len(pivots))):
        col = pivots[i]
        top = rows[i] = [tower.mul(level, tower.inv(level, rows[i][col]), a) for a in rows[i]]
        for r in range(i):
            if rows[r][col]:
                rows[r] = _add_multiple(tower, level, rows[r], tower.neg(level, rows[r][col]), top)
    return Matrix(tower, level, rows), len(pivots)


def companion_matrix(tower: FieldTower, level: int, modulus: Sequence[int]) -> Matrix:
    """Companion matrix of a monic polynomial (a_0, ..., a_{d-1}, 1) over `level`.

    Superdiagonal of ones, last row the negated low coefficients; its
    characteristic polynomial is the modulus itself.
    """
    d = len(modulus) - 1
    if d < 1:
        raise NonMonicModulus("modulus must have degree >= 1")
    if modulus[-1] != 1:
        raise NonMonicModulus("modulus must be monic")
    rows = [[int(j == i + 1) for j in range(d)] for i in range(d - 1)]
    rows.append([tower.neg(level, a) for a in modulus[:d]])
    return Matrix(tower, level, rows)


# -- canonical subspaces and lines -------------------------------------------


class Subspace:
    """A k-dimensional subspace of F^n held as its RREF basis matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        # trusted constructor: `matrix` must already be canonical full-rank RREF
        self.matrix = matrix

    @property
    def tower(self) -> FieldTower:
        return self.matrix.tower

    @property
    def level(self) -> int:
        return self.matrix.level

    @property
    def ambient(self) -> int:
        return self.matrix.ncols

    @property
    def dim(self) -> int:
        return self.matrix.nrows

    def apply(self, a: Matrix) -> "Subspace":
        """Image under the right action V |-> rowsp(V A)."""
        return canonical_subspace(self.matrix * a)

    def nonzero_vectors(self) -> Iterator[Vector]:
        """All q^dim - 1 nonzero vectors, each exactly once."""
        card = self.tower.cardinality(self.level)
        for coeffs in itertools.product(range(card), repeat=self.dim):
            if any(coeffs):
                yield vector_matrix(coeffs, self.matrix)

    def key(self) -> tuple:
        return self.matrix.key()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subspace) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix.key())

    def __repr__(self) -> str:
        return f"<Subspace dim={self.dim} of F^{self.ambient} L{self.level}>"


def canonical_subspace(m: Matrix) -> Subspace:
    """Unique RREF representative of rowsp(m); rows must be independent."""
    reduced, rk = rref(m)
    if rk < m.nrows:
        raise RankDeficient(f"rank {rk} < {m.nrows} rows")
    return Subspace(reduced)


def canonical_line(tower: FieldTower, level: int, v: Sequence[int]) -> Subspace:
    """The line spanned by a nonzero vector: v scaled so that its first nonzero entry is 1."""
    lead = next((a for a in v if a), 0)
    if not lead:
        raise ZeroVector("zero vector spans no line")
    inv = tower.inv(level, lead)
    return Subspace(Matrix(tower, level, [[tower.mul(level, inv, a) for a in v]]))


SubspaceCode = frozenset  # frozenset[Subspace]


def enumerate_lines(tower: FieldTower, level: int, s: int) -> SubspaceCode:
    """All (Q^s - 1)/(Q - 1) lines of the s-space over level."""
    if s < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {s}")
    card = tower.cardinality(level)
    return frozenset(
        Subspace(Matrix(tower, level, [(0,) * pivot + (1,) + rest]))
        for pivot in range(s)
        for rest in itertools.product(range(card), repeat=s - pivot - 1)
    )


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """dim(U+V) - dim(U cap V), computed as 2 rank(stack) - dim U - dim V."""
    if u.ambient != v.ambient or not _compatible(u, v):
        raise AmbientMismatch("subspaces live in different ambient spaces")
    stacked = Matrix(u.tower, u.level, u.matrix.rows + v.matrix.rows)
    return 2 * rank(stacked) - u.dim - v.dim
