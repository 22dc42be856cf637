"""Dense linear algebra over any tower level, plus canonical subspaces and lines.

Subspaces are kept in reduced row echelon form so that set membership,
equality and hashing are plain structural comparisons.  Lines carry a
first-nonzero-monic generator, which is exactly the RREF of a 1-row matrix.
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
from .gftower import DIGIT_ALPHABET, FieldElement, FieldTower

Vector = tuple[FieldElement, ...]


class Matrix:
    """Immutable rows x cols matrix with entries at one tower level."""

    __slots__ = ("tower", "level", "nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence[FieldElement]]):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        first = rows[0][0]
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for x in r:
                if x.level != first.level or x.tower != first.tower:
                    raise LevelMismatch("mixed levels inside one matrix")
        self.tower = first.tower
        self.level = first.level
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, tower: FieldTower, level: int, nrows: int, ncols: int) -> "Matrix":
        z = tower.zero(level)
        return cls([[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, tower: FieldTower, level: int, n: int) -> "Matrix":
        z, o = tower.zero(level), tower.one(level)
        return cls([[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def block(cls, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a matrix from a rectangular grid of blocks."""
        rows: list[tuple[FieldElement, ...]] = []
        for band in grid:
            height = band[0].nrows
            if any(b.nrows != height for b in band):
                raise ValueError("block heights disagree within a band")
            for i in range(height):
                row: tuple[FieldElement, ...] = ()
                for b in band:
                    row += b.rows[i]
                rows.append(row)
        return cls(rows)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Matrix") -> None:
        if self.level != other.level or not self.tower.compatible_at(other.tower, self.level):
            raise LevelMismatch("matrices at different levels")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        cols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            out.append([_dot(row, col) for col in cols])
        return Matrix(out)

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: FieldElement) -> "Matrix":
        return Matrix([[c * a for a in row] for row in self.rows])

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
        aug = Matrix.block([[self, ident]])
        reduced, _ = rref(aug)
        if Matrix([row[:n] for row in reduced.rows]) != ident:
            raise SingularInput("matrix is singular")
        return Matrix([row[n:] for row in reduced.rows])

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.rows for a in row)

    # -- identity ---------------------------------------------------------

    def key(self) -> tuple:
        """Structural sort/hash key: shape, level and flattened digits."""
        digits: tuple[int, ...] = ()
        for row in self.rows:
            for a in row:
                digits += a.digits()
        return (self.nrows, self.ncols, self.level, digits)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.level == other.level
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join("".join(map(DIGIT_ALPHABET.__getitem__, a.digits())) for a in row)
            for row in self.rows
        )
        return f"<Matrix {self.nrows}x{self.ncols} L{self.level} [{body}]>"


def _dot(u: Sequence[FieldElement], v: Sequence[FieldElement]) -> FieldElement:
    acc = None
    for a, b in zip(u, v):
        term = a * b
        acc = term if acc is None else acc + term
    assert acc is not None
    return acc


def vector_matrix(v: Vector, m: Matrix) -> Vector:
    """Row vector times matrix."""
    if len(v) != m.nrows:
        raise ValueError(f"vector length {len(v)} does not match {m.nrows} rows")
    cols = tuple(zip(*m.rows))
    return tuple(_dot(v, col) for col in cols)


# -- elimination ------------------------------------------------------------


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank (Gauss-Jordan, exact)."""
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivot_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, nrows) if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = rows[pivot_row][col].inverse()
        rows[pivot_row] = [inv * a for a in rows[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and not rows[r][col].is_zero():
                c = rows[r][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return Matrix(rows), pivot_row


def rank(m: Matrix) -> int:
    """Rank by forward elimination only (cheaper than full rref)."""
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    rk = 0
    for col in range(ncols):
        pivot = next((r for r in range(rk, nrows) if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = rows[rk][col].inverse()
        for r in range(rk + 1, nrows):
            if not rows[r][col].is_zero():
                c = rows[r][col] * inv
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[rk])]
        rk += 1
        if rk == nrows:
            break
    return rk


def companion_matrix(modulus: Sequence[FieldElement]) -> Matrix:
    """Companion matrix of a monic polynomial given as (a_0, ..., a_{d-1}, 1).

    Superdiagonal of ones, last row the negated low coefficients; its
    characteristic polynomial is the modulus itself.
    """
    modulus = tuple(modulus)
    d = len(modulus) - 1
    if d < 1:
        raise NonMonicModulus("modulus must have degree >= 1")
    tower, level = modulus[0].tower, modulus[0].level
    if modulus[-1] != tower.one(level):
        raise NonMonicModulus("modulus must be monic")
    z, o = tower.zero(level), tower.one(level)
    rows = [[o if j == i + 1 else z for j in range(d)] for i in range(d - 1)]
    rows.append([-modulus[j] for j in range(d)])
    return Matrix(rows)


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
        tower, level = self.tower, self.level
        card = tower.cardinality(level)
        for coeffs in itertools.product(range(card), repeat=self.dim):
            if all(c == 0 for c in coeffs):
                continue
            scalars = [tower.from_index(level, c) for c in coeffs]
            vec = None
            for c, row in zip(scalars, self.matrix.rows):
                term = tuple(c * a for a in row)
                vec = term if vec is None else tuple(x + y for x, y in zip(vec, term))
            assert vec is not None
            yield vec

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


class Line:
    """A 1-dimensional subspace with first-nonzero-monic generator."""

    __slots__ = ("generator",)

    def __init__(self, generator: Vector):
        # trusted constructor: generator must already be normalized
        self.generator = generator

    @property
    def tower(self) -> FieldTower:
        return self.generator[0].tower

    @property
    def level(self) -> int:
        return self.generator[0].level

    @property
    def ambient(self) -> int:
        return len(self.generator)

    def apply(self, a: Matrix) -> "Line":
        return canonical_line(vector_matrix(self.generator, a))

    def as_subspace(self) -> Subspace:
        return Subspace(Matrix([self.generator]))

    def key(self) -> tuple:
        digits: tuple[int, ...] = ()
        for a in self.generator:
            digits += a.digits()
        return (self.ambient, self.level, digits)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Line)
            and self.level == other.level
            and self.generator == other.generator
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"<Line in F^{self.ambient} L{self.level}>"


def canonical_line(v: Sequence[FieldElement]) -> Line:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    v = tuple(v)
    lead = next((a for a in v if not a.is_zero()), None)
    if lead is None:
        raise ZeroVector("zero vector spans no line")
    inv = lead.inverse()
    return Line(tuple(inv * a for a in v))


LineCode = frozenset  # frozenset[Line]
SubspaceCode = frozenset  # frozenset[Subspace]


def enumerate_lines(tower: FieldTower, level: int, s: int) -> LineCode:
    """All (Q^s - 1)/(Q - 1) canonical lines of the s-space over level."""
    if s < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {s}")
    card = tower.cardinality(level)
    z, o = tower.zero(level), tower.one(level)
    lines = []
    for pivot in range(s):
        tail = s - pivot - 1
        for rest in itertools.product(range(card), repeat=tail):
            gen = (z,) * pivot + (o,) + tuple(tower.from_index(level, c) for c in rest)
            lines.append(Line(gen))
    return frozenset(lines)


def _as_subspace(x) -> Subspace:
    if isinstance(x, Line):
        return x.as_subspace()
    if isinstance(x, Subspace):
        return x
    raise TypeError(f"expected Subspace or Line, got {type(x).__name__}")


def subspace_distance(u, v) -> int:
    """dim(U+V) - dim(U cap V), computed as 2 rank(stack) - dim U - dim V."""
    us, vs = _as_subspace(u), _as_subspace(v)
    if (
        us.ambient != vs.ambient
        or us.level != vs.level
        or not us.tower.compatible_at(vs.tower, us.level)
    ):
        raise AmbientMismatch("subspaces live in different ambient spaces")
    stacked = Matrix(us.matrix.rows + vs.matrix.rows)
    return 2 * rank(stacked) - us.dim - vs.dim
