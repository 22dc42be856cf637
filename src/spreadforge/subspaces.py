"""Dense linear algebra over any tower level, plus canonical subspaces and lines.

A Matrix holds its tower and level once and its entries as canonical
element indexes (plain ints), and carries the small group algebra through
the tower's index arithmetic: products, powers and blocks of s x s
matrices.  `rank`, `rref`, `Matrix.inverse` (on (A | I)) and
`canonical_subspace` eliminate by packing their rows and reducing them.

Every vector computation runs on packed rows.  A row of entries at one
level is one int holding the entries' little-endian base-p digits, m per
entry, entry j in lanes j m .. j m + m - 1, each lane w bits, lowest
first.  At p = 2 a lane is one bit and addition is XOR.  For odd p,
w = ceil(log2(2p - 1)): two digits add without a carry out of their lane,
and the sum drops p from every lane that reached it, found as the top bit
of lane + (h - p), h = 2^(w-1) >= p (SWAR arithmetic, Lamport, CACM 18(8),
1975).  The F_Q-span of rows over a level of Q = p^m elements is the
F_p-span of the rows times alpha^j, j < m, so spans, ranks and RREFs are
F_p loops over lanes, and a matrix acts on rows by one table lookup per
chunk of lanes, after M4RI (Albrecht, Bard and Hart, ACM TOMS 37(1), 2010).
`row_packing` builds one (tower, level, ncols) layout on first use.

A Subspace is the packed rows of its reduced row echelon basis, so set
membership, equality and hashing are int comparisons.  A line is a
1-dimensional Subspace: its one row, scaled so that its first nonzero
entry is 1, is its RREF.  A whole code is a SubspaceCode: the one packing
its members share, and each member's rows joined into one int key.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    AmbientMismatch,
    DimensionMismatch,
    KindMismatch,
    LevelMismatch,
    NonMonicModulus,
    RankDeficient,
    SingularInput,
    ZeroVector,
)
from .gftower import DIGIT_ALPHABET, FieldTower, from_digits, power, to_digits

Vector = tuple[int, ...]

# A linear map's lookup table covers the c lanes of one chunk, p^c <= this many rows.
_TABLE_ENTRIES = 1 << 8
# The `format` spec that writes an int in base 2^w, for the lane widths it supports.
_LANE_FORMATS = {1: "b", 3: "o", 4: "x"}


def _compatible(x, y) -> bool:
    """Same level, in towers whose arithmetic agrees up to that level."""
    return x.level == y.level and x.tower.compatible_at(y.tower, x.level)


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
        add, level = self.tower.add, self.level
        return Matrix(self.tower, level, [
            [add(level, a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
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
        return power(operator.mul, Matrix.identity(self.tower, self.level, self.nrows), self, n)

    def inverse(self) -> "Matrix":
        """Inverse read off the RREF of (self | I); SingularInput if not square/regular."""
        if self.nrows != self.ncols:
            raise SingularInput("only square matrices are invertible")
        n = self.nrows
        ident = Matrix.identity(self.tower, self.level, n)
        reduced, _ = rref(Matrix.block([[self, ident]]))
        if tuple(row[:n] for row in reduced.rows) != ident.rows:
            raise SingularInput("matrix is singular")
        return Matrix(self.tower, self.level, [row[n:] for row in reduced.rows])

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows and _compatible(self, other)

    def __hash__(self) -> int:
        return hash((self.level, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, row)) for row in self.rows)
        return f"<Matrix {self.nrows}x{self.ncols} L{self.level} [{body}]>"


def vector_matrix(v: Sequence[int], m: Matrix) -> Vector:
    """Row vector times matrix."""
    if len(v) != m.nrows:
        raise ValueError(f"vector length {len(v)} does not match {m.nrows} rows")
    add, mul, level = m.tower.add, m.tower.mul, m.level
    out = [0] * m.ncols
    for c, row in zip(v, m.rows):
        if c:
            out = [add(level, a, mul(level, c, b)) for a, b in zip(out, row)]
    return tuple(out)


# -- elimination ------------------------------------------------------------


def rank(m: Matrix) -> int:
    """Rank over the matrix's level, by F_p elimination on its packed rows."""
    pack = row_packing(m.tower, m.level, m.ncols)
    return pack.rank([pack.pack(row) for row in m.rows])


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank, zero rows last, from `RowPacking.reduce`."""
    pack = row_packing(m.tower, m.level, m.ncols)
    rows = [pack.entries(r) for r in pack.reduce([pack.pack(row) for row in m.rows])]
    return Matrix(m.tower, m.level, rows + [(0,) * m.ncols] * (m.nrows - len(rows))), len(rows)


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


# -- packed rows ------------------------------------------------------------------


class RowPacking:
    """Lane layout and kernels for packed rows of `ncols` entries at one tower level."""

    def __init__(self, tower: FieldTower, level: int, ncols: int):
        p = tower.p
        w = 1 if p == 2 else (2 * p - 2).bit_length()
        m = tower.digit_length(level)
        self.tower, self.level, self.ncols = tower, level, ncols
        self.p, self.width, self.digits = p, w, m  # digits: base-p digits, so lanes, per entry
        self.lanes = ncols * m
        self.row_bits = w * self.lanes
        self.row_mask = (1 << self.row_bits) - 1
        self.entry_bits = w * m
        self.entry_mask = (1 << w * m) - 1
        chunk = 1
        while p ** (chunk + 1) <= _TABLE_ENTRIES:
            chunk += 1
        self.chunk = chunk
        self._scalings: dict = {}  # a lead entry's lanes -> scaling(its inverse), for normalize
        if p == 2:
            self.add = operator.xor
            return
        ones = ((1 << w * self.lanes) - 1) // ((1 << w) - 1)
        self._bias = ((1 << w - 1) - p) * ones
        self._tops = (1 << w - 1) * ones
        self.add = self._add_mod_p

    # -- lane arithmetic over F_p -------------------------------------------

    def _add_mod_p(self, a: int, b: int) -> int:
        s = a + b
        return s - (((s + self._bias) & self._tops) >> (self.width - 1)) * self.p

    def multiples(self, a: int) -> list[int]:
        """[0, a, 2a, ..., (p - 1)a]."""
        out = [0, a]
        for _ in range(self.p - 2):
            out.append(self.add(out[-1], a))
        return out

    # -- entries ------------------------------------------------------------------

    def to_lanes(self, u: int) -> int:
        """The lanes of one entry holding the element of index u."""
        if self.p == 2:
            return u
        return from_digits(to_digits(u, self.p, self.digits), 1 << self.width)

    def to_index(self, x: int) -> int:
        """The element index held by the lanes of one entry."""
        if self.p == 2:
            return x
        return from_digits(to_digits(x, 1 << self.width, self.digits), self.p)

    def pack(self, entries: Sequence[int]) -> int:
        eb, to_lanes = self.entry_bits, self.to_lanes
        return sum(to_lanes(u) << j * eb for j, u in enumerate(entries))

    def entries(self, row: int) -> Vector:
        eb, em, to_index = self.entry_bits, self.entry_mask, self.to_index
        return tuple(to_index(row >> j * eb & em) for j in range(self.ncols))

    def normalize(self, row: int) -> int:
        """The row scaled so that its first nonzero entry is 1."""
        if not row:
            raise ZeroVector("zero vector spans no line")
        eb = self.entry_bits
        lead = row >> ((row & -row).bit_length() - 1) // eb * eb & self.entry_mask
        if lead == 1:
            return row
        scale = self._scalings.get(lead)
        if scale is None:  # built on first use
            inv = self.tower.inv(self.level, self.to_index(lead))
            scale = self._scalings[lead] = self.scaling(inv)
        return scale(row)

    # -- linear maps ---------------------------------------------------------------

    def matrix_map(self, a: Matrix) -> Callable[[int], int]:
        """Row vector times the square matrix `a` (ncols x ncols, same level), on packed rows.

        The map is F_p-linear, so one table per chunk of lanes holds the image of every
        digit combination in that chunk, and a row's image sums one entry per chunk.
        """
        if (a.nrows, a.ncols) != (self.ncols, self.ncols):
            raise ValueError(f"matrix_map needs a {self.ncols}x{self.ncols} matrix")
        mul, level, w, p, add = self.tower.mul, self.level, self.width, self.p, self.add
        units = [p**j for j in range(self.digits)]  # the elements with one unit digit
        images = [self.pack([mul(level, u, x) for x in row]) for row in a.rows for u in units]
        tables = []
        for start in range(0, len(images), self.chunk):
            table = {0: 0}
            for j, image in enumerate(images[start:start + self.chunk]):
                mults = self.multiples(image)
                table.update([(key | d << w * j, add(value, mults[d]))
                              for key, value in table.items() for d in range(1, p)])
            tables.append((w * start, table))
        if len(tables) == 1:
            return tables[0][1].__getitem__
        mask = (1 << w * self.chunk) - 1

        def apply(x: int) -> int:
            acc = 0
            for shift, table in tables:
                acc = add(acc, table[x >> shift & mask])
            return acc

        return apply

    def scaling(self, c: int) -> Callable[[int], int]:
        """Every entry times the element of index c, on packed rows."""
        return self.matrix_map(Matrix.identity(self.tower, self.level, self.ncols).scale(c))

    @functools.cached_property
    def times_alpha(self) -> Callable[[int], int]:
        """Every entry times alpha, the generator of the level, on packed rows."""
        return self.scaling(self.tower.alpha(self.level))

    def line_key(self, row: int) -> int:
        """The key, in the packing one level down, of the line through `row`, field-reduced.

        With k the degree of this level over the one below, a line <g> of
        F_{Q^k}^s reduces to the k-space of F_Q^{ks} spanned by alpha^l g,
        l < k (Lavrauw and Van de Voorde, "Field reduction and linear sets in
        finite geometry", Contemp. Math. 632, 2015).  An entry's base-p digits
        are the digits of its k coordinates over 1, alpha, ..., alpha^{k-1},
        so the two packings share their bits and `row_bits`: row l of the key
        is alpha^l g as packed here.  When g's first nonzero entry is 1, its
        block of the reduced basis is I_k with zero blocks to its left, so the
        rows are already the RREF and this is the member's key; a k-space
        whose key this returns for its own row 0 is that line's reduction.
        """
        times_alpha, b = self.times_alpha, self.row_bits
        key = row
        for shift in range(b, b * self.tower.steps[self.level - 1].degree, b):
            row = times_alpha(row)
            key |= row << shift
        return key

    # -- spans and ranks -------------------------------------------------------------

    def expand(self, rows: Sequence[int]) -> list[int]:
        """The rows times alpha^j for j < m: their F_p-span is the rows' F_Q-span."""
        out = cur = list(rows)
        for _ in range(self.digits - 1):
            cur = list(map(self.times_alpha, cur))
            out += cur
        return out

    def span(self, rows: Sequence[int]) -> list[int]:
        """Every vector of the rows' span, zero first; each once when the rows are independent."""
        vecs = [0]
        if self.p == 2:
            for b in self.expand(rows):
                vecs += [v ^ b for v in vecs]
            return vecs
        p, top, bias, tops = self.p, self.width - 1, self._bias, self._tops
        for b in self.expand(rows):
            vecs += [(s := v + mb) - (((s + bias) & tops) >> top) * p
                     for mb in self.multiples(b)[1:] for v in vecs]
        return vecs

    def _echelon(self, rows: Sequence[int]) -> dict:
        """F_p echelon basis of the rows' expansion, keyed by pivot lane.

        Each row's lowest nonzero lane is eliminated against a kept basis
        row with that lowest lane until it is zero or joins the basis.  Keys
        and values: at p = 2 the lane's bit and the row; for odd p the lane's
        shift and the multiples of the row scaled to lane value 1.
        """
        rows = self.expand(rows)
        basis: dict = {}
        if self.p == 2:
            for r in rows:
                while r:
                    low = r & -r
                    b = basis.get(low)
                    if b is None:
                        basis[low] = r
                        break
                    r ^= b
            return basis
        p, w, add = self.p, self.width, self.add
        lane = (1 << w) - 1
        for r in rows:
            while r:
                shift = ((r & -r).bit_length() - 1) // w * w
                v = r >> shift & lane
                mults = basis.get(shift)
                if mults is None:  # keep the multiples of r scaled to lane value 1
                    own, inv = self.multiples(r), pow(v, p - 2, p)
                    basis[shift] = [own[d * inv % p] for d in range(p)]
                    break
                r = add(r, mults[p - v])
        return basis

    def rank(self, rows: Sequence[int]) -> int:
        """Rank over the level's field: the F_p rank of the expansion, over m."""
        return len(self._echelon(rows)) // self.digits

    def reduce(self, rows: Sequence[int]) -> list[int]:
        """The RREF basis of the rows' span over the level's field, in pivot order.

        Each row of the F_p echelon basis is cleared at the pivot lanes after
        its own, last pivot first.  Every lane of a pivot entry is a pivot
        lane of the expansion, so a row whose pivot is an entry's lowest lane
        holds 1 there and 0 in every other pivot entry: it is an RREF row.
        """
        basis = self._echelon(rows)
        if self.p == 2:  # key the rows by their pivot lane's shift, as for odd p
            basis = {low.bit_length() - 1: [0, r] for low, r in basis.items()}
        p, lane, add = self.p, (1 << self.width) - 1, self.add
        done: dict = {}  # pivot shift -> multiples of the cleared row
        for shift in sorted(basis, reverse=True):
            r = basis[shift][1]
            for later, mults in done.items():
                v = r >> later & lane
                if v:
                    r = add(r, mults[p - v])
            done[shift] = self.multiples(r)
        return [done[shift][1] for shift in sorted(done) if shift % self.entry_bits == 0]

    # -- text and canonical form ------------------------------------------------------
    # A row's digit string lists its lanes' digits from the lowest lane up, so
    # the reversed string is the packed row written in base 2^w.

    def text(self, row: int) -> str:
        """The row's base-p digit string."""
        spec = _LANE_FORMATS.get(self.width)
        if spec is not None:
            return format(row, f"0{self.lanes}{spec}")[::-1]
        mask = (1 << self.width) - 1
        return "".join(DIGIT_ALPHABET[row >> self.width * i & mask] for i in range(self.lanes))

    def from_text(self, text: str) -> int:
        """The packed row a string of `lanes` valid base-p digits spells."""
        if self.width <= 5:  # int() reads bases up to 36
            return int(text[::-1], 1 << self.width)
        return sum(DIGIT_ALPHABET.index(ch) << self.width * i for i, ch in enumerate(text))

    # -- member keys -----------------------------------------------------------------
    # A member's key is its packed RREF rows joined, row i shifted up i row
    # widths.  Every RREF row is nonzero, so the top row ends the key: a key
    # of d rows has between (d - 1) row_bits + 1 and d row_bits bits, and a
    # member of more rows has a larger key.

    def join(self, rows: Sequence[int]) -> int:
        """The key of a member with these packed RREF rows."""
        b = self.row_bits
        return sum(row << i * b for i, row in enumerate(rows))

    def split(self, key: int) -> tuple[int, ...]:
        """The packed rows a key joins."""
        b, mask = self.row_bits, self.row_mask
        rows = []
        while key:
            rows.append(key & mask)
            key >>= b
        return tuple(rows)

    def dim(self, key: int) -> int:
        """The dimension of the member a key joins: its number of rows."""
        return -(-key.bit_length() // self.row_bits)

    def is_rref(self, rows: Sequence[int]) -> bool:
        """Each row's first nonzero entry is 1, in increasing columns, and 0 in the other rows."""
        eb, em = self.entry_bits, self.entry_mask
        leads, pivots, col = [], 0, -1
        for row in rows:
            if not row:
                return False
            previous, col = col, ((row & -row).bit_length() - 1) // eb
            if col <= previous or row >> col * eb & em != 1:
                return False
            leads.append(1 << col * eb)
            pivots |= em << col * eb
        return all(row & pivots == lead for row, lead in zip(rows, leads))


@functools.lru_cache(maxsize=64)
def row_packing(tower: FieldTower, level: int, ncols: int) -> RowPacking:
    """The packing of rows of `ncols` entries at `level`, built once per (tower, level, ncols)."""
    return RowPacking(tower, level, ncols)


# -- canonical subspaces and lines -------------------------------------------


class Subspace:
    """A k-dimensional subspace of F^n held as the packed rows of its RREF basis."""

    __slots__ = ("pack", "rows")

    def __init__(self, pack: RowPacking, rows: tuple[int, ...]):
        # trusted constructor: `rows` must already be a canonical full-rank RREF, packed
        self.pack = pack
        self.rows = rows

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def matrix(self) -> Matrix:
        """The RREF basis with element-index entries."""
        pack = self.pack
        return Matrix(pack.tower, pack.level, [pack.entries(r) for r in self.rows])

    def apply(self, a: Matrix) -> "Subspace":
        """Image under the right action V |-> rowsp(V A)."""
        return canonical_subspace(self.matrix * a)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subspace) and self.rows == other.rows
                and _same_space(self.pack, other.pack))

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"<Subspace dim={self.dim} of F^{self.pack.ncols} L{self.pack.level}>"


def canonical_subspace(m: Matrix) -> Subspace:
    """Unique RREF representative of rowsp(m); rows must be independent."""
    pack = row_packing(m.tower, m.level, m.ncols)
    rows = pack.reduce([pack.pack(row) for row in m.rows])
    if len(rows) < m.nrows:
        raise RankDeficient(f"rank {len(rows)} < {m.nrows} rows")
    return Subspace(pack, tuple(rows))


def canonical_line(tower: FieldTower, level: int, v: Sequence[int]) -> Subspace:
    """The line spanned by a nonzero vector: v scaled so that its first nonzero entry is 1."""
    pack = row_packing(tower, level, len(v))
    return Subspace(pack, (pack.normalize(pack.pack(v)),))


def _same_space(a: RowPacking, b: RowPacking) -> bool:
    """Packings of one space: rows of one length at one level of towers that agree up to it."""
    return a is b or (a.ncols == b.ncols and _compatible(a, b))


class SubspaceCode:
    """A code: the packing its members share and each member's key (`RowPacking.join`).

    The library computes on the keys, a frozenset of ints; iterating a code
    yields its members as `Subspace` views.  `of` builds a code from
    `Subspace` members and is the one place that checks they share a space
    and a dimension: the other producers make every key in their one packing.
    """

    __slots__ = ("pack", "keys")

    def __init__(self, pack: RowPacking, keys: Iterable[int]):
        # trusted constructor: each key joins a canonical full-rank RREF of `pack`, all of one dim
        self.pack = pack
        self.keys = frozenset(keys)

    @classmethod
    def of(cls, members: Iterable[Subspace]) -> "SubspaceCode":
        """The code of these members; all must share the first one's space and dimension."""
        members = list(members)
        if not members:
            raise ValueError("an empty code needs its packing: use SubspaceCode(pack, ())")
        pack, dim = members[0].pack, members[0].dim
        if not all(_same_space(m.pack, pack) for m in members):
            raise AmbientMismatch("code members live in different spaces")
        if any(m.dim != dim for m in members):
            raise DimensionMismatch("code members differ in dimension")
        return cls(pack, [pack.join(m.rows) for m in members])

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Subspace]:
        pack, split = self.pack, self.pack.split
        return (Subspace(pack, split(key)) for key in self.keys)

    @property
    def dim(self) -> int:
        """The members' one dimension; a non-empty code's."""
        return self.pack.dim(next(iter(self.keys)))

    def check_comparable(self, other: "SubspaceCode") -> None:
        """Refuse a code whose members live in another space; a code with none fits any."""
        a, b = self.pack, other.pack
        if self.keys and other.keys and not _same_space(a, b):
            if (a.level, a.ncols) != (b.level, b.ncols):
                raise KindMismatch("members differ in level or ambient dimension")
            raise KindMismatch("members differ in field")


def enumerate_lines(tower: FieldTower, level: int, s: int) -> SubspaceCode:
    """All (Q^s - 1)/(Q - 1) lines of the s-space over level."""
    if s < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {s}")
    pack = row_packing(tower, level, s)
    p, w, eb, m = pack.p, pack.width, pack.entry_bits, pack.digits
    rows: list[int] = []
    tails = [0]  # every packed vector of the entries right of the pivot
    for pivot in reversed(range(s)):
        lead, shift = 1 << pivot * eb, (pivot + 1) * eb
        rows += [lead | t << shift for t in tails]
        if pivot:
            for i in range((s - pivot - 1) * m, (s - pivot) * m):
                tails = [t | d << w * i for d in range(p) for t in tails]
    return SubspaceCode(pack, rows)


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """dim(U+V) - dim(U cap V), computed as 2 rank(stack) - dim U - dim V."""
    if not _same_space(u.pack, v.pack):
        raise AmbientMismatch("subspaces live in different ambient spaces")
    return 2 * u.pack.rank(u.rows + v.rows) - u.dim - v.dim
