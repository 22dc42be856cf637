"""Field reduction: representing the big field by matrices over the small one.

Three maps share one context.  `matrix_rep` realizes F_{q^k} as k x k
matrices over F_q: row l of the matrix of u is the base-q digits of
alpha^l * u, the coordinates of alpha^l * u over the basis 1, alpha, ...,
alpha^{k-1}.  `reduce_line` turns a line <g> of F_{q^k}^s, a 1-dimensional
Subspace whose one row is g, into the k-dimensional subspace of F_q^n
(n = ks) spanned by alpha^l g for l < k (Lavrauw and Van de Voorde,
"Field reduction and linear sets in finite geometry", Contemp. Math. 632,
2015): row l is the base-q digits of alpha^l u, concatenated over the
entries u of g.  Those are the base-p digits of alpha^l g, so the packed
rows of the reduced space are the packed rows alpha^l g at the middle
level, row 0 being g's own.  The first nonzero entry of g is 1, whose
block is I_k with zero blocks to its left, so the reduced matrix is
already in reduced row echelon form and needs no elimination.
`embed_matrix` blows an invertible s x s matrix over F_{q^k} up to an
invertible n x n matrix over F_q, block by block.  The two group actions
commute with these maps, which is what lets orbit codes be computed on
whichever side is cheaper.  Field elements are canonical indexes (ints).
"""

from __future__ import annotations

from .errors import InternalError, LevelMismatch, SingularInput
from .gftower import FieldTower, to_digits
from .subspaces import Matrix, Subspace, SubspaceCode, rank, row_packing


class ReductionContext:
    """Holds k, q and the indexes of alpha^0 .. alpha^{k-1} in F_{q^k}."""

    def __init__(self, tower: FieldTower):
        self.tower = tower
        self.k = tower.steps[1].degree
        self.q = tower.cardinality(1)
        self.alpha = tower.alpha(2)
        self.alpha_powers = tuple(tower.pow(2, self.alpha, ell) for ell in range(self.k))
        self._reduced_packs: dict = {}  # line packing -> packing of the reduced rows

    def matrix_rep(self, u: int) -> Matrix:
        """k x k matrix over F_q acting as multiplication by the F_{q^k} element of index u."""
        mul, q, k = self.tower.mul, self.q, self.k
        return Matrix(self.tower, 1, [to_digits(mul(2, a, u), q, k) for a in self.alpha_powers])

    def reduce_line(self, line: Subspace) -> Subspace:
        """Field reduction of a line: a k-dimensional subspace of F_q^{ks}."""
        reduced = self._reduced_packs.get(line.pack)
        if reduced is None:
            if line.level != 2 or not line.tower.compatible_at(self.tower, 2):
                raise LevelMismatch("reduce_line expects a line over the middle field")
            reduced = row_packing(self.tower, 1, self.k * line.ambient)
            self._reduced_packs[line.pack] = reduced
        if line.dim != 1:
            raise ValueError(f"reduce_line expects a line, got dimension {line.dim}")
        times_alpha = line.pack.times_alpha
        rows = [line.rows[0]]
        for _ in range(self.k - 1):
            rows.append(times_alpha(rows[-1]))
        return Subspace(reduced, tuple(rows))

    def embed_matrix(self, a: Matrix) -> Matrix:
        """Blockwise image of an invertible matrix over F_{q^k} in GL(n, F_q)."""
        if a.level != 2 or not a.tower.compatible_at(self.tower, 2):
            raise LevelMismatch("embed_matrix expects a matrix over the middle field")
        if a.nrows != a.ncols:
            raise SingularInput("only square matrices embed")
        if rank(a) < a.nrows:
            raise SingularInput("matrix is singular")
        grid = [[self.matrix_rep(x) for x in row] for row in a.rows]
        return Matrix.block(grid)

    def reduce_code(self, code: SubspaceCode) -> SubspaceCode:
        """Image of a line code; cardinality is preserved (the map is injective)."""
        out = frozenset(self.reduce_line(line) for line in code)
        if len(out) != len(code):
            raise InternalError("field reduction collapsed distinct lines")
        return out
