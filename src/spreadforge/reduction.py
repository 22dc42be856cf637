"""Field reduction: representing the big field by matrices over the small one.

Three maps share one context.  `matrix_rep` realizes F_{q^k} as k x k
matrices over F_q through the companion matrix of the tower's middle step;
`reduce_line` turns a line of F_{q^k}^s into a k-dimensional subspace of
F_q^n (n = ks); `embed_matrix` blows an invertible s x s matrix over
F_{q^k} up to an invertible n x n matrix over F_q, block by block.  The
two group actions commute with these maps, which is what lets orbit codes
be computed on whichever side is cheaper.  Field elements are canonical
indexes (ints): the base-q digits of a middle-field index are its
coefficients over F_q.
"""

from __future__ import annotations

from .errors import InternalError, LevelMismatch, SingularInput
from .gftower import FieldTower
from .subspaces import (
    Line,
    LineCode,
    Matrix,
    Subspace,
    SubspaceCode,
    canonical_subspace,
    companion_matrix,
    rank,
)


class ReductionContext:
    """Caches the companion matrix of the F_q -> F_{q^k} step and its powers."""

    def __init__(self, tower: FieldTower):
        self.tower = tower
        self.k = tower.steps[1].degree
        self.qk = tower.cardinality(2)
        self.m_k = companion_matrix(tower, 1, tower.step_modulus(2))
        pows = [Matrix.identity(tower, 1, self.k)]
        for _ in range(self.qk - 2):
            pows.append(pows[-1] * self.m_k)
        self.mk_powers = tuple(pows)
        self._zero_block = Matrix.zeros(tower, 1, self.k, self.k)

    def matrix_rep(self, u: int) -> Matrix:
        """k x k matrix over F_q acting as multiplication by the F_{q^k} element of index u."""
        q = self.tower.cardinality(1)
        out = self._zero_block
        for power in self.mk_powers[:self.k]:
            u, b = divmod(u, q)
            if b:
                out = out + power.scale(b)
        return out

    def reduce_line(self, line: Line) -> Subspace:
        """Field reduction of a line: a k-dimensional subspace of F_q^{ks}."""
        if line.level != 2 or not line.tower.compatible_at(self.tower, 2):
            raise LevelMismatch("reduce_line expects a line over the middle field")
        blocks = [self.matrix_rep(u) for u in line.generator]
        return canonical_subspace(Matrix.block([blocks]))

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

    def reduce_code(self, code: LineCode) -> SubspaceCode:
        """Image of a line code; cardinality is preserved (the map is injective)."""
        out = frozenset(self.reduce_line(line) for line in code)
        if len(out) != len(code):
            raise InternalError("field reduction collapsed distinct lines")
        return out
