"""The two-generator Abelian group, its orbit codes, and spread completion.

Everything is driven by a pair of commuting block matrices h1, h2 of order
q^kt - 1 acting on lines of F_{q^k}^s (s = 2t).  The orbit of a leading
unit line is a large constant-distance line code; two explicit families of
r further lines complete it to the full line Grassmannian, and field
reduction turns that partition into a k-spread of F_q^n.

The completion is forced.  Summing the two geometric series in the mixing
block of h1^a h2^b gives U(a, b) = (alpha^a c^b - alpha^b c^a)(alpha I - c)^{-1}.
For a in the m-th exponent class and b = (q^k - 1) l, the product
alpha^a c^b runs through every nonzero element of the matrix field
F_{q^kt} exactly once, so the blocks to avoid are all of that field but
-c^m (alpha I - c)^{-1}, which is therefore the only completion block.

All three parts are orbits, built by one routine: Ci of e_i under
<h2^{q^k-1}> x <h1>, Bj of e_j under <h2^{q^k-1}>, and Ai of row i of
(I | -(alpha I - c)^{-1}) under diag(c, c) = (h1 h2)^a, where
a = 0 mod q^k - 1 and a = 1 mod r.  The closed-form blocks and the
forbidden-set definition under them stay as Ai's reference.

Exponents are 1-based in every public signature; internal lookups reduce
them modulo the relevant element orders.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    ExponentOutOfRange,
    GcdConditionViolated,
    GroupTooLarge,
    IndexOutOfRange,
    InternalError,
    InternalOrderCheckFailed,
    TrivialGroup,
)
from .gftower import (
    FieldTower,
    check_tower_params,
    check_tower_size,
    distinct_prime_factors,
    field_build,
    has_order,
)
from .reduction import ReductionContext
from .subspaces import (
    Matrix,
    Subspace,
    SubspaceCode,
    companion_matrix,
    row_packing,
)

# Exhaustive enumerations over the whole group refuse to run past this size.
GROUP_ENUM_GUARD = 1 << 20


class CodeParams(NamedTuple):
    """Validated construction parameters with all derived quantities."""

    p: int
    e: int
    k: int
    t: int
    q: int             # p^e
    qk: int            # q^k
    s: int             # 2t
    n: int             # ks
    r: int             # (q^kt - 1) / (q^k - 1)
    max_exponent: int  # q^kt - 1
    group_order: int   # (q^kt - 1)^2

    def __str__(self) -> str:
        return f"(p={self.p}, e={self.e}, k={self.k}, t={self.t})"


def validate_params(p: int, e: int, k: int, t: int) -> CodeParams:
    """Check the gcd condition and derive every parameter the pipeline needs.

    A tower past TABLE_GUARD is refused (FieldTooLarge) before q^kt is formed.
    """
    check_tower_params(p, e, k, t)
    check_tower_size(p, e, k, t)  # bounds q^kt, r and the group order by bit length first
    q = p**e
    qk = q**k
    if qk**t == 2:
        raise TrivialGroup("q^kt = 2: the group of order q^kt - 1 = 1 is trivial")
    g = math.gcd(t, qk - 1)
    if g != 1:
        raise GcdConditionViolated(f"gcd(t, q^k - 1) = gcd({t}, {qk - 1}) = {g}, expected 1")
    max_exponent = qk**t - 1
    r = max_exponent // (qk - 1)
    if math.gcd(r, qk - 1) != 1:
        raise InternalError(f"gcd(r, q^k - 1) != 1 for valid parameters {p, e, k, t}")
    return CodeParams(
        p=p, e=e, k=k, t=t, q=q, qk=qk, s=2 * t, n=k * 2 * t,
        r=r, max_exponent=max_exponent, group_order=max_exponent**2,
    )


class GroupExponents(NamedTuple):
    """Index (a, b) of the group element h1^a h2^b, both in 1..q^kt-1."""

    a: int
    b: int


class GroupContext:
    """Generators, the powers of c, and the ambient tower for one parameter set."""

    def __init__(self, params: CodeParams, tower: FieldTower):
        self.params = params
        self.tower = tower
        t, qk, r = params.t, params.qk, params.r

        self.m_t = companion_matrix(tower, 2, tower.step_modulus(3))
        self.c = self.m_t ** (qk - 1)
        self.alpha = tower.alpha(2)

        ident = Matrix.identity(tower, 2, t)
        zero = Matrix.zeros(tower, 2, t, t)
        alpha_ident = ident.scale(self.alpha)
        self.h1 = Matrix.block([[self.c, ident], [zero, alpha_ident]])
        self.h2 = Matrix.block([[alpha_ident, -ident], [zero, self.c]])
        self.h2_step = self.h2 ** (qk - 1)  # generates the order-r subgroup

        cp = [ident]
        for _ in range(r - 1):
            cp.append(cp[-1] * self.c)
        self.c_powers = tuple(cp)  # c^0 .. c^{r-1}

        # singular only for q^kt = 2, which validate_params rejects
        self.mixing_denominator = (alpha_ident - self.c).inverse()  # (alpha I - c)^{-1}

        self._zero_block = zero
        self._identity_s = Matrix.identity(tower, 2, params.s)

        self.lines = row_packing(tower, 2, params.s)  # packed rows of F_{q^k}^s

    # -- small helpers ------------------------------------------------------

    def alpha_power(self, m: int) -> int:
        """alpha^m for any m >= 0: one table lookup in the middle field."""
        return self.tower.pow(2, self.alpha, m)

    def unit_line(self, i: int) -> Subspace:
        """The line spanned by the i-th unit vector, i in 1..s."""
        if not 1 <= i <= self.params.s:
            raise IndexOutOfRange(f"unit index {i} not in 1..{self.params.s}")
        return Subspace(self.lines, (1 << (i - 1) * self.lines.entry_bits,))

    def _check_exponent(self, x: int, name: str) -> None:
        if not 1 <= x <= self.params.max_exponent:
            raise ExponentOutOfRange(
                f"{name} = {x} not in 1..{self.params.max_exponent}"
            )


def build_group(params: CodeParams, tower: FieldTower | None = None) -> GroupContext:
    """Construct the group context and verify the orders it relies on.

    Every check runs on every build: the generators commute, alpha has
    order q^k - 1, and the companion matrix, h1 and h2 have order exactly
    q^kt - 1 and c order exactly r, each by has_order's prime descent.
    """
    if tower is None:
        tower = field_build(params.p, params.e, params.k, params.t)
    ctx = GroupContext(params, tower)
    if ctx.h1 * ctx.h2 != ctx.h2 * ctx.h1:
        raise InternalOrderCheckFailed("generators do not commute")
    units, n, r = params.qk - 1, params.max_exponent, params.r
    if not has_order(ctx.alpha_power, 1, units, distinct_prime_factors(units)):
        raise InternalOrderCheckFailed("middle-field generator has wrong order")
    n_primes, r_primes = distinct_prime_factors(n), distinct_prime_factors(r)
    ident_t = Matrix.identity(tower, 2, params.t)
    if not has_order(ctx.m_t.__pow__, ident_t, n, n_primes):
        raise InternalOrderCheckFailed("companion matrix order is not q^kt - 1")
    if not has_order(ctx.c.__pow__, ident_t, r, r_primes):
        raise InternalOrderCheckFailed("reduced companion power does not have order r")
    for name, gen in (("h1", ctx.h1), ("h2", ctx.h2)):
        if not has_order(gen.__pow__, ctx._identity_s, n, n_primes):
            raise InternalOrderCheckFailed(f"{name} does not have order q^kt - 1")
    return ctx


# -- reference group elements ------------------------------------------------


def upper_right_block(ctx: GroupContext, a: int, b: int) -> Matrix:
    """The t x t mixing block of h1^a h2^b, evaluated as the defining double sum.

    Zero exactly when a = b.
    """
    ctx._check_exponent(a, "a")
    ctx._check_exponent(b, "b")
    r = ctx.params.r
    acc = ctx._zero_block
    for j in range(1, a + 1):
        acc = acc + ctx.c_powers[(a + b - j) % r].scale(ctx.alpha_power(j - 1))
    for j in range(1, b + 1):
        acc = acc - ctx.c_powers[(a + b - j) % r].scale(ctx.alpha_power(j - 1))
    return acc


def upper_right_block_geometric(ctx: GroupContext, a: int, b: int) -> Matrix:
    """Same block as (alpha^a c^b - alpha^b c^a)(alpha I - c)^{-1}; cross-check path only."""
    ctx._check_exponent(a, "a")
    ctx._check_exponent(b, "b")
    r = ctx.params.r
    numerator = (ctx.c_powers[b % r].scale(ctx.alpha_power(a))
                 - ctx.c_powers[a % r].scale(ctx.alpha_power(b)))
    return numerator * ctx.mixing_denominator


def group_element_product(ctx: GroupContext, a: int, b: int) -> Matrix:
    """Reference path: the literal product h1^a * h2^b by repeated squaring."""
    ctx._check_exponent(a, "a")
    ctx._check_exponent(b, "b")
    return (ctx.h1**a) * (ctx.h2**b)


# -- subgroups ----------------------------------------------------------------


def scalar_subgroup(ctx: GroupContext) -> tuple[Matrix, ...]:
    """The scalar matrices alpha^m I_s for m = 1..q^k-1 (equals <(h1 h2)^r>)."""
    return tuple(ctx._identity_s.scale(ctx.alpha_power(m)) for m in range(1, ctx.params.qk))


def h2_subgroup(ctx: GroupContext) -> tuple[Matrix, ...]:
    """The order-r subgroup generated by h2^{q^k-1}: its powers 1..r, the last the identity."""
    pows = [ctx.h2_step]
    for _ in range(ctx.params.r - 1):
        pows.append(pows[-1] * ctx.h2_step)
    return tuple(pows)


def transversal_subgroup(ctx: GroupContext) -> tuple[Matrix, ...]:
    """All h1^a h2^{(q^k-1) l}; a direct complement of the scalar subgroup."""
    size = ctx.params.max_exponent * ctx.params.r
    if size > GROUP_ENUM_GUARD:
        raise GroupTooLarge(f"transversal has {size} elements, guard is {GROUP_ENUM_GUARD}")
    out = []
    for slow in h2_subgroup(ctx):
        cur = slow
        for _ in range(ctx.params.max_exponent):
            cur = cur * ctx.h1
            out.append(cur)
    return tuple(out)


def full_group(ctx: GroupContext) -> Iterator[tuple[GroupExponents, Matrix]]:
    """Lazily enumerate the whole group as ((a, b), h1^a h2^b) pairs."""
    n = ctx.params.max_exponent
    if n * n > GROUP_ENUM_GUARD:
        raise GroupTooLarge(f"group has {n * n} elements, guard is {GROUP_ENUM_GUARD}")
    left = ctx._identity_s
    for a in range(1, n + 1):
        left = left * ctx.h1
        cur = left
        for b in range(1, n + 1):
            cur = cur * ctx.h2
            yield GroupExponents(a, b), cur


# -- stabilizers and orbit codes ----------------------------------------------


def stabilizer_bruteforce(ctx: GroupContext, line: Subspace) -> frozenset[GroupExponents]:
    """All (a, b) whose group element fixes the line, by full enumeration."""
    n = ctx.params.max_exponent
    if n * n > GROUP_ENUM_GUARD:
        raise GroupTooLarge(f"group has {n * n} elements, guard is {GROUP_ENUM_GUARD}")
    lines = ctx.lines
    h1, h2 = lines.matrix_map(ctx.h1), lines.matrix_map(ctx.h2)
    hits = []
    va = start = line.rows[0]
    for a in range(1, n + 1):
        va = h1(va)
        vab = va
        for b in range(1, n + 1):
            vab = h2(vab)
            if lines.normalize(vab) == start:
                hits.append(GroupExponents(a, b))
    return frozenset(hits)


def orbit_lines(ctx: GroupContext, start: Subspace,
                walk: Sequence[tuple[Matrix, int]]) -> SubspaceCode:
    """Lines start * g_1^{a_1} * g_2^{a_2} ..., a_x in 1..order_x, for (g_x, order_x) in walk.

    Rows are walked packed, each step one lookup-table map of its matrix.
    The caller's group is the direct product of the cyclic groups it names,
    and it acts on the start line with trivial stabilizer, so the orbit has
    the product of the orders as its size; anything else is a bug.
    """
    rows = list(start.rows)
    for step, order in walk:
        apply = ctx.lines.matrix_map(step)
        walked = []
        for row in rows:
            for _ in range(order):
                row = apply(row)
                walked.append(row)
        rows = walked
    lines = SubspaceCode(ctx.lines, map(ctx.lines.normalize, rows))  # a line's key is its row
    if len(lines) != len(rows):
        raise InternalError(f"orbit collapsed: {len(lines)} lines, expected {len(rows)}")
    return lines


def orbit_code(ctx: GroupContext, i: int) -> SubspaceCode:
    """The orbit of the i-th unit line (i in 1..t) under the transversal subgroup.

    The result has exactly (q^kt - 1)^2 / (q^k - 1) distinct lines; the
    full-group orbit is identical because the scalar subgroup stabilizes
    every line.
    """
    params = ctx.params
    if not 1 <= i <= params.t:
        raise IndexOutOfRange(f"orbit index {i} not in 1..{params.t}")
    return orbit_lines(ctx, ctx.unit_line(i),
                       ((ctx.h2_step, params.r), (ctx.h1, params.max_exponent)))


# -- completion ----------------------------------------------------------------


def exponent_class(params: CodeParams, m: int) -> frozenset[int]:
    """Residue class {a r + m : 0 <= a <= q^k - 2}; the r classes partition 1..q^kt-1."""
    if not 1 <= m <= params.r:
        raise IndexOutOfRange(f"class index {m} not in 1..{params.r}")
    return frozenset(a * params.r + m for a in range(params.qk - 1))


def forbidden_blocks(ctx: GroupContext, m: int) -> frozenset[Matrix]:
    """Mixing blocks that the m-th completion block must avoid."""
    params = ctx.params
    qk1 = params.qk - 1
    return frozenset(
        upper_right_block(ctx, a, qk1 * ell)
        for a in exponent_class(params, m)
        for ell in range(1, params.r + 1)
    )


def completion_block(ctx: GroupContext, m: int) -> Matrix:
    """The one t x t matrix outside forbidden_blocks(ctx, m): -c^m (alpha I - c)^{-1}.

    Every forbidden block is U(a, b) = (alpha^a c^b - c^m)(alpha I - c)^{-1}
    with alpha^b = 1 and c^a = c^m, and over the class alpha^a c^b takes
    each of the q^kt - 1 nonzero values of the matrix field once.  The
    block for alpha^a c^b = 0 is the only one the class does not reach.
    """
    if not 1 <= m <= ctx.params.r:
        raise IndexOutOfRange(f"class index {m} not in 1..{ctx.params.r}")
    return -(ctx.c_powers[m % ctx.params.r] * ctx.mixing_denominator)


def default_completion(ctx: GroupContext) -> tuple[Matrix, ...]:
    """The r completion blocks B_1..B_r; their digest is the code files' `bm` tag."""
    return tuple(completion_block(ctx, m) for m in range(1, ctx.params.r + 1))


def completion_code(ctx: GroupContext, i: int) -> SubspaceCode:
    """The r lines spanned by the i-th rows of (c^m | B_m), m = 1..r.

    They form the orbit of row i of (I | -(alpha I - c)^{-1}) under
    diag(c, c) = (h1 h2)^a with a = 0 mod q^k - 1, a = 1 mod r: the
    inverse commutes with c, so the m-th step lands on (c^m | B_m).
    """
    params = ctx.params
    if not 1 <= i <= params.t:
        raise IndexOutOfRange(f"leading index {i} not in 1..{params.t}")
    start = tuple(int(j == i - 1) for j in range(params.t)) + (-ctx.mixing_denominator).rows[i - 1]
    diag_c = Matrix.block([[ctx.c, ctx._zero_block], [ctx._zero_block, ctx.c]])
    return orbit_lines(ctx, Subspace(ctx.lines, (ctx.lines.pack(start),)), ((diag_c, params.r),))


def tail_orbit(ctx: GroupContext, j: int) -> SubspaceCode:
    """Orbit of the j-th unit line (j in t+1..s) under the order-r h2 subgroup."""
    params = ctx.params
    if not params.t + 1 <= j <= params.s:
        raise IndexOutOfRange(f"tail index {j} not in {params.t + 1}..{params.s}")
    return orbit_lines(ctx, ctx.unit_line(j), ((ctx.h2_step, params.r),))


# -- assembly -------------------------------------------------------------------


def line_partition(
    ctx: GroupContext, i: int, j: int
) -> tuple[SubspaceCode, SubspaceCode, SubspaceCode]:
    """The three line codes that partition the full line Grassmannian."""
    return orbit_code(ctx, i), completion_code(ctx, i), tail_orbit(ctx, j)


def spread_components(
    ctx: GroupContext, i: int, j: int
) -> tuple[SubspaceCode, SubspaceCode, SubspaceCode]:
    """Field reduction of the three partition parts, in the same order."""
    parts = line_partition(ctx, i, j)
    red = ReductionContext(ctx.tower)
    return tuple(red.reduce_code(part) for part in parts)  # type: ignore[return-value]


def spread_union(params: CodeParams, parts: tuple[SubspaceCode, ...]) -> SubspaceCode:
    """The union of the reduced partition parts, which must have a spread's size.

    The parts' sizes must sum to that size too, so the parts are disjoint.
    """
    spread = SubspaceCode(parts[0].pack, frozenset().union(*(part.keys for part in parts)))
    expected = (params.q**params.n - 1) // (params.qk - 1)
    if len(spread) != expected:
        raise InternalError(f"spread has {len(spread)} members, expected {expected}")
    if sum(map(len, parts)) != expected:
        raise InternalError(f"spread parts have {sum(map(len, parts))} members, expected {expected}")
    return spread

