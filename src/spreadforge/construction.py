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

Exponents are 1-based in every public signature; internal lookups reduce
them modulo the relevant element orders.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .errors import (
    CharacteristicTooLarge,
    ExponentOutOfRange,
    GcdConditionViolated,
    GroupTooLarge,
    IndexOutOfRange,
    InternalError,
    InternalOrderCheckFailed,
    NonPrimeCharacteristic,
    TrivialGroup,
)
from .gftower import (
    DIGIT_ALPHABET,
    FieldTower,
    distinct_prime_factors,
    element_order,
    field_build,
    is_prime,
)
from .reduction import ReductionContext
from .subspaces import (
    Line,
    LineCode,
    Matrix,
    SubspaceCode,
    canonical_line,
    companion_matrix,
    vector_matrix,
)

# Exhaustive enumerations over the whole group refuse to run past this size.
GROUP_ENUM_GUARD = 1 << 20
# Generator orders are re-verified at build time up to this bound.
ORDER_CHECK_BOUND = 1 << 16


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
    """Check the gcd condition and derive every parameter the pipeline needs."""
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if p > len(DIGIT_ALPHABET):
        raise CharacteristicTooLarge(
            f"characteristic {p} exceeds the {len(DIGIT_ALPHABET)}-symbol digit alphabet"
        )
    if min(e, k, t) < 1:
        raise ValueError(f"degrees must be >= 1, got e={e}, k={k}, t={t}")
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
    """Generators, cached power tables, and the ambient tower for one parameter set."""

    def __init__(self, params: CodeParams, tower: FieldTower):
        self.params = params
        self.tower = tower
        t, qk, r = params.t, params.qk, params.r

        self.m_t = companion_matrix(tower, 2, tower.step_modulus(3))
        self.c = self.m_t ** (qk - 1)
        self.alpha = tower.index_of(tower.alpha(2))

        ident = Matrix.identity(tower, 2, t)
        zero = Matrix.zeros(tower, 2, t, t)
        alpha_ident = ident.scale(self.alpha)
        self.h1 = Matrix.block([[self.c, ident], [zero, alpha_ident]])
        self.h2 = Matrix.block([[alpha_ident, -ident], [zero, self.c]])

        cp = [ident]
        for _ in range(r - 1):
            cp.append(cp[-1] * self.c)
        self.c_powers = tuple(cp)  # c^0 .. c^{r-1}

        ap = [1]
        for _ in range(qk - 2):
            ap.append(tower.mul(2, ap[-1], self.alpha))
        self.alpha_powers = tuple(ap)  # alpha^0 .. alpha^{q^k-2}

        # singular only for q^kt = 2, which validate_params rejects
        self.mixing_denominator = (alpha_ident - self.c).inverse()  # (alpha I - c)^{-1}

        self._zero_block = zero
        self._identity_s = Matrix.identity(tower, 2, params.s)
        self._h2_slow: tuple[Matrix, ...] | None = None
        self._reduction: ReductionContext | None = None

    # -- lazy caches --------------------------------------------------------

    def h2_slow_powers(self) -> tuple[Matrix, ...]:
        """h2^{(q^k-1) l} for l = 1..r; the last entry is the identity."""
        if self._h2_slow is None:
            step = self.h2 ** (self.params.qk - 1)
            pows = [step]
            for _ in range(self.params.r - 1):
                pows.append(pows[-1] * step)
            self._h2_slow = tuple(pows)
        return self._h2_slow

    def reduction(self) -> ReductionContext:
        if self._reduction is None:
            self._reduction = ReductionContext(self.tower)
        return self._reduction

    # -- small helpers ------------------------------------------------------

    def unit_line(self, i: int) -> Line:
        """The canonical line spanned by the i-th unit vector, i in 1..s."""
        if not 1 <= i <= self.params.s:
            raise IndexOutOfRange(f"unit index {i} not in 1..{self.params.s}")
        return Line(self.tower, 2, tuple(int(j == i - 1) for j in range(self.params.s)))

    def _check_exponent(self, x: int, name: str) -> None:
        if not 1 <= x <= self.params.max_exponent:
            raise ExponentOutOfRange(
                f"{name} = {x} not in 1..{self.params.max_exponent}"
            )


def _matrix_order_is(m: Matrix, n: int, ident: Matrix) -> bool:
    if m**n != ident:
        return False
    return all(m ** (n // ell) != ident for ell in distinct_prime_factors(n))


def build_group(params: CodeParams, tower: FieldTower | None = None) -> GroupContext:
    """Construct the group context and verify the orders it relies on.

    Commutativity of the generators is checked unconditionally; the order
    checks (all of them exhaustive-descent exact) are gated on
    q^kt - 1 <= ORDER_CHECK_BOUND to keep large builds fast.
    """
    if tower is None:
        tower = field_build(params.p, params.e, params.k, params.t)
    ctx = GroupContext(params, tower)
    if ctx.h1 * ctx.h2 != ctx.h2 * ctx.h1:
        raise InternalOrderCheckFailed("generators do not commute")
    if element_order(tower.alpha(2)) != params.qk - 1:
        raise InternalOrderCheckFailed("middle-field generator has wrong order")
    n = params.max_exponent
    if n <= ORDER_CHECK_BOUND:
        ident_t = Matrix.identity(tower, 2, params.t)
        if not _matrix_order_is(ctx.m_t, n, ident_t):
            raise InternalOrderCheckFailed("companion matrix order is not q^kt - 1")
        if not _matrix_order_is(ctx.c, params.r, ident_t):
            raise InternalOrderCheckFailed("reduced companion power does not have order r")
        for name, gen in (("h1", ctx.h1), ("h2", ctx.h2)):
            if not _matrix_order_is(gen, n, ctx._identity_s):
                raise InternalOrderCheckFailed(f"{name} does not have order q^kt - 1")
    return ctx


# -- closed-form group elements ----------------------------------------------


def upper_right_block(ctx: GroupContext, a: int, b: int) -> Matrix:
    """The t x t mixing block of h1^a h2^b, evaluated as the defining double sum.

    Zero exactly when a = b.
    """
    ctx._check_exponent(a, "a")
    ctx._check_exponent(b, "b")
    qk1, r = ctx.params.qk - 1, ctx.params.r
    acc = ctx._zero_block
    for j in range(1, a + 1):
        acc = acc + ctx.c_powers[(a + b - j) % r].scale(ctx.alpha_powers[(j - 1) % qk1])
    for j in range(1, b + 1):
        acc = acc - ctx.c_powers[(a + b - j) % r].scale(ctx.alpha_powers[(j - 1) % qk1])
    return acc


def upper_right_block_geometric(ctx: GroupContext, a: int, b: int) -> Matrix:
    """Same block as (alpha^a c^b - alpha^b c^a)(alpha I - c)^{-1}; cross-check path only."""
    ctx._check_exponent(a, "a")
    ctx._check_exponent(b, "b")
    qk1, r = ctx.params.qk - 1, ctx.params.r
    numerator = (ctx.c_powers[b % r].scale(ctx.alpha_powers[a % qk1])
                 - ctx.c_powers[a % r].scale(ctx.alpha_powers[b % qk1]))
    return numerator * ctx.mixing_denominator


def group_element(ctx: GroupContext, a: int, b: int) -> Matrix:
    """h1^a h2^b assembled from its block formula (no repeated multiplication)."""
    ctx._check_exponent(a, "a")
    ctx._check_exponent(b, "b")
    qk1, r = ctx.params.qk - 1, ctx.params.r
    top_left = ctx.c_powers[a % r].scale(ctx.alpha_powers[b % qk1])
    bottom_right = ctx.c_powers[b % r].scale(ctx.alpha_powers[a % qk1])
    return Matrix.block([
        [top_left, upper_right_block(ctx, a, b)],
        [ctx._zero_block, bottom_right],
    ])


def group_element_product(ctx: GroupContext, a: int, b: int) -> Matrix:
    """Reference path: the literal product h1^a * h2^b by repeated squaring."""
    ctx._check_exponent(a, "a")
    ctx._check_exponent(b, "b")
    return (ctx.h1**a) * (ctx.h2**b)


# -- subgroups ----------------------------------------------------------------


def scalar_subgroup(ctx: GroupContext) -> tuple[Matrix, ...]:
    """The scalar matrices alpha^m I_s for m = 1..q^k-1 (equals <(h1 h2)^r>)."""
    qk1 = ctx.params.qk - 1
    return tuple(
        ctx._identity_s.scale(ctx.alpha_powers[m % qk1]) for m in range(1, qk1 + 1)
    )


def h2_subgroup(ctx: GroupContext) -> tuple[Matrix, ...]:
    """The order-r subgroup generated by h2^{q^k-1}."""
    return ctx.h2_slow_powers()


def transversal_subgroup(ctx: GroupContext) -> tuple[Matrix, ...]:
    """All h1^a h2^{(q^k-1) l}; a direct complement of the scalar subgroup."""
    size = ctx.params.max_exponent * ctx.params.r
    if size > GROUP_ENUM_GUARD:
        raise GroupTooLarge(f"transversal has {size} elements, guard is {GROUP_ENUM_GUARD}")
    out = []
    for slow in ctx.h2_slow_powers():
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


def stabilizer_bruteforce(ctx: GroupContext, line: Line) -> frozenset[GroupExponents]:
    """All (a, b) whose group element fixes the line, by full enumeration."""
    n = ctx.params.max_exponent
    if n * n > GROUP_ENUM_GUARD:
        raise GroupTooLarge(f"group has {n * n} elements, guard is {GROUP_ENUM_GUARD}")
    hits = []
    va = line.generator
    for a in range(1, n + 1):
        va = vector_matrix(va, ctx.h1)
        vab = va
        for b in range(1, n + 1):
            vab = vector_matrix(vab, ctx.h2)
            if canonical_line(ctx.tower, 2, vab) == line:
                hits.append(GroupExponents(a, b))
    return frozenset(hits)


def orbit_code(ctx: GroupContext, i: int) -> LineCode:
    """The orbit of the i-th unit line (i in 1..t) under the transversal subgroup.

    The result has exactly (q^kt - 1)^2 / (q^k - 1) distinct lines; the
    full-group orbit is identical because the scalar subgroup stabilizes
    every line.
    """
    params = ctx.params
    if not 1 <= i <= params.t:
        raise IndexOutOfRange(f"orbit index {i} not in 1..{params.t}")
    lines = set()
    for slow in ctx.h2_slow_powers():
        row = slow.rows[i - 1]
        for _ in range(params.max_exponent):
            row = vector_matrix(row, ctx.h1)
            lines.add(canonical_line(ctx.tower, 2, row))
    expected = params.max_exponent * params.r
    if len(lines) != expected:
        raise InternalError(f"orbit collapsed: {len(lines)} lines, expected {expected}")
    return frozenset(lines)


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


class CompletionChoice(NamedTuple):
    """A pair (i, j) plus the r chosen completion blocks B_1..B_r."""

    i: int
    j: int
    blocks: tuple[Matrix, ...]


def default_completion(ctx: GroupContext, i: int, j: int) -> CompletionChoice:
    """The deterministic completion: first valid block for every class index."""
    params = ctx.params
    if not 1 <= i <= params.t:
        raise IndexOutOfRange(f"leading index {i} not in 1..{params.t}")
    if not params.t + 1 <= j <= params.s:
        raise IndexOutOfRange(f"tail index {j} not in {params.t + 1}..{params.s}")
    blocks = tuple(completion_block(ctx, m) for m in range(1, params.r + 1))
    return CompletionChoice(i=i, j=j, blocks=blocks)


def validate_completion(ctx: GroupContext, choice: CompletionChoice) -> None:
    """Raise if any chosen block collides with a forbidden mixing block."""
    params = ctx.params
    if len(choice.blocks) != params.r:
        raise ValueError(f"expected {params.r} blocks, got {len(choice.blocks)}")
    for m, block in enumerate(choice.blocks, start=1):
        if block in forbidden_blocks(ctx, m):
            raise ValueError(f"block for class {m} is forbidden")


def completion_code(ctx: GroupContext, choice: CompletionChoice) -> LineCode:
    """The r lines spanned by the i-th rows of (c^m | B_m), m = 1..r."""
    params = ctx.params
    if not 1 <= choice.i <= params.t:
        raise IndexOutOfRange(f"leading index {choice.i} not in 1..{params.t}")
    row = choice.i - 1
    lines = set()
    for m, block in enumerate(choice.blocks, start=1):
        gen = ctx.c_powers[m % params.r].rows[row] + block.rows[row]
        lines.add(canonical_line(ctx.tower, 2, gen))
    if len(lines) != params.r:
        raise InternalError("completion lines are not pairwise distinct")
    return frozenset(lines)


def tail_orbit(ctx: GroupContext, j: int) -> LineCode:
    """Orbit of the j-th unit line (j in t+1..s) under the order-r h2 subgroup."""
    params = ctx.params
    if not params.t + 1 <= j <= params.s:
        raise IndexOutOfRange(f"tail index {j} not in {params.t + 1}..{params.s}")
    lines = {canonical_line(ctx.tower, 2, g.rows[j - 1]) for g in ctx.h2_slow_powers()}
    if len(lines) != params.r:
        raise InternalError("tail orbit is smaller than r; stabilizer not trivial")
    return frozenset(lines)


# -- assembly -------------------------------------------------------------------


def line_partition(
    ctx: GroupContext, i: int, j: int, choice: CompletionChoice | None = None
) -> tuple[LineCode, LineCode, LineCode]:
    """The three line codes that partition the full line Grassmannian."""
    if choice is None:
        choice = default_completion(ctx, i, j)
    elif (choice.i, choice.j) != (i, j):
        raise ValueError(f"completion choice is for {(choice.i, choice.j)}, not {(i, j)}")
    return orbit_code(ctx, i), completion_code(ctx, choice), tail_orbit(ctx, j)


def spread_components(
    ctx: GroupContext, i: int, j: int, choice: CompletionChoice | None = None
) -> tuple[SubspaceCode, SubspaceCode, SubspaceCode]:
    """Field reduction of the three partition parts, in the same order."""
    parts = line_partition(ctx, i, j, choice)
    red = ctx.reduction()
    return tuple(red.reduce_code(part) for part in parts)  # type: ignore[return-value]


def assemble_spread(
    ctx: GroupContext, i: int, j: int, choice: CompletionChoice | None = None
) -> SubspaceCode:
    """The k-spread of F_q^n: union of the three reduced partition parts."""
    reduced = spread_components(ctx, i, j, choice)
    spread = frozenset().union(*reduced)
    expected = (ctx.params.q**ctx.params.n - 1) // (ctx.params.qk - 1)
    if len(spread) != expected:
        raise InternalError(f"spread has {len(spread)} members, expected {expected}")
    return spread
