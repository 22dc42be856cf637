"""Matrices, echelon forms, canonical lines/subspaces, and the subspace metric."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from spreadforge.errors import (
    AmbientMismatch,
    DimensionMismatch,
    KindMismatch,
    LevelMismatch,
    NonMonicModulus,
    RankDeficient,
    SingularInput,
    ZeroVector,
)
from spreadforge.gftower import FieldTower, field_build
from spreadforge.subspaces import (
    Matrix,
    SubspaceCode,
    canonical_line,
    canonical_subspace,
    companion_matrix,
    enumerate_lines,
    rank,
    row_packing,
    rref,
    subspace_distance,
    vector_matrix,
)


@pytest.fixture(scope="module")
def gf2():
    return field_build(2, 1, 1, 2)


@pytest.fixture(scope="module")
def gf4tower():
    return field_build(2, 2, 1, 2)


# --- rref / rank -------------------------------------------------------------


def test_rref_identity_and_zero(gf2):
    ident = Matrix.identity(gf2, 0, 3)
    reduced, rk = rref(ident)
    assert reduced == ident and rk == 3
    zero = Matrix.zeros(gf2, 0, 2, 4)
    reduced, rk = rref(zero)
    assert reduced == zero and rk == 0


def test_rref_hand_case_over_gf2(gf2):
    m = Matrix(gf2, 0, [[1, 1], [1, 1]])
    reduced, rk = rref(m)
    assert rk == 1
    assert reduced.rows == ((1, 1), (0, 0))


def _is_rref(m: Matrix) -> bool:
    pivots = []
    for row in m.rows:
        cols = [j for j, a in enumerate(row) if a]
        if not cols:
            pivots.append(None)
            continue
        if pivots and pivots[-1] is None:
            return False  # nonzero row after a zero row
        lead = cols[0]
        if pivots and pivots[-1] is not None and lead <= pivots[-1]:
            return False
        if row[lead] != 1:
            return False
        if any(other[lead] for other in m.rows if other is not row):
            return False
        pivots.append(lead)
    return True


def test_rref_idempotent_and_preserves_rowspace():
    tower = field_build(2, 1, 2, 2)
    rng = random.Random(7)
    for level in (0, 1, 2):
        card = tower.cardinality(level)
        for _ in range(20):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
            m = Matrix(tower, level, [
                [rng.randrange(card) for _ in range(ncols)] for _ in range(nrows)
            ])
            reduced, rk = rref(m)
            assert _is_rref(reduced)
            again, rk2 = rref(reduced)
            assert again == reduced and rk2 == rk
            assert rank(m) == rk
            stacked = Matrix(tower, level, m.rows + reduced.rows)
            assert rank(stacked) == rk


def _rowspace(m: Matrix) -> set:
    """Every combination of the rows, by the tower's index arithmetic alone."""
    tower, level = m.tower, m.level
    card = tower.cardinality(level)
    span = set()
    for coeffs in itertools.product(range(card), repeat=m.nrows):
        vec = [0] * m.ncols
        for c, row in zip(coeffs, m.rows):
            vec = [tower.add(level, a, tower.mul(level, c, b)) for a, b in zip(vec, row)]
        span.add(tuple(vec))
    return span


@pytest.mark.parametrize("pekt,level,nrows,ncols", [
    ((2, 1, 1, 2), 0, 2, 3),  # F_2
    ((3, 1, 1, 1), 0, 2, 3),  # F_3
    ((2, 2, 1, 2), 1, 2, 3),  # F_4
    ((3, 1, 2, 1), 2, 2, 2),  # F_9, sums through Zech logarithms
])
def test_elimination_against_exhaustive_rowspaces(pekt, level, nrows, ncols):
    # every matrix of the shape: the row space counted by enumeration fixes
    # the rank, and rref must keep that row space and be idempotent
    tower = field_build(*pekt)
    card = tower.cardinality(level)
    ident = Matrix.identity(tower, level, nrows)
    for flat in itertools.product(range(card), repeat=nrows * ncols):
        m = Matrix(tower, level, [flat[r * ncols:(r + 1) * ncols] for r in range(nrows)])
        span = _rowspace(m)
        rk = rank(m)
        assert card**rk == len(span)
        reduced, rk2 = rref(m)
        assert rk2 == rk and _is_rref(reduced)
        assert _rowspace(reduced) == span
        assert rref(reduced) == (reduced, rk)
        if nrows == ncols and rk == nrows:
            inv = m.inverse()
            assert m * inv == ident and inv * m == ident
        elif nrows == ncols:
            with pytest.raises(SingularInput):
                m.inverse()


# --- companion matrices --------------------------------------------------------


def test_companion_of_quadratic_over_gf2(gf2):
    m = companion_matrix(gf2, 0, (1, 1, 1))  # x^2 + x + 1
    assert m.rows == ((0, 1), (1, 1))


def test_companion_of_linear_polynomial():
    tower = field_build(3, 1, 1, 1)
    m = companion_matrix(tower, 0, (2, 1))  # x - 1
    assert m.rows == ((1,),)


def test_companion_requires_monic(gf4tower):
    alpha = 2  # the class of x in F_4
    with pytest.raises(NonMonicModulus):
        companion_matrix(gf4tower, 1, (alpha, alpha))
    with pytest.raises(NonMonicModulus):
        companion_matrix(gf4tower, 1, (1,))


@pytest.mark.parametrize("pekt", [(2, 1, 2, 2), (2, 2, 1, 2), (3, 1, 2, 1)])
def test_companion_is_annihilated_by_its_modulus(pekt):
    # the characteristic polynomial of the companion matrix is the modulus,
    # so substituting the matrix into the modulus must give zero
    tower = field_build(*pekt)
    for level in (1, 2, 3):
        modulus = tower.step_modulus(level)
        m = companion_matrix(tower, level - 1, modulus)
        acc = Matrix.zeros(tower, level - 1, m.nrows, m.ncols)
        power = Matrix.identity(tower, level - 1, m.nrows)
        for coeff in modulus:
            acc = acc + power.scale(coeff)
            power = power * m
        assert acc == Matrix.zeros(tower, level - 1, m.nrows, m.ncols)


# --- matrix algebra ---------------------------------------------------------------


def test_matrix_ring_axioms_sampled():
    tower = field_build(2, 2, 1, 2)
    rng = random.Random(99)
    card = tower.cardinality(1)
    rand = lambda: Matrix(tower, 1, [
        [rng.randrange(card) for _ in range(3)] for _ in range(3)
    ])
    ident = Matrix.identity(tower, 1, 3)
    for _ in range(10):
        a, b, c = rand(), rand(), rand()
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * ident == a and ident * a == a
    a = rand()
    assert a**4 == a * a * a * a
    assert a**0 == ident


def test_matrix_inverse_roundtrip():
    tower = field_build(2, 1, 2, 2)
    rng = random.Random(3)
    ident = Matrix.identity(tower, 2, 3)
    card = tower.cardinality(2)
    found = draws = 0
    while found < 5:
        draws += 1
        assert draws <= 1000, "fewer than 5 full-rank matrices in 1000 random draws"
        m = Matrix(tower, 2, [[rng.randrange(card) for _ in range(3)] for _ in range(3)])
        if rank(m) < 3:
            continue
        found += 1
        assert m * m.inverse() == ident
        assert m.inverse() * m == ident
        assert m**-2 == (m.inverse()) ** 2


def test_matrix_inverse_rejects_singular(gf2):
    singular = Matrix(gf2, 0, [[1, 1], [1, 1]])
    with pytest.raises(SingularInput):
        singular.inverse()
    with pytest.raises(SingularInput):
        Matrix(gf2, 0, [[1, 1]]).inverse()


def test_block_assembly(gf2):
    a = Matrix.identity(gf2, 0, 2)
    z = Matrix.zeros(gf2, 0, 2, 2)
    m = Matrix.block([[a, z], [z, a]])
    assert m == Matrix.identity(gf2, 0, 4)


def test_level_mismatch_in_matrix_ops():
    tower = field_build(2, 1, 2, 2)
    a = Matrix.identity(tower, 1, 2)
    b = Matrix.identity(tower, 2, 2)
    with pytest.raises(LevelMismatch):
        a * b
    with pytest.raises(LevelMismatch):
        a + b


def test_matrices_from_independent_builds_compare_equal():
    a = Matrix.identity(field_build(2, 1, 2, 2), 2, 3)
    b = Matrix.identity(field_build(2, 1, 2, 2), 2, 3)
    assert a == b and hash(a) == hash(b)


def test_vector_matrix_product(gf2):
    m = Matrix(gf2, 0, [[1, 1, 0], [0, 1, 1]])
    assert vector_matrix((1, 1), m) == (1, 0, 1)


def test_int_entries_keep_towers_apart():
    # F_8 from x^3 + x^2 + 1 (the search's choice) and from x^3 + x + 1: the
    # same indexes name different elements, so nothing may mix them
    default = FieldTower(2, (3,))
    alt = FieldTower(2, (3,), moduli=[(1, 1, 0)])
    assert default.step_modulus(1) != alt.step_modulus(1)
    rows = [[1, 2, 3], [4, 5, 6], [7, 0, 1]]
    a, b = Matrix(default, 1, rows), Matrix(alt, 1, rows)
    la, lb = canonical_line(default, 1, (1, 2, 3)), canonical_line(alt, 1, (1, 2, 3))
    assert a != b and la != lb
    assert a == Matrix(FieldTower(2, (3,)), 1, rows)  # an independent equal build
    for mixed in (lambda: a * b, lambda: a + b, lambda: a - b, lambda: Matrix.block([[a, b]]),
                  lambda: la.apply(b), lambda: lb.apply(a)):
        with pytest.raises(LevelMismatch):
            mixed()
    with pytest.raises(AmbientMismatch):
        subspace_distance(la, lb)


# --- distance -------------------------------------------------------------------


def _unit_subspace(tower, level, s, indexes):
    rows = [[int(j == i) for j in range(s)] for i in indexes]
    return canonical_subspace(Matrix(tower, level, rows))


def test_distance_examples(gf2):
    u = _unit_subspace(gf2, 0, 4, [0, 1])
    assert subspace_distance(u, u) == 0
    l1 = canonical_line(gf2, 0, (1, 0, 0, 0))
    l2 = canonical_line(gf2, 0, (0, 1, 0, 0))
    assert subspace_distance(l1, l2) == 2
    v = _unit_subspace(gf2, 0, 4, [1, 2])
    assert subspace_distance(u, v) == 2  # dim sum 3, dim intersection 1


def test_distance_ambient_mismatch(gf2):
    u = _unit_subspace(gf2, 0, 4, [0])
    v = _unit_subspace(gf2, 0, 3, [0])
    with pytest.raises(AmbientMismatch):
        subspace_distance(u, v)


def _all_planes_of_f2_4(gf2):
    # every 2-dimensional subspace of F_2^4, by canonicalizing all rank-2 pairs
    vectors = [tuple((i >> b) & 1 for b in range(4)) for i in range(1, 16)]
    planes = set()
    for a, b in itertools.combinations(vectors, 2):
        m = Matrix(gf2, 0, [a, b])
        if rank(m) == 2:
            planes.add(canonical_subspace(m))
    return sorted(planes, key=lambda s: s.rows)


def test_f2_4_plane_census_and_metric(gf2):
    planes = _all_planes_of_f2_4(gf2)
    assert len(planes) == 35  # Gaussian binomial [4 choose 2]_2
    rng = random.Random(11)
    for _ in range(60):
        u, v, w = (planes[rng.randrange(35)] for _ in range(3))
        duv = subspace_distance(u, v)
        assert duv == subspace_distance(v, u)
        assert (duv == 0) == (u == v)
        assert duv <= subspace_distance(u, w) + subspace_distance(w, v)


def test_distance_matches_direct_intersection_count(gf2):
    # oracle: intersection dimension from explicit vector sets
    planes = _all_planes_of_f2_4(gf2)
    rng = random.Random(23)
    for _ in range(40):
        u, v = planes[rng.randrange(35)], planes[rng.randrange(35)]
        shared = set(u.pack.span(u.rows)[1:]) & set(v.pack.span(v.rows)[1:])
        dim_meet = round(math.log2(len(shared) + 1))
        assert subspace_distance(u, v) == 2 * (2 - dim_meet)


def test_distance_law_on_all_pairs_of_a_built_code(spreads):
    # every pair from a real constructed code, both evaluation paths
    members = sorted(spreads[(2, 1, 1, 2)], key=lambda s: s.rows)
    vectors = {s: set(s.pack.span(s.rows)[1:]) for s in members}
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            u, v = members[a], members[b]
            shared = vectors[u] & vectors[v]
            dim_meet = round(math.log2(len(shared) + 1))
            assert subspace_distance(u, v) == 2 * (u.dim - dim_meet)


# --- enumeration and canonical forms ----------------------------------------------


@pytest.mark.parametrize(
    "pekt,level,s,count",
    [
        ((2, 1, 1, 2), 2, 4, 15),
        ((2, 2, 1, 2), 2, 4, 85),
        ((2, 1, 1, 2), 2, 1, 1),
        ((2, 2, 1, 2), 2, 2, 5),
    ],
)
def test_enumerate_lines_counts(pekt, level, s, count):
    tower = field_build(*pekt)
    lines = enumerate_lines(tower, level, s)
    card = tower.cardinality(level)
    assert len(lines) == count == (card**s - 1) // (card - 1)
    for line in lines:
        assert line.dim == 1 and next(a for a in line.matrix.rows[0] if a) == 1


def test_canonical_line_scaling(gf4tower):
    alpha = 2  # the class of x in F_4
    line = canonical_line(gf4tower, 1, (0, alpha, alpha))
    assert line.matrix.rows == ((0, 1, 1),)
    assert canonical_line(gf4tower, 1, line.matrix.rows[0]) == line  # idempotent
    assert line == canonical_subspace(Matrix(gf4tower, 1, [(0, alpha, alpha)]))
    with pytest.raises(ZeroVector):
        canonical_line(gf4tower, 1, (0, 0, 0))


def test_canonical_subspace_rejects_dependent_rows(gf2):
    with pytest.raises(RankDeficient):
        canonical_subspace(Matrix(gf2, 0, [[1, 1], [1, 1]]))


def test_line_action(gf2):
    line = canonical_line(gf2, 0, (1, 0))
    swap = Matrix(gf2, 0, [[0, 1], [1, 0]])
    assert line.apply(swap) == canonical_line(gf2, 0, (0, 1))


# --- codes: one packing, one int key per member ---------------------------------------


def test_member_keys_round_trip_and_grow_with_dimension(gf4tower):
    # F_4 entries, two lanes each; every dimension of F_4^4
    pack = row_packing(gf4tower, 1, 4)
    rng = random.Random("keys")
    subs = []
    while len(subs) < 60:
        k = rng.randint(1, 4)
        m = Matrix(gf4tower, 1, [[rng.randrange(4) for _ in range(4)] for _ in range(k)])
        if rank(m) == k:
            subs.append(canonical_subspace(m))
    for sub in subs:
        key = pack.join(sub.rows)
        assert pack.split(key) == sub.rows and pack.dim(key) == sub.dim
    dims = [pack.dim(key) for key in sorted(pack.join(s.rows) for s in subs)]
    assert dims == sorted(dims) and set(dims) == {1, 2, 3, 4}
    for dim in (1, 2, 3, 4):
        members = [s for s in subs if s.dim == dim]
        code = SubspaceCode.of(members)
        assert set(code) == set(members) and len(code) == len(set(members))
        assert code.dim == dim


def test_code_of_checks_that_members_share_one_space(gf2, gf4tower):
    line = canonical_line(gf2, 1, (1, 0, 1, 1))
    assert SubspaceCode.of([line, line]).keys == {line.rows[0]}
    with pytest.raises(AmbientMismatch):  # another ambient dimension
        SubspaceCode.of([line, canonical_line(gf2, 1, (1, 0, 1))])
    with pytest.raises(AmbientMismatch):  # another level
        SubspaceCode.of([line, canonical_line(gf2, 0, (1, 0, 1, 1))])
    with pytest.raises(AmbientMismatch):  # the same entries over F_4
        SubspaceCode.of([line, canonical_line(gf4tower, 1, (1, 0, 1, 1))])
    with pytest.raises(ValueError):
        SubspaceCode.of([])
    empty = SubspaceCode(row_packing(gf4tower, 1, 4), ())
    assert len(empty) == 0 and list(empty) == []


def test_code_of_refuses_members_of_two_dimensions(gf2):
    # a code's members share one dimension, as an orbit code's do
    line = canonical_line(gf2, 1, (1, 0, 1, 1))
    plane = canonical_subspace(Matrix(gf2, 1, [[1, 0, 1, 1], [0, 1, 0, 0]]))
    for members in ([line, plane], [plane, line], [plane, plane, line]):
        with pytest.raises(DimensionMismatch):
            SubspaceCode.of(members)


def test_codes_compare_only_within_one_space(gf2, gf4tower):
    f2 = SubspaceCode.of([canonical_line(gf2, 1, (1, 0, 1, 1))])
    f4 = SubspaceCode.of([canonical_line(gf4tower, 1, (1, 0, 1, 1))])
    with pytest.raises(KindMismatch, match="field"):
        f2.check_comparable(f4)
    with pytest.raises(KindMismatch, match="level or ambient"):
        f2.check_comparable(SubspaceCode.of([canonical_line(gf2, 1, (1, 0, 1))]))
    f2.check_comparable(SubspaceCode(f4.pack, ()))  # a code with no member fits any
