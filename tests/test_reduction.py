"""The three field-reduction maps and their action equivariance."""

from __future__ import annotations

import random

import pytest

from spreadforge.construction import full_group, group_element
from spreadforge.errors import SingularInput
from spreadforge.gftower import field_build
from spreadforge.reduction import ReductionContext
from spreadforge.subspaces import (
    Matrix,
    canonical_line,
    canonical_subspace,
    companion_matrix,
    enumerate_lines,
    rank,
    rref,
    subspace_distance,
)

from conftest import PARAM_SETS


@pytest.fixture(scope="module")
def red_2122(ctx_2122):
    return ctx_2122.reduction()


@pytest.fixture(scope="module")
def red_2212(ctx_2212):
    return ctx_2212.reduction()


def test_rep_of_zero_and_one(red_2122):
    tower = red_2122.tower
    assert red_2122.matrix_rep(0).is_zero()
    assert red_2122.matrix_rep(1) == Matrix.identity(tower, 1, 2)


def _companion(tower):
    """Companion matrix of the F_q -> F_{q^k} step: the reference for matrix_rep."""
    return companion_matrix(tower, 1, tower.step_modulus(2))


def test_rep_of_generator_is_companion(red_2122):
    tower = red_2122.tower
    assert red_2122.matrix_rep(tower.alpha(2)) == _companion(tower)


def test_rep_of_square(red_2122):
    tower = red_2122.tower
    alpha = tower.alpha(2)
    assert red_2122.matrix_rep(tower.mul(2, alpha, alpha)) == _companion(tower)**2


# (3,1,2,1) has odd q; (2,2,2,2) has q = 4 and k = 2; (2,1,4,2) has k = 4
_REDUCTION_TOWERS = PARAM_SETS + [(3, 1, 2, 1), (2, 2, 2, 2), (2, 1, 4, 2)]


def _reference_reps(tower):
    """Index u -> sum_j b_j M^j, with b_j the base-q digits of u and M the companion matrix."""
    q, k = tower.cardinality(1), tower.steps[1].degree
    powers = [Matrix.identity(tower, 1, k)]
    for _ in range(k - 1):
        powers.append(powers[-1] * _companion(tower))
    reps = {}
    for u in range(tower.cardinality(2)):
        acc, rest = Matrix.zeros(tower, 1, k, k), u
        for power in powers:
            rest, b = divmod(rest, q)
            acc = acc + power.scale(b)
        reps[u] = acc
    return reps


@pytest.mark.parametrize("pekt", _REDUCTION_TOWERS)
def test_matrix_rep_and_reduce_line_match_the_companion_reference(pekt):
    tower = field_build(*pekt)
    red = ReductionContext(tower)
    reps = _reference_reps(tower)
    for u, expected in reps.items():
        assert red.matrix_rep(u) == expected
    lines = enumerate_lines(tower, 2, 2 * pekt[3])
    assert len(lines) <= 5000  # every line is checked, so keep the towers this small
    for line in lines:
        m = red.reduce_line(line).matrix
        assert rref(m)[0] == m
        reference = Matrix.block([[reps[u] for u in line.matrix.rows[0]]])
        assert m == canonical_subspace(reference).matrix


@pytest.mark.parametrize("pekt", [(2, 1, 2, 2), (2, 2, 1, 2)])
def test_rep_is_a_field_homomorphism_exhaustive(pekt):
    tower = field_build(*pekt)
    red = ReductionContext(tower)
    elems = range(tower.cardinality(2))
    reps = {u: red.matrix_rep(u) for u in elems}
    assert len(set(reps.values())) == len(elems)  # injective
    for u in elems:
        for v in elems:
            assert red.matrix_rep(tower.add(2, u, v)) == reps[u] + reps[v]
            assert red.matrix_rep(tower.mul(2, u, v)) == reps[u] * reps[v]


def test_reduce_unit_lines_are_block_units(ctx_2122, red_2122):
    tower, k, s = red_2122.tower, 2, 4
    z = Matrix.zeros(tower, 1, k, k)
    ident = Matrix.identity(tower, 1, k)
    for i in range(1, s + 1):
        blocks = [[ident if col == i - 1 else z for col in range(s)]]
        expected = Matrix.block(blocks)
        sub = red_2122.reduce_line(ctx_2122.unit_line(i))
        assert sub.matrix == expected


def test_reduce_line_is_identity_embedding_for_k1(ctx_2212, red_2212):
    # with k = 1 the map just strips the trivial top-level wrapper
    tower = red_2212.tower
    rng = random.Random(5)
    lines = sorted(enumerate_lines(tower, 2, 4), key=lambda l: l.key())
    for line in rng.sample(lines, 10):
        sub = red_2212.reduce_line(line)
        assert sub.dim == 1
        assert sub.matrix.rows == line.matrix.rows  # one coefficient, the same index


def test_reduce_line_refuses_a_member_that_is_not_a_line(red_2122):
    plane = canonical_subspace(Matrix(red_2122.tower, 2, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    with pytest.raises(ValueError, match="expects a line, got dimension 2"):
        red_2122.reduce_line(plane)


def test_distinct_lines_reduce_to_disjoint_subspaces(red_2122):
    tower = red_2122.tower
    lines = sorted(enumerate_lines(tower, 2, 4), key=lambda l: l.key())
    rng = random.Random(13)
    for _ in range(30):
        a, b = rng.sample(lines, 2)
        assert subspace_distance(red_2122.reduce_line(a), red_2122.reduce_line(b)) == 2 * 2


def test_embed_identity_and_scalar(ctx_2122, red_2122):
    tower, s, n = red_2122.tower, 4, 8
    assert red_2122.embed_matrix(Matrix.identity(tower, 2, s)) == Matrix.identity(tower, 1, n)
    scalar = Matrix.identity(tower, 2, s).scale(tower.alpha(2))
    embedded = red_2122.embed_matrix(scalar)
    z = Matrix.zeros(tower, 1, 2, 2)
    m_k = _companion(tower)
    expected = Matrix.block([[m_k if i == j else z for j in range(s)] for i in range(s)])
    assert embedded == expected


def test_embed_is_multiplicative_on_generators(ctx_2122, red_2122):
    h1, h2 = ctx_2122.h1, ctx_2122.h2
    assert red_2122.embed_matrix(h1 * h2) == red_2122.embed_matrix(h1) * red_2122.embed_matrix(h2)


def test_embed_is_multiplicative_sampled(red_2122):
    tower = red_2122.tower
    rng = random.Random(31)
    card = tower.cardinality(2)

    def random_invertible():
        for _ in range(1000):
            m = Matrix(tower, 2, [[rng.randrange(card) for _ in range(4)] for _ in range(4)])
            if rank(m) == 4:
                return m
        pytest.fail("no full-rank matrix in 1000 random draws")

    for _ in range(10):
        a, b = random_invertible(), random_invertible()
        assert red_2122.embed_matrix(a * b) == red_2122.embed_matrix(a) * red_2122.embed_matrix(b)


def test_embed_rejects_singular(red_2122):
    tower = red_2122.tower
    singular = Matrix.zeros(tower, 2, 4, 4)
    with pytest.raises(SingularInput):
        red_2122.embed_matrix(singular)


def test_equivariance_sampled(red_2122):
    # reduce(line . A) == reduce(line) . embed(A) on sampled invertible A
    tower = red_2122.tower
    lines = sorted(enumerate_lines(tower, 2, 4), key=lambda l: l.key())
    rng = random.Random(101)
    card = tower.cardinality(2)
    tested = draws = 0
    while tested < 10:
        draws += 1
        assert draws <= 1000, "fewer than 10 full-rank matrices in 1000 random draws"
        m = Matrix(tower, 2, [[rng.randrange(card) for _ in range(4)] for _ in range(4)])
        if rank(m) < 4:
            continue
        tested += 1
        embedded = red_2122.embed_matrix(m)
        for line in rng.sample(lines, 12):
            assert red_2122.reduce_line(line.apply(m)) == red_2122.reduce_line(line).apply(embedded)


def test_orbit_transport(ctx_2112):
    # reducing the whole-group orbit equals the orbit of the reduced generator
    red = ctx_2112.reduction()
    gen = ctx_2112.unit_line(1)
    line_orbit = frozenset(
        canonical_line(ctx_2112.tower, 2, g.rows[0]) for _, g in full_group(ctx_2112)
    )
    left = red.reduce_code(line_orbit)
    base = red.reduce_line(gen)
    right = frozenset(base.apply(red.embed_matrix(g)) for _, g in full_group(ctx_2112))
    assert left == right


def test_reduce_code_sizes(ctx_2122, red_2122):
    tower = red_2122.tower
    all_lines = enumerate_lines(tower, 2, 4)
    desarguesian = red_2122.reduce_code(all_lines)
    assert len(desarguesian) == (2**8 - 1) // (2**2 - 1) == 85
    single = frozenset([ctx_2122.unit_line(1)])
    assert len(red_2122.reduce_code(single)) == 1


def test_reduce_code_preserves_cardinality_on_orbit(ctx_2122):
    from spreadforge.construction import orbit_code

    red = ctx_2122.reduction()
    code = orbit_code(ctx_2122, 1)
    assert len(red.reduce_code(code)) == len(code) == 75


def test_block_formula_embeds_consistently(ctx_2112):
    # sanity bridge: embedding a closed-form group element equals embedding the product
    red = ctx_2112.reduction()
    for a, b in [(1, 1), (2, 3), (3, 1)]:
        g = group_element(ctx_2112, a, b)
        assert red.embed_matrix(g) == red.embed_matrix(ctx_2112.h1) ** a * red.embed_matrix(ctx_2112.h2) ** b
