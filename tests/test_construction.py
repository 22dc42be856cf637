"""Group build, closed-form elements, orbit codes, completion, and assembly."""

from __future__ import annotations

import hashlib
import itertools

import pytest

import spreadforge.construction as construction
from spreadforge.construction import (
    build_group,
    completion_block,
    completion_code,
    default_completion,
    exponent_class,
    forbidden_blocks,
    full_group,
    group_element_product,
    h2_subgroup,
    line_partition,
    orbit_code,
    scalar_subgroup,
    spread_components,
    spread_union,
    stabilizer_bruteforce,
    tail_orbit,
    transversal_subgroup,
    upper_right_block,
    upper_right_block_geometric,
    validate_params,
)
from spreadforge.errors import (
    CharacteristicTooLarge,
    ExponentOutOfRange,
    GcdConditionViolated,
    GroupTooLarge,
    IndexOutOfRange,
    InternalOrderCheckFailed,
    NonPrimeCharacteristic,
    TrivialGroup,
)
from spreadforge.cli import main
from spreadforge.codecs import completion_fingerprint
from spreadforge.subspaces import Matrix, SubspaceCode, canonical_line, enumerate_lines
from spreadforge.verify import codes_equal, desarguesian_oracle

from conftest import PARAM_SETS


# --- parameters ------------------------------------------------------------------


def test_validate_params_examples():
    p = validate_params(2, 1, 2, 2)
    assert (p.q, p.qk, p.s, p.n, p.r, p.max_exponent) == (2, 4, 4, 8, 5, 15)
    assert p.group_order == 225

    small = validate_params(2, 1, 1, 2)
    assert (small.n, small.r, small.max_exponent) == (4, 3, 3)


def test_validate_params_rejects_gcd_violation():
    with pytest.raises(GcdConditionViolated):
        validate_params(2, 1, 2, 3)  # gcd(3, 3) = 3


def test_validate_params_rejects_bad_characteristic():
    with pytest.raises(NonPrimeCharacteristic):
        validate_params(6, 1, 1, 2)
    # the alphabet bound is checked before primality: 49 is refused for its size
    with pytest.raises(CharacteristicTooLarge, match="exceeds the 36-symbol digit alphabet"):
        validate_params(49, 1, 1, 2)
    with pytest.raises(ValueError):
        validate_params(2, 1, 0, 2)


def test_validate_params_rejects_the_trivial_group():
    # q^kt = 2 asks for generators of order q^kt - 1 = 1; the gcd condition admits it
    with pytest.raises(TrivialGroup, match="trivial"):
        validate_params(2, 1, 1, 1)


# --- generators -------------------------------------------------------------------


def _order_by_powering(m: Matrix, bound: int) -> int:
    ident = Matrix.identity(m.tower, m.level, m.nrows)
    cur = m
    for i in range(1, bound + 1):
        if cur == ident:
            return i
        cur = cur * m
    raise AssertionError("order exceeds bound")


def test_small_group_generators_frozen(ctx_2112):
    # alpha = 1 and C = M_t = companion(x^2+x+1) at (2,1,1,2)
    tower = ctx_2112.tower
    assert ctx_2112.alpha == 1
    assert ctx_2112.c == ctx_2112.m_t
    assert ctx_2112.c.rows == ((0, 1), (1, 1))
    ident = Matrix.identity(tower, 2, 4)
    assert ctx_2112.h1**3 == ident
    assert _order_by_powering(ctx_2112.h1, 3) == 3


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_generator_orders_by_exhaustive_powering(contexts, pekt):
    ctx = contexts[pekt]
    n = ctx.params.max_exponent
    assert _order_by_powering(ctx.h1, n) == n
    assert _order_by_powering(ctx.h2, n) == n


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_generators_commute_and_cyclic_parts_meet_trivially(contexts, pekt):
    ctx = contexts[pekt]
    assert ctx.h1 * ctx.h2 == ctx.h2 * ctx.h1
    n = ctx.params.max_exponent
    ident = Matrix.identity(ctx.tower, 2, ctx.params.s)
    pow1, pow2 = set(), set()
    cur1 = cur2 = ident
    for _ in range(n):
        cur1, cur2 = cur1 * ctx.h1, cur2 * ctx.h2
        pow1.add(cur1)
        pow2.add(cur2)
    assert len(pow1) == len(pow2) == n
    assert pow1 & pow2 == {ident}


def test_build_group_checks_orders_past_two_to_the_sixteen(monkeypatch):
    # q^kt - 1 = 177146 is even, so h1^2 commutes with h2 but has half the order
    class SquaredH1(construction.GroupContext):
        def __init__(self, params, tower):
            super().__init__(params, tower)
            self.h1 = self.h1 * self.h1

    monkeypatch.setattr(construction, "GroupContext", SquaredH1)
    params = validate_params(3, 1, 11, 1)
    assert params.max_exponent == 177146 > 1 << 16
    with pytest.raises(InternalOrderCheckFailed, match="h1 does not have order"):
        build_group(params)


def test_build_group_is_deterministic():
    a = build_group(validate_params(2, 1, 2, 2))
    b = build_group(validate_params(2, 1, 2, 2))
    assert a.h1 == b.h1 and a.h2 == b.h2 and a.m_t == b.m_t


# --- the mixing block --------------------------------------------------------------


@pytest.mark.parametrize("pekt", [(2, 1, 1, 2), (2, 1, 2, 2)])
def test_mixing_block_zero_iff_equal_exponents(contexts, pekt):
    ctx = contexts[pekt]
    n = ctx.params.max_exponent
    zero = Matrix.zeros(ctx.tower, 2, ctx.params.t, ctx.params.t)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            block = upper_right_block(ctx, a, b)
            assert (block == zero) == (a == b), (a, b)


def test_mixing_block_small_example(ctx_2112):
    # alpha = 1 collapses the double sum for (a,b) = (2,1) to the single term C
    assert upper_right_block(ctx_2112, 2, 1) == ctx_2112.c


def _context(contexts, pekt):
    """The session context for a PARAM_SETS row, a fresh build for any other."""
    return contexts[pekt] if pekt in contexts else build_group(validate_params(*pekt))


@pytest.mark.parametrize("pekt", [(2, 1, 1, 2), (2, 1, 2, 2), (3, 1, 2, 1), (5, 1, 1, 1)])
def test_mixing_block_geometric_path_agrees(contexts, pekt):
    ctx = _context(contexts, pekt)
    n = ctx.params.max_exponent
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            assert upper_right_block_geometric(ctx, a, b) == upper_right_block(ctx, a, b)


def test_mixing_block_range_checks(ctx_2112):
    with pytest.raises(ExponentOutOfRange):
        upper_right_block(ctx_2112, 0, 1)
    with pytest.raises(ExponentOutOfRange):
        upper_right_block(ctx_2112, 1, 4)


# --- group elements: the product h1^a h2^b and its block formula ----------------------


def test_group_element_full_orders_give_identity(ctx_2122):
    n = ctx_2122.params.max_exponent
    assert group_element_product(ctx_2122, n, n) == Matrix.identity(ctx_2122.tower, 2, 4)


def test_group_element_small_example(ctx_2112):
    z = Matrix.zeros(ctx_2112.tower, 2, 2, 2)
    expected = Matrix.block([[ctx_2112.c, z], [z, ctx_2112.c]])
    assert group_element_product(ctx_2112, 1, 1) == expected


def _assert_block_formula(ctx, a, b):
    """h1^a h2^b = ((alpha^b c^a, U(a, b)), (0, alpha^a c^b)), U the mixing block."""
    zero = Matrix.zeros(ctx.tower, 2, ctx.params.t, ctx.params.t)
    expected = Matrix.block([[(ctx.c ** a).scale(ctx.alpha_power(b)), upper_right_block(ctx, a, b)],
                             [zero, (ctx.c ** b).scale(ctx.alpha_power(a))]])
    assert group_element_product(ctx, a, b) == expected, (a, b)


def test_group_element_matches_product_exhaustive(ctx_2112):
    n = ctx_2112.params.max_exponent
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            _assert_block_formula(ctx_2112, a, b)


@pytest.mark.parametrize("pekt", [(2, 1, 2, 2), (2, 2, 1, 2)])
def test_group_element_matches_product_all_pairs(contexts, pekt):
    # only 225 pairs exist at these parameters, so check them all
    ctx = contexts[pekt]
    n = ctx.params.max_exponent
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            _assert_block_formula(ctx, a, b)


# --- stabilizers ------------------------------------------------------------------------


def _scalar_exponents(params) -> frozenset:
    # (h1 h2)^(r m) reduced into 1..q^kt-1, for m = 1..q^k-1
    n = params.max_exponent
    out = set()
    for m in range(1, params.qk):
        x = (params.r * m - 1) % n + 1
        out.add((x, x))
    return frozenset(out)


def test_stabilizer_of_leading_lines(ctx_2122):
    expected = _scalar_exponents(ctx_2122.params)
    assert expected == frozenset({(5, 5), (10, 10), (15, 15)})
    for i in (1, 2):
        stab = stabilizer_bruteforce(ctx_2122, ctx_2122.unit_line(i))
        assert frozenset(stab) == expected
        matrices = {group_element_product(ctx_2122, a, b) for a, b in stab}
        assert matrices == set(scalar_subgroup(ctx_2122))


def test_stabilizer_trivial_when_middle_field_is_prime(ctx_2112):
    stab = stabilizer_bruteforce(ctx_2112, ctx_2112.unit_line(1))
    assert frozenset(stab) == frozenset({(3, 3)})


def test_stabilizer_of_tail_line_contains_h1(ctx_2122):
    n = ctx_2122.params.max_exponent
    stab = stabilizer_bruteforce(ctx_2122, ctx_2122.unit_line(3))
    h1_exponents = {(a, n) for a in range(1, n + 1)}
    assert h1_exponents <= set(stab)


def test_group_guard(ctx_2122, monkeypatch):
    monkeypatch.setattr(construction, "GROUP_ENUM_GUARD", 10)
    with pytest.raises(GroupTooLarge):
        stabilizer_bruteforce(ctx_2122, ctx_2122.unit_line(1))
    with pytest.raises(GroupTooLarge):
        next(full_group(ctx_2122))
    with pytest.raises(GroupTooLarge):
        transversal_subgroup(ctx_2122)


# --- orbit codes -----------------------------------------------------------------------


ORBIT_SIZES = {
    (2, 1, 1, 2): 9,
    (2, 1, 1, 3): 49,
    (2, 1, 2, 2): 75,
    (2, 2, 1, 2): 75,
}


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_orbit_code_sizes(contexts, pekt):
    ctx = contexts[pekt]
    params = ctx.params
    for i in range(1, params.t + 1):
        code = orbit_code(ctx, i)
        assert len(code) == ORBIT_SIZES[pekt]
        assert len(code) == params.max_exponent**2 // (params.qk - 1)


def test_orbit_code_index_range(ctx_2122):
    with pytest.raises(IndexOutOfRange):
        orbit_code(ctx_2122, 0)
    with pytest.raises(IndexOutOfRange):
        orbit_code(ctx_2122, 3)


@pytest.mark.parametrize("pekt", [(2, 1, 1, 2), (2, 1, 2, 2)])
def test_orbit_via_transversal_equals_full_group_orbit(contexts, pekt):
    ctx = contexts[pekt]
    for i in range(1, ctx.params.t + 1):
        via_t = orbit_code(ctx, i)
        via_h = SubspaceCode.of(canonical_line(ctx.tower, 2, g.rows[i - 1])
                                for _, g in full_group(ctx))
        assert codes_equal(via_t, via_h)


@pytest.mark.parametrize("pekt", [(2, 1, 1, 2), (2, 1, 2, 2)])
def test_subgroup_factorization(contexts, pekt):
    ctx = contexts[pekt]
    params = ctx.params
    ident = Matrix.identity(ctx.tower, 2, params.s)

    h2sub = set(h2_subgroup(ctx))
    assert len(h2sub) == params.r

    scalars = set(scalar_subgroup(ctx))
    assert len(scalars) == params.qk - 1
    # the scalar subgroup is exactly the r-th powers of h1 h2
    direct = {(ctx.h1 * ctx.h2) ** (params.r * m) for m in range(1, params.qk)}
    assert scalars == direct

    transversal = set(transversal_subgroup(ctx))
    assert len(transversal) == params.max_exponent * params.r
    assert scalars & transversal == {ident}
    assert len(scalars) * len(transversal) == params.group_order


# --- exponent classes and completion blocks ----------------------------------------------


def test_exponent_classes_frozen(ctx_2122):
    params = ctx_2122.params
    assert exponent_class(params, 1) == frozenset({1, 6, 11})
    assert exponent_class(params, 5) == frozenset({5, 10, 15})
    with pytest.raises(IndexOutOfRange):
        exponent_class(params, 0)
    with pytest.raises(IndexOutOfRange):
        exponent_class(params, 6)


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_exponent_classes_partition(contexts, pekt):
    params = contexts[pekt].params
    classes = [exponent_class(params, m) for m in range(1, params.r + 1)]
    union = set().union(*classes)
    assert union == set(range(1, params.max_exponent + 1))
    assert sum(len(c) for c in classes) == params.max_exponent


def test_completion_block_small_case_oracle(ctx_2112):
    # independent path: table of D values from literal matrix powers, then
    # a hand scan of the four candidates {0, I, C, I+C} in canonical order
    tower = ctx_2112.tower
    ident = Matrix.identity(tower, 2, 2)
    c = ctx_2112.c
    cpow = {0: ident, 1: c, 2: c * c, 3: c * c * c}

    def d_by_definition(a, b):
        acc = Matrix.zeros(tower, 2, 2, 2)
        for j in range(1, a + 1):
            acc = acc + cpow[(a + b - j) % 3]
        for j in range(1, b + 1):
            acc = acc - cpow[(a + b - j) % 3]
        return acc

    forbidden = {d_by_definition(1, ell) for ell in (1, 2, 3)}  # class A_1 = {1}
    candidates = [Matrix.zeros(tower, 2, 2, 2), ident, c, ident + c]
    survivors = [m for m in candidates if m not in forbidden]
    assert len(survivors) == 1
    assert completion_block(ctx_2112, 1) == survivors[0]
    assert survivors[0] == ident + c  # = C^2 for this parameter set


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_forbidden_block_count_and_zero_rule(contexts, pekt):
    ctx = contexts[pekt]
    params = ctx.params
    zero = Matrix.zeros(ctx.tower, 2, params.t, params.t)
    for m in range(1, params.r + 1):
        forbidden = forbidden_blocks(ctx, m)
        assert len(forbidden) <= params.max_exponent
        block = completion_block(ctx, m)
        assert block not in forbidden
        if zero not in forbidden:
            assert block == zero


@pytest.mark.parametrize("pekt", PARAM_SETS + [(3, 1, 1, 3), (5, 1, 1, 1)])
def test_completion_block_survivor_is_unique_and_code_forced(contexts, pekt):
    # scan the whole q^kt-element matrix field: the forbidden set always has
    # exactly q^kt - 1 distinct members, leaving a single survivor, so the
    # completion code admits no variation at all
    ctx = _context(contexts, pekt)
    params = ctx.params
    tower, qk = ctx.tower, params.qk
    mt_powers = [ctx.m_t**d for d in range(params.t)]
    for m in range(1, params.r + 1):
        forbidden = forbidden_blocks(ctx, m)
        assert len(forbidden) == params.max_exponent
        survivors = []
        for index in range(qk**params.t):
            cand = Matrix.zeros(tower, 2, params.t, params.t)
            rem = index
            for power in mt_powers:
                digit = rem % qk
                rem //= qk
                if digit:
                    cand = cand + power.scale(digit)
            if cand not in forbidden:
                survivors.append(cand)
        assert survivors == [completion_block(ctx, m)]


def test_completion_blocks_pinned_over_the_params_listing(capsys):
    # every row of `params --max-order 64`, odd characteristics included
    # (where the sign of -c^m matters); the digest was computed by an
    # exhaustive first-survivor search over the matrix field
    assert main(["params", "--max-order", "64"]) == 0
    rows = [tuple(map(int, line.split()[:4])) for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 41 and rows == sorted(rows)
    text = "".join(
        f"{p},{e},{k},{t}:"
        f"{completion_fingerprint(default_completion(build_group(validate_params(p, e, k, t))))}\n"
        for p, e, k, t in rows
    )
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest == "8d6caea15f442a73d7885d73795a9bb8fbdbf9f8663d87d181c2cf2048b67cb3"


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_completion_code_and_complement_identity(contexts, pekt):
    ctx = contexts[pekt]
    params = ctx.params
    everything = enumerate_lines(ctx.tower, 2, params.s)
    for i in range(1, params.t + 1):
        orbit = orbit_code(ctx, i)
        completion = completion_code(ctx, i)
        for j in range(params.t + 1, params.s + 1):
            tail = tail_orbit(ctx, j)
            assert len(completion) == len(tail) == params.r
            assert completion.keys == everything.keys - orbit.keys - tail.keys


def test_completion_choice_validation(ctx_2112):
    blocks = default_completion(ctx_2112)
    assert len(blocks) == ctx_2112.params.r
    for m, block in enumerate(blocks, start=1):
        assert block == completion_block(ctx_2112, m)
        assert block not in forbidden_blocks(ctx_2112, m)
    for i in (0, 3, 9):
        with pytest.raises(IndexOutOfRange):
            completion_code(ctx_2112, i)
    with pytest.raises(IndexOutOfRange):
        line_partition(ctx_2112, 1, 2)


ORBIT_SETS = PARAM_SETS + [(3, 1, 1, 3), (5, 1, 1, 1), (3, 1, 2, 1)]


@pytest.mark.parametrize("pekt", ORBIT_SETS)
def test_completion_code_is_the_closed_form_rows(contexts, pekt):
    # odd characteristics are where the sign of B_m = -c^m (alpha I - c)^{-1} shows
    ctx = _context(contexts, pekt)
    params = ctx.params
    for i in range(1, params.t + 1):
        reference = SubspaceCode.of(
            canonical_line(ctx.tower, 2, ctx.c_powers[m % params.r].rows[i - 1]
                           + completion_block(ctx, m).rows[i - 1])
            for m in range(1, params.r + 1)
        )
        assert len(reference) == params.r
        assert codes_equal(completion_code(ctx, i), reference)


@pytest.mark.parametrize("pekt", ORBIT_SETS)
def test_diag_c_is_a_power_of_h1_h2(contexts, pekt):
    # a = 0 mod q^k - 1 and a = 1 mod r, so (h1 h2)^a = diag(alpha^a c^a, alpha^a c^a) = diag(c, c)
    ctx = _context(contexts, pekt)
    params = ctx.params
    qk1 = params.qk - 1
    a = qk1 * pow(qk1, -1, params.r) % params.max_exponent or params.max_exponent
    assert a % qk1 == 0 and a % params.r == 1 % params.r
    zero = Matrix.zeros(ctx.tower, 2, params.t, params.t)
    assert group_element_product(ctx, a, a) == Matrix.block([[ctx.c, zero], [zero, ctx.c]])


def test_tail_orbit_is_all_zero_prefix_lines(ctx_2112):
    lines = tail_orbit(ctx_2112, 3)
    zero_prefix = SubspaceCode.of(
        line for line in enumerate_lines(ctx_2112.tower, 2, 4)
        if line.matrix.rows[0][0] == line.matrix.rows[0][1] == 0
    )
    assert codes_equal(lines, zero_prefix)
    assert len(lines) == 3


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_tail_orbit_zero_prefix_general(contexts, pekt):
    ctx = contexts[pekt]
    params = ctx.params
    for j in range(params.t + 1, params.s + 1):
        for line in tail_orbit(ctx, j):
            assert not any(line.matrix.rows[0][:params.t])


def test_tail_orbit_index_range(ctx_2122):
    with pytest.raises(IndexOutOfRange):
        tail_orbit(ctx_2122, 2)  # j must exceed t
    with pytest.raises(IndexOutOfRange):
        tail_orbit(ctx_2122, 5)


# --- assembly ---------------------------------------------------------------------------


def test_line_partition_small(ctx_2112):
    everything = enumerate_lines(ctx_2112.tower, 2, 4)
    for i, j in itertools.product((1, 2), (3, 4)):
        orbit, completion, tail = line_partition(ctx_2112, i, j)
        assert len(orbit) + len(completion) + len(tail) == 15
        assert orbit.keys | completion.keys | tail.keys == everything.keys
        assert not (orbit.keys & completion.keys or orbit.keys & tail.keys
                    or completion.keys & tail.keys)


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_spread_size_identity(contexts, spreads, pekt):
    ctx = contexts[pekt]
    params = ctx.params
    spread_size = (params.q**params.n - 1) // (params.qk - 1)
    assert len(spreads[pekt]) == spread_size
    reduced_orbit, _, _ = spread_components(ctx, 1, params.t + 1)
    assert len(reduced_orbit) + 2 * params.r == spread_size


def test_all_ij_choices_reach_the_same_spread(ctx_2122):
    reference = None
    for i, j in itertools.product((1, 2), (3, 4)):
        spread = spread_union(ctx_2122.params, spread_components(ctx_2122, i, j))
        if reference is None:
            reference = spread
        else:
            assert codes_equal(spread, reference)
    assert codes_equal(reference, desarguesian_oracle(ctx_2122.params, ctx_2122.tower))


def test_degenerate_t1_parameters_still_work():
    # r = 1: the completion and tail parts are singletons
    params = validate_params(2, 2, 1, 1)
    ctx = build_group(params)
    orbit, completion, tail = line_partition(ctx, 1, 2)
    assert (len(orbit), len(completion), len(tail)) == (3, 1, 1)
    assert orbit.keys | completion.keys | tail.keys == enumerate_lines(ctx.tower, 2, 2).keys


def test_k1_spread_is_the_full_line_grassmannian(ctx_2112, spreads):
    # with k = 1 the spread covers every 1-dimensional subspace of F_2^4
    assert codes_equal(spreads[(2, 1, 1, 2)], enumerate_lines(ctx_2112.tower, 1, 4))


@pytest.mark.parametrize(
    "pekt", [(2, 1, 1, 4), (2, 1, 3, 1), (2, 2, 2, 1), (5, 1, 2, 1), (3, 1, 2, 1), (13, 1, 1, 1)]
)
def test_extended_parameter_sweep(pekt):
    # odd characteristics, k = 3, and t = 1 degenerates all the way through
    from spreadforge.verify import Verdict, classify

    params = validate_params(*pekt)
    ctx = build_group(params)
    spread = spread_union(params, spread_components(ctx, 1, params.t + 1))
    report = classify(spread)
    assert report.verdict is Verdict.SPREAD
    assert report.min_distance == 2 * params.k
    assert codes_equal(spread, desarguesian_oracle(params, ctx.tower))
