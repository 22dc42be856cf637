"""Distance oracles, classification, and cross-path agreement."""

from __future__ import annotations

import itertools
import random

import pytest

from spreadforge import verify
from spreadforge.construction import (
    build_group,
    full_group,
    orbit_code,
    scalar_subgroup,
    spread_components,
    spread_union,
    transversal_subgroup,
    validate_params,
)
from spreadforge.errors import (
    CodeTooSmall,
    CommandRefused,
    InternalError,
    KindMismatch,
    TrivialOrbit,
)
from spreadforge.gftower import FieldTower, field_build
from spreadforge.reduction import ReductionContext
from spreadforge.subspaces import (
    Matrix,
    SubspaceCode,
    canonical_subspace,
    enumerate_lines,
    rank,
    subspace_distance,
)
from spreadforge.verify import (
    Verdict,
    classify,
    codes_equal,
    desarguesian_oracle,
    min_distance,
    orbit_min_distance,
    pairwise_min_distance,
)

from conftest import PARAM_SETS, count_calls


# --- pairwise distance -----------------------------------------------------


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_spread_distance_is_2k(spreads, pekt):
    k = pekt[2]
    assert pairwise_min_distance(spreads[pekt]) == 2 * k


def test_reduced_orbit_distance(ctx_2122):
    reduced_orbit, _, _ = spread_components(ctx_2122, 1, 3)
    assert pairwise_min_distance(reduced_orbit) == 4


def test_line_code_distance(ctx_2112):
    assert pairwise_min_distance(orbit_code(ctx_2112, 1)) == 2


def test_singleton_distance_is_zero(ctx_2112):
    single = SubspaceCode.of([ctx_2112.unit_line(1)])
    assert pairwise_min_distance(single) is None  # no pair to rank
    assert min_distance(single) == 0


# --- bucketed distance against every pairwise rank ------------------------------------


def _subspace(tower, level, rows):
    return canonical_subspace(Matrix(tower, level, rows))


def _random_code(tower, level, n, k, size, seed):
    rng = random.Random(seed)
    card = tower.cardinality(level)
    code = set()
    for _ in range(1000):
        if len(code) == size:
            return SubspaceCode.of(code)
        m = Matrix(tower, level, [[rng.randrange(card) for _ in range(n)] for _ in range(k)])
        if rank(m) == k:
            code.add(canonical_subspace(m))
    pytest.fail(f"fewer than {size} distinct {k}-spaces in 1000 random draws")


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_bucketed_distance_on_spreads_and_components(contexts, spreads, pekt):
    ctx = contexts[pekt]
    for code in (spreads[pekt], *spread_components(ctx, 1, ctx.params.t + 1)):
        assert min_distance(code) == pairwise_min_distance(code)


@pytest.mark.parametrize("pekt, level, n, k, size", [
    ((2, 1, 1, 2), 0, 5, 2, 20),   # F_2
    ((3, 1, 1, 2), 0, 4, 2, 12),   # F_3
    ((2, 2, 1, 2), 1, 4, 2, 10),   # F_4
    ((2, 1, 1, 2), 0, 6, 3, 16),   # F_2, k = 3
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bucketed_distance_on_colliding_random_codes(pekt, level, n, k, size, seed):
    code = _random_code(field_build(*pekt), level, n, k, size, seed)
    brute = pairwise_min_distance(code)
    assert brute < 2 * k  # some pair shares a vector
    assert min_distance(code) == brute


def test_bucketed_distance_when_every_pair_collides(monkeypatch):
    # the seven planes of F_2^4 through e1 pairwise meet in exactly <e1>
    tower = field_build(2, 1, 1, 2)
    code = SubspaceCode.of(_subspace(tower, 0, [[1, 0, 0, 0], [0, *u]])
                           for u in itertools.product(range(2), repeat=3) if any(u))
    calls = count_calls(monkeypatch, verify, "subspace_distance")
    assert min_distance(code) == pairwise_min_distance(code) == 2
    assert len(calls) == 21  # the 21 pairs, ranked by pairwise_min_distance alone


def test_bucketed_distance_ranks_pairs_whose_shared_vectors_are_held_earlier():
    # b and c share the plane <e1, e2>, but each of its three nonzero
    # vectors first appears in a different earlier member
    tower = field_build(2, 1, 1, 2)
    rows = [
        [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],  # holds e1
        [[0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]],  # holds e2
        [[1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, 1]],  # holds e1 + e2
        [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],  # b
        [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]],  # c
    ]
    code = SubspaceCode.of(_subspace(tower, 0, r) for r in rows)
    assert min_distance(code) == pairwise_min_distance(code) == 2


def test_bucketed_distance_falls_back_past_the_coverage_guard(monkeypatch):
    # the seven planes of F_2^4 through e1: no certificate holds, so every pair is ranked,
    # and past PAIR_GUARD pairs that is refused before any pair is ranked
    tower = field_build(2, 1, 1, 2)
    code = SubspaceCode.of(_subspace(tower, 0, [[1, 0, 0, 0], [0, *u]])
                           for u in itertools.product(range(2), repeat=3) if any(u))
    reference = pairwise_min_distance(code)
    monkeypatch.setattr(verify, "COVERAGE_GUARD", 20)
    calls = count_calls(monkeypatch, verify, "pairwise_min_distance")
    assert min_distance(code) == reference == 2
    assert len(calls) == 1
    monkeypatch.setattr(verify, "PAIR_GUARD", 20)
    with pytest.raises(CommandRefused, match="21 member pairs to rank, PAIR_GUARD is 20"):
        min_distance(code)
    assert len(calls) == 1


def test_vector_pass_is_refused_past_the_pair_guard(monkeypatch):
    # the seven planes of F_2^4 through e1: all 21 pairs share e1, one more than PAIR_GUARD
    tower = field_build(2, 1, 1, 2)
    code = SubspaceCode.of(_subspace(tower, 0, [[1, 0, 0, 0], [0, *u]])
                           for u in itertools.product(range(2), repeat=3) if any(u))
    monkeypatch.setattr(verify, "PAIR_GUARD", 20)
    ranks = count_calls(monkeypatch, verify, "subspace_distance")
    for decide in (min_distance, classify):
        with pytest.raises(CommandRefused, match="share a nonzero vector than PAIR_GUARD, 20$"):
            decide(code)
    assert ranks == []


@pytest.mark.parametrize("guard", [14, verify.COVERAGE_GUARD])
@pytest.mark.parametrize("pekt", [(2, 1, 1, 2), (2, 1, 2, 2)])
def test_certified_distance_ranks_no_pair_and_skips_the_vector_pass(spreads, monkeypatch,
                                                                     pekt, guard):
    # points of F_2^4, and F_4-lines reduced into F_2^8: each pair meets in 0, at 2k
    code = spreads[pekt]
    monkeypatch.setattr(verify, "COVERAGE_GUARD", guard)
    calls = count_calls(monkeypatch, verify, "pairwise_min_distance")
    ranks = count_calls(monkeypatch, verify, "subspace_distance")
    passes = count_calls(monkeypatch, verify, "_shared_vectors")
    assert min_distance(code) == 2 * pekt[2]
    assert calls == [] and ranks == [] and passes == []


def test_vector_pass_is_gated_on_the_vectors_it_holds(ctx_2122, monkeypatch):
    # the seven planes of F_2^4 through e1 hold 7 * 3 = 21 vectors; no certificate holds
    tower = field_build(2, 1, 1, 2)
    code = SubspaceCode.of(_subspace(tower, 0, [[1, 0, 0, 0], [0, *u]])
                           for u in itertools.product(range(2), repeat=3) if any(u))
    reference = pairwise_min_distance(code)
    monkeypatch.setattr(verify, "COVERAGE_GUARD", 100)
    calls = count_calls(monkeypatch, verify, "pairwise_min_distance")
    assert min_distance(code) == reference == 2
    assert not calls
    # the reduced Bj part of (2,1,2,2) holds 5 * 3 = 15 vectors of a space of q^n = 256
    assert classify(spread_components(ctx_2122, 1, 3)[2]).coverage_count == 15


def test_bucketed_distance_of_a_singleton_is_zero(ctx_2112):
    assert min_distance(SubspaceCode.of([ctx_2112.unit_line(1)])) == 0


# --- orbit-formula distance ------------------------------------------------------


def _images(generator, elements):
    """The generator's image under each group element, by the s x s matrix product."""
    return (generator.apply(g) for g in elements)


def test_orbit_formula_matches_bruteforce_small(ctx_2112):
    gen = ctx_2112.unit_line(1)
    via_formula = orbit_min_distance(gen, _images(gen, (g for _, g in full_group(ctx_2112))))
    via_brute = pairwise_min_distance(orbit_code(ctx_2112, 1))
    assert via_formula == via_brute == 2


def test_orbit_formula_on_reduced_side(ctx_2122):
    # act on the reduced generator with the embedded transversal subgroup
    red = ReductionContext(ctx_2122.tower)
    (base,) = red.reduce_code(SubspaceCode.of([ctx_2122.unit_line(1)]))
    embedded = [red.embed_matrix(g) for g in transversal_subgroup(ctx_2122)]
    reduced_orbit, _, _ = spread_components(ctx_2122, 1, 3)
    assert orbit_min_distance(base, _images(base, embedded)) == \
        pairwise_min_distance(reduced_orbit) == 4


def test_trivial_orbit_raises(ctx_2122):
    # scalar matrices stabilize every line
    with pytest.raises(TrivialOrbit):
        gen = ctx_2122.unit_line(1)
        orbit_min_distance(gen, _images(gen, scalar_subgroup(ctx_2122)))


def test_orbit_formula_line_level(ctx_2122):
    gen = ctx_2122.unit_line(1)
    whole_group = (g for _, g in full_group(ctx_2122))
    assert orbit_min_distance(gen, _images(gen, whole_group)) == 2


# --- classification ------------------------------------------------------------------


def test_classify_spread(spreads):
    report = classify(spreads[(2, 1, 2, 2)])
    assert report.verdict is Verdict.SPREAD
    assert report.cardinality == 85
    assert report.constant_dimension and report.dimension == 2
    assert report.ambient == 8 and report.field_order == 2
    assert report.min_distance == 4
    assert report.pairwise_trivial
    assert report.coverage_count == 255
    assert report.spread_bound == 85
    assert report.partial_spread_bound == 85  # n mod k == 0


def test_classify_partial_spread(ctx_2122):
    reduced_orbit, _, _ = spread_components(ctx_2122, 1, 3)
    report = classify(reduced_orbit)
    assert report.verdict is Verdict.PARTIAL_SPREAD
    assert report.cardinality == 75 <= report.partial_spread_bound == 85
    assert report.coverage_count == 75 * 3


def test_classify_singleton(ctx_2122):
    reduced_orbit, _, _ = spread_components(ctx_2122, 1, 3)
    single = SubspaceCode.of(list(reduced_orbit)[:1])
    report = classify(single)
    assert report.verdict is Verdict.CONSTANT_DIMENSION
    assert report.min_distance == 0 and report.cardinality == 1


def test_classify_rejects_empty(spreads):
    with pytest.raises(CodeTooSmall):
        classify(SubspaceCode(spreads[(2, 1, 1, 2)].pack, ()))


def test_classify_line_codes(ctx_2122):
    all_lines = enumerate_lines(ctx_2122.tower, 2, 4)
    report = classify(all_lines)
    assert report.verdict is Verdict.SPREAD
    assert report.field_order == 4 and report.ambient == 4
    assert report.coverage_count == 4**4 - 1

    partial = classify(orbit_code(ctx_2122, 1))
    assert partial.verdict is Verdict.PARTIAL_SPREAD
    assert partial.cardinality == 75


def test_classify_ranks_no_pair_of_lines(monkeypatch):
    # distinct lines meet only in 0; the tower is the one a kind=lines file's header
    # builds, F_2 < F_2 < F_2, which has no next field for the certificate to use
    lines = enumerate_lines(FieldTower(2, (1, 1)), 2, 10)

    def refuse(u, v):
        raise AssertionError("classify ranked a pair of lines")

    monkeypatch.setattr(verify, "subspace_distance", refuse)
    report = classify(lines)
    assert (report.cardinality, report.dimension, report.min_distance) == (1023, 1, 2)
    assert report.pairwise_trivial and report.coverage_count == 1023
    assert report.verdict is Verdict.SPREAD


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_three_spread_criteria_agree(contexts, spreads, pekt):
    ctx = contexts[pekt]
    params = ctx.params
    report = classify(spreads[pekt])
    # criterion 1: all pairwise distances equal 2k
    assert report.min_distance == 2 * params.k and report.pairwise_trivial
    # criterion 2: cardinality meets the spread bound
    assert report.cardinality == report.spread_bound
    # criterion 3: coverage of every nonzero vector without collisions
    assert report.coverage_count == params.q**params.n - 1
    assert report.coverage_count == report.cardinality * (params.qk - 1)
    assert report.verdict is Verdict.SPREAD


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_components_satisfy_partial_spread_bound(contexts, pekt):
    ctx = contexts[pekt]
    params = ctx.params
    bound = (params.q**params.n - 1) // (params.qk - 1)
    for part in spread_components(ctx, 1, params.t + 1):
        report = classify(part)
        assert report.cardinality <= bound
        assert report.pairwise_trivial


# --- classification against a brute-force reference ----------------------------------


def _reference_report(code):
    """(verdict, min distance, pairwise trivial, coverage) from every pairwise rank."""
    subs = list(code)
    pack = subs[0].pack
    q, n = pack.tower.cardinality(pack.level), pack.ncols
    dists = [subspace_distance(a, b) for a, b in itertools.combinations(subs, 2)]
    coverage = len({v for s in subs for v in s.pack.span(s.rows)[1:]})
    k = subs[0].dim
    trivial = all(d == 2 * k for d in dists)
    if trivial and n % k == 0 and len(subs) == (q**n - 1) // (q**k - 1):
        verdict = Verdict.SPREAD
    elif trivial and 2 <= len(subs) <= (q**n - q**(n % k)) // (q**k - 1):
        verdict = Verdict.PARTIAL_SPREAD
    else:
        verdict = Verdict.CONSTANT_DIMENSION
    return verdict, min(dists, default=0), trivial, coverage


def _report_tuple(report):
    return report.verdict, report.min_distance, report.pairwise_trivial, report.coverage_count


@pytest.fixture(scope="module")
def certified_codes(contexts):
    """Spread and Ci, Ai, Bj at PARAM_SETS, (3,1,1,3) and (3,1,2,1), by parameter set."""
    ctxs = dict(contexts)
    for pekt in ((3, 1, 1, 3), (3, 1, 2, 1)):
        ctxs[pekt] = build_group(validate_params(*pekt))
    return {
        pekt: [spread_union(ctx.params, parts), *parts]
        for pekt, ctx in ctxs.items()
        for parts in [spread_components(ctx, 1, ctx.params.t + 1)]
    }


@pytest.mark.parametrize("pekt", [*PARAM_SETS, (3, 1, 1, 3), (3, 1, 2, 1)])
def test_classify_matches_reference_and_ranks_no_pair(certified_codes, monkeypatch, pekt):
    for code in certified_codes[pekt]:
        reference = _reference_report(code)
        calls = count_calls(monkeypatch, verify, "pairwise_min_distance")
        assert _report_tuple(classify(code)) == reference
        assert calls == []


def _field_lines(tower, s, size, seed):
    """A seeded sample of the reduced lines of F_{q^2}^s: members the certificate accepts."""
    lines = sorted(enumerate_lines(tower, 2, s), key=lambda line: line.rows)
    sample = SubspaceCode.of(random.Random(seed).sample(lines, size))
    return ReductionContext(tower).reduce_code(sample)


def _collision_free_code(tower, n, k, size, seed):
    """Seeded random k-spaces of F^n at level 1, pairwise meeting in 0."""
    rng = random.Random(seed)
    card = tower.cardinality(1)
    code, seen = [], set()
    for _ in range(1000):
        if len(code) == size:
            return SubspaceCode.of(code)
        m = Matrix(tower, 1, [[rng.randrange(card) for _ in range(n)] for _ in range(k)])
        if rank(m) == k:
            sub = canonical_subspace(m)
            vectors = set(sub.pack.span(sub.rows)[1:])
            if not vectors & seen:
                code.append(sub)
                seen |= vectors
    pytest.fail(f"fewer than {size} pairwise disjoint {k}-spaces in 1000 random draws")


# level 1 of these towers is F_q under a degree-2 step: the certificate is tried on 2-spaces
CERTIFICATE_TOWERS = [((2, 1, 2, 2), 8, 20), ((3, 1, 2, 1), 4, 6)]


@pytest.mark.parametrize("pekt, n, size", CERTIFICATE_TOWERS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_classify_matches_reference_on_random_codes(monkeypatch, pekt, n, size, seed):
    tower = field_build(*pekt)
    colliding = _random_code(tower, 1, n, 2, size, seed)
    disjoint = _collision_free_code(tower, n, 2, size // 2, seed)
    certified = _field_lines(tower, n // 2, size // 2, seed)
    mixed = SubspaceCode.of(sorted(certified, key=lambda s: s.rows)[1:] + [next(iter(colliding))])
    calls = count_calls(monkeypatch, verify, "pairwise_min_distance")
    for code in (colliding, disjoint, certified, mixed):
        assert _report_tuple(classify(code)) == _reference_report(code)
    assert calls == []  # within COVERAGE_GUARD the pass decides what the certificate does not
    assert _reference_report(colliding)[1] < 4  # some pair shares a vector
    assert _reference_report(disjoint)[2]


def test_classify_list_with_a_repeated_member(spreads):
    # a code is a set of member keys: the repeat is held once
    members = sorted(spreads[(2, 1, 2, 2)], key=lambda s: s.rows)
    code = SubspaceCode.of(members + members[:1])
    assert codes_equal(code, spreads[(2, 1, 2, 2)])
    report = classify(code)
    assert _report_tuple(report) == _reference_report(code)
    assert report.verdict is Verdict.SPREAD and report.cardinality == 85


def test_classify_spread_with_one_member_swapped(spreads):
    spread = spreads[(2, 1, 2, 2)]
    tower = spread.pack.tower
    outsider = next(s for s in _random_code(tower, 1, 8, 2, 20, 7) if s not in spread)
    code = SubspaceCode.of(sorted(spread, key=lambda s: s.rows)[1:] + [outsider])
    report = classify(code)
    assert _report_tuple(report) == _reference_report(code)
    assert report.verdict is Verdict.CONSTANT_DIMENSION and report.min_distance < 4
    assert min_distance(code) == pairwise_min_distance(code) == report.min_distance


# --- classification: every InternalError branch, by fault injection ---------------------


def _colliding_code():
    return _random_code(field_build(2, 1, 2, 2), 1, 8, 2, 20, 1)


def test_classify_refuses_every_pair_past_the_pair_guard(spreads, monkeypatch):
    # 20 uncertified 2-spaces of F_2^8 hold 60 vectors, past a COVERAGE_GUARD of 59, so
    # every pair is ranked: 190 pairs, refused before any rank; the certified spread has 3,570
    code = _colliding_code()
    monkeypatch.setattr(verify, "COVERAGE_GUARD", 59)
    monkeypatch.setattr(verify, "PAIR_GUARD", 189)
    ranks = count_calls(monkeypatch, verify, "subspace_distance")
    with pytest.raises(CommandRefused, match="190 member pairs to rank, PAIR_GUARD is 189"):
        classify(code)
    assert ranks == []
    monkeypatch.setattr(verify, "PAIR_GUARD", 190)
    report = classify(code)
    assert report.coverage_count is None and len(ranks) == 190
    assert _report_tuple(report)[:3] == _reference_report(code)[:3]
    assert classify(spreads[(2, 1, 2, 2)]).verdict is Verdict.SPREAD


def test_classify_raises_when_the_certificate_is_wrong(monkeypatch):
    monkeypatch.setattr(verify, "_lines_over_next_level", lambda subs: True)
    with pytest.raises(InternalError, match="vector pass and independent distance path"):
        classify(_colliding_code())


def _faulty_pass(monkeypatch, fault):
    """Patch the vector pass to hand its (coverage, counts) through `fault` first."""
    shared_vectors = verify._shared_vectors
    monkeypatch.setattr(verify, "_shared_vectors", lambda code: fault(*shared_vectors(code)))


def test_classify_raises_when_the_brute_force_path_is_wrong(monkeypatch):
    # one pair's count off by one: it is no q^m - 1 whose 2k - 2m is that pair's rank distance
    def miscount(coverage, counts):
        pair = next(iter(counts))
        return coverage, {**counts, pair: counts[pair] + 1}

    _faulty_pass(monkeypatch, miscount)
    with pytest.raises(InternalError, match="vector pass and independent distance path"):
        classify(_colliding_code())


def test_classify_raises_when_ranks_contradict_the_coverage_count(monkeypatch):
    # a pass that names no sharing pair decides distance 2k, which its own coverage refutes
    _faulty_pass(monkeypatch, lambda coverage, counts: (coverage, {}))
    with pytest.raises(InternalError, match="coverage count and pairwise ranks"):
        classify(_colliding_code())


def test_classify_raises_when_the_spread_bound_contradicts_coverage(ctx_2122, monkeypatch):
    reduced_orbit, _, _ = spread_components(ctx_2122, 1, 3)
    monkeypatch.setattr(verify, "_spread_bounds", lambda q, n, k: (85, len(reduced_orbit)))
    with pytest.raises(InternalError, match="coverage-based and rank-based spread tests"):
        classify(reduced_orbit)


# --- oracles -----------------------------------------------------------------------------


ORACLE_SIZES = {
    (2, 1, 1, 2): 15,
    (2, 1, 1, 3): 63,
    (2, 1, 2, 2): 85,
    (2, 2, 1, 2): 85,
}


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_desarguesian_oracle_is_a_spread(contexts, pekt):
    ctx = contexts[pekt]
    oracle = desarguesian_oracle(ctx.params, ctx.tower)
    assert len(oracle) == ORACLE_SIZES[pekt]
    assert classify(oracle).verdict is Verdict.SPREAD


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_assembled_spread_equals_oracle(contexts, spreads, pekt):
    ctx = contexts[pekt]
    assert codes_equal(spreads[pekt], desarguesian_oracle(ctx.params, ctx.tower))


def test_codes_equal_basics(ctx_2122, spreads):
    spread = spreads[(2, 1, 2, 2)]
    assert codes_equal(spread, spread)
    reduced_orbit, _, _ = spread_components(ctx_2122, 1, 3)
    assert not codes_equal(reduced_orbit, spread)
    with pytest.raises(KindMismatch):
        codes_equal(orbit_code(ctx_2122, 1), spread)


def test_codes_equal_ambient_mismatch(ctx_2112, ctx_2113):
    with pytest.raises(KindMismatch):
        codes_equal(orbit_code(ctx_2112, 1), orbit_code(ctx_2113, 1))


def test_pipeline_invariance_across_independent_builds():
    params = validate_params(2, 1, 2, 2)
    first = spread_union(params, spread_components(build_group(params), 1, 3))
    second = spread_union(params, spread_components(build_group(params), 1, 3))
    assert codes_equal(first, second)


def test_spread_invariant_under_aux_modulus():
    # any primitive degree-t modulus yields the same spread set: the final
    # spread equals the reduction of the full line Grassmannian, which only
    # depends on the middle step
    params = validate_params(2, 1, 2, 2)
    default = spread_union(params, spread_components(build_group(params), 1, 3))
    alt_tower = FieldTower(2, (1, 2, 2), moduli=[None, None, (2, 2)])
    alt = spread_union(params, spread_components(build_group(params, alt_tower), 1, 3))
    assert codes_equal(default, alt)


def test_spread_depends_on_middle_step_modulus():
    # the two primitive quadratics over F_3 give genuinely different spread
    # sets, which is why the deterministic smallest-modulus rule matters
    params = validate_params(3, 1, 2, 1)
    towers = [
        FieldTower(3, (1, 2, 1), moduli=[None, (2, 1), None]),
        FieldTower(3, (1, 2, 1), moduli=[None, (2, 2), None]),
    ]
    first, second = (desarguesian_oracle(params, tw) for tw in towers)
    assert not codes_equal(first, second)
    assert len(first.keys & second.keys) == 4  # they do share a few members


def test_full_group_orbit_distance_equals_reduced(ctx_2112):
    # equivariance bridge: line-level orbit distance scales by k under reduction
    params = ctx_2112.params
    gen = ctx_2112.unit_line(1)
    line_d = orbit_min_distance(gen, _images(gen, (g for _, g in full_group(ctx_2112))))
    reduced_orbit, _, _ = spread_components(ctx_2112, 1, params.t + 1)
    assert params.k * line_d == pairwise_min_distance(reduced_orbit)


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_orbit_formula_agrees_on_every_orbit_code(contexts, pekt):
    # both distance paths, for every orbit code this construction produces
    ctx = contexts[pekt]
    params = ctx.params
    for i in range(1, params.t + 1):
        whole_group = (g for _, g in full_group(ctx))
        assert orbit_min_distance(ctx.unit_line(i), _images(ctx.unit_line(i), whole_group)) == \
            pairwise_min_distance(orbit_code(ctx, i))
    if params.r >= 2:
        from spreadforge.construction import h2_subgroup, tail_orbit

        for j in range(params.t + 1, params.s + 1):
            gen = ctx.unit_line(j)
            via_formula = orbit_min_distance(gen, _images(gen, h2_subgroup(ctx)))
            assert via_formula == pairwise_min_distance(tail_orbit(ctx, j))
