"""Acceptance suite: every headline claim, one criterion per test.

Each test prints a single pass/fail line (visible with `pytest -s`) and
enforces its runtime budget.  All quantities are exact integers, so every
comparison is equality with zero tolerance.
"""

from __future__ import annotations

import functools
import random
import time
from pathlib import Path

import pytest

from spreadforge import codecs
from spreadforge.cli import main as cli_main
from spreadforge.construction import (
    full_group,
    group_element_product,
    h2_subgroup,
    line_partition,
    orbit_code,
    scalar_subgroup,
    stabilizer_bruteforce,
    transversal_subgroup,
    upper_right_block,
)
from spreadforge.gftower import field_build
from spreadforge.reduction import ReductionContext
from spreadforge.subspaces import Matrix, SubspaceCode, canonical_line, enumerate_lines, rank
from spreadforge.verify import (
    Verdict,
    classify,
    codes_equal,
    desarguesian_oracle,
)

from conftest import PARAM_SETS

GOLDEN_DIR = Path(__file__).parent / "golden"

LINE_COUNTS = {(2, 1, 1, 2): 15, (2, 1, 1, 3): 63, (2, 1, 2, 2): 85, (2, 2, 1, 2): 85}
ORBIT_SIZES = {(2, 1, 1, 2): 9, (2, 1, 1, 3): 49, (2, 1, 2, 2): 75, (2, 2, 1, 2): 75}
SPREAD_SIZES = LINE_COUNTS
COVERAGE = {(2, 1, 1, 2): 15, (2, 1, 1, 3): 63, (2, 1, 2, 2): 255, (2, 2, 1, 2): 255}
MIN_DISTANCES = {(2, 1, 1, 2): 2, (2, 1, 1, 3): 2, (2, 1, 2, 2): 4, (2, 2, 1, 2): 2}


def criterion(number: int, title: str, budget: float | None = None):
    """Wrap a test so it reports `criterion NN title: PASS/FAIL [secs]`."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            ok = False
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if budget is not None and elapsed >= budget:
                    raise AssertionError(f"runtime {elapsed:.2f}s exceeds {budget}s budget")
                ok = True
            finally:
                elapsed = time.perf_counter() - start
                print(f"criterion {number:02d} {title}: {'PASS' if ok else 'FAIL'} "
                      f"[{elapsed:.2f}s]")

        return wrapper

    return decorate


def _incremental_powers(m: Matrix, n: int) -> list[Matrix]:
    """[m^1, ..., m^n] by repeated multiplication."""
    out = [m]
    for _ in range(n - 1):
        out.append(out[-1] * m)
    return out


@criterion(1, "generator laws", budget=5.0)
def test_criterion_01_generator_laws(contexts):
    for pekt in PARAM_SETS:
        ctx = contexts[pekt]
        n = ctx.params.max_exponent
        ident = Matrix.identity(ctx.tower, 2, ctx.params.s)
        pows1 = _incremental_powers(ctx.h1, n)
        pows2 = _incremental_powers(ctx.h2, n)
        # orders are exactly q^kt - 1
        assert pows1[-1] == ident and ident not in pows1[:-1]
        assert pows2[-1] == ident and ident not in pows2[:-1]
        assert ctx.h1 * ctx.h2 == ctx.h2 * ctx.h1
        assert set(pows1) & set(pows2) == {ident}


@criterion(2, "mixing-block law", budget=5.0)
def test_criterion_02_mixing_block_law(contexts):
    for pekt in [(2, 1, 1, 2), (2, 1, 2, 2)]:
        ctx = contexts[pekt]
        n = ctx.params.max_exponent
        pows1 = _incremental_powers(ctx.h1, n)
        pows2 = _incremental_powers(ctx.h2, n)
        zero = Matrix.zeros(ctx.tower, 2, ctx.params.t, ctx.params.t)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                block = upper_right_block(ctx, a, b)
                assert (block == zero) == (a == b)
                # h1^a h2^b = ((alpha^b c^a, block), (0, alpha^a c^b))
                assert pows1[a - 1] * pows2[b - 1] == Matrix.block([
                    [(ctx.c ** a).scale(ctx.alpha_power(b)), block],
                    [zero, (ctx.c ** b).scale(ctx.alpha_power(a))]])


@criterion(3, "stabilizer subgroup", budget=5.0)
def test_criterion_03_stabilizer(ctx_2122):
    params = ctx_2122.params
    n, r = params.max_exponent, params.r
    expected_exponents = frozenset(
        ((r * m - 1) % n + 1, (r * m - 1) % n + 1) for m in range(1, params.qk)
    )
    scalar_set = set(scalar_subgroup(ctx_2122))
    assert len(scalar_set) == 3
    for i in (1, 2):
        stab = stabilizer_bruteforce(ctx_2122, ctx_2122.unit_line(i))
        assert len(stab) == 3
        assert frozenset(stab) == expected_exponents
        assert {group_element_product(ctx_2122, a, b) for a, b in stab} == scalar_set


@criterion(4, "subgroup factorization", budget=10.0)
def test_criterion_04_subgroups(contexts):
    for pekt in [(2, 1, 1, 2), (2, 1, 2, 2)]:
        ctx = contexts[pekt]
        params = ctx.params
        ident = Matrix.identity(ctx.tower, 2, params.s)
        assert len(set(h2_subgroup(ctx))) == params.r
        scalars = set(scalar_subgroup(ctx))
        transversal = set(transversal_subgroup(ctx))
        assert scalars & transversal == {ident}
        assert len(scalars) * len(transversal) == params.group_order
        for i in range(1, params.t + 1):
            via_h = SubspaceCode.of(canonical_line(ctx.tower, 2, g.rows[i - 1])
                                    for _, g in full_group(ctx))
            assert codes_equal(via_h, orbit_code(ctx, i))


@criterion(5, "orbit sizes")
def test_criterion_05_orbit_sizes(contexts):
    for pekt in PARAM_SETS:
        ctx = contexts[pekt]
        params = ctx.params
        for i in range(1, params.t + 1):
            code = orbit_code(ctx, i)
            assert len(code) == ORBIT_SIZES[pekt]
            assert len(code) == params.max_exponent**2 // (params.qk - 1)


@criterion(6, "grassmannian partition", budget=30.0)
def test_criterion_06_partition(contexts):
    for pekt in PARAM_SETS:
        ctx = contexts[pekt]
        params = ctx.params
        everything = enumerate_lines(ctx.tower, 2, params.s)
        assert len(everything) == LINE_COUNTS[pekt]
        for i in range(1, params.t + 1):
            for j in range(params.t + 1, params.s + 1):
                orbit, completion, tail = line_partition(ctx, i, j)
                assert len(completion) == len(tail) == params.r
                assert not orbit.keys & completion.keys
                assert not orbit.keys & tail.keys
                assert not completion.keys & tail.keys
                assert orbit.keys | completion.keys | tail.keys == everything.keys


@criterion(7, "final spread", budget=60.0)
def test_criterion_07_final_spread(contexts, spreads):
    for pekt in PARAM_SETS:
        ctx = contexts[pekt]
        params = ctx.params
        spread = spreads[pekt]
        assert codes_equal(spread, desarguesian_oracle(params, ctx.tower))
        report = classify(spread)
        assert report.verdict is Verdict.SPREAD
        assert report.cardinality == SPREAD_SIZES[pekt]
        assert report.coverage_count == COVERAGE[pekt]
        assert report.min_distance == MIN_DISTANCES[pekt] == 2 * params.k


@criterion(8, "partial-spread facts")
def test_criterion_08_partial_spread_facts(contexts):
    for pekt in PARAM_SETS:
        ctx = contexts[pekt]
        params = ctx.params
        spread_size = (params.q**params.n - 1) // (params.qk - 1)
        red = ReductionContext(ctx.tower)
        for i in range(1, params.t + 1):
            reduced = red.reduce_code(orbit_code(ctx, i))
            assert len(reduced) + 2 * params.r == spread_size
            assert len(reduced) <= spread_size


@criterion(9, "map laws", budget=30.0)
def test_criterion_09_map_laws(ctx_2122):
    # representation is a field homomorphism, exhaustively, wherever q^k <= 16
    for pekt in PARAM_SETS:
        tower = field_build(*pekt)
        if tower.cardinality(2) > 16:
            continue
        red = ReductionContext(tower)
        elems = range(tower.cardinality(2))
        reps = {u: red.matrix_rep(u) for u in elems}
        for u in elems:
            for v in elems:
                assert red.matrix_rep(tower.add(2, u, v)) == reps[u] + reps[v]
                assert red.matrix_rep(tower.mul(2, u, v)) == reps[u] * reps[v]

    # action equivariance over every line and 100 sampled invertible matrices
    red = ReductionContext(ctx_2122.tower)
    tower = red.tower
    lines = sorted(enumerate_lines(tower, 2, 4), key=lambda l: l.rows)
    assert len(lines) == 85
    rng = random.Random(424242)
    card = tower.cardinality(2)
    sampled = draws = 0
    while sampled < 100:
        draws += 1
        assert draws <= 1000, "fewer than 100 full-rank matrices in 1000 random draws"
        m = Matrix(tower, 2, [[rng.randrange(card) for _ in range(4)] for _ in range(4)])
        if rank(m) < 4:
            continue
        sampled += 1
        embedded = red.embed_matrix(m)
        for line in lines:
            (moved,), (reduced,) = (red.reduce_code(SubspaceCode(x.pack, x.rows))
                                    for x in (line.apply(m), line))
            assert moved == reduced.apply(embedded)


@criterion(10, "determinism and golden files")
def test_criterion_10_determinism(tmp_path):
    flags = ["construct", "--p", "2", "--e", "1", "--k", "2", "--t", "2"]
    assert cli_main(flags + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(flags + ["--out", str(tmp_path / "b")]) == 0
    fresh_a = (tmp_path / "a" / "spread.code").read_bytes()
    fresh_b = (tmp_path / "b" / "spread.code").read_bytes()
    assert fresh_a == fresh_b
    for name in ("ci.code", "ai.code", "bj.code", "spread.code"):
        golden = (GOLDEN_DIR / "p2e1k2t2" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() == golden
    # the committed small-parameter golden is reproduced as well
    assert cli_main(["construct", "--p", "2", "--e", "1", "--k", "1", "--t", "2",
                     "--out", str(tmp_path / "small")]) == 0
    for name in ("ci.code", "ai.code", "bj.code", "spread.code"):
        golden = (GOLDEN_DIR / "p2e1k1t2" / name).read_bytes()
        assert (tmp_path / "small" / name).read_bytes() == golden


def test_golden_files_parse_and_verify():
    for params_dir in ("p2e1k1t2", "p2e1k2t2"):
        header, code = codecs.read_code((GOLDEN_DIR / params_dir / "spread.code").read_text())
        assert classify(code).verdict is Verdict.SPREAD
