"""Differential tests: the packed-row paths against int-list reference paths.

Every vector computation in the library runs on packed rows (see
:mod:`spreadforge.subspaces`), and so does every elimination: rank, RREF,
inverse and canonical subspaces.  The references below compute on rows of
element indexes through the tower's scalar arithmetic, entry by entry, and
eliminate by a Gauss-Jordan of their own.  Both must agree exactly.
"""

from __future__ import annotations

import itertools
import random

import pytest

from spreadforge import codecs, verify
from spreadforge.construction import (
    build_group,
    line_partition,
    spread_components,
    spread_union,
    validate_params,
)
from spreadforge.errors import MalformedHeader, NonCanonicalMember, RankDeficient, SingularInput
from spreadforge.gftower import DIGIT_ALPHABET, field_build, to_digits
from spreadforge.reduction import ReductionContext
from spreadforge.subspaces import (
    Matrix,
    SubspaceCode,
    canonical_subspace,
    companion_matrix,
    enumerate_lines,
    rank,
    rref,
    row_packing,
    subspace_distance,
    vector_matrix,
)

from conftest import PARAM_SETS

# (3,1,2,1) and (3,2,2,1) put the line certificate at odd p with k = 2
POINTS = [*PARAM_SETS, (3, 1, 1, 3), (2, 2, 2, 2), (3, 1, 2, 1), (3, 2, 2, 1)]
SAMPLE = 150  # members per code that the slower references visit


# -- int-list references ------------------------------------------------------------


def ref_vectors(sub) -> list[tuple[int, ...]]:
    """Every nonzero coefficient combination times the basis, as index tuples."""
    card = sub.pack.tower.cardinality(sub.pack.level)
    m = sub.matrix
    return [vector_matrix(c, m) for c in itertools.product(range(card), repeat=sub.dim) if any(c)]


def ref_rref(m: Matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """RREF (zero rows last) and rank: each pivot row is scaled to 1 and its
    column cleared in every other row as soon as the pivot is found."""
    tower, level = m.tower, m.level
    rows = [list(r) for r in m.rows]
    rk = 0
    for col in range(m.ncols):
        pivot = next((r for r in range(rk, m.nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = tower.inv(level, rows[rk][col])
        top = rows[rk] = [tower.mul(level, inv, a) for a in rows[rk]]
        for r, row in enumerate(rows):
            if r != rk and row[col]:
                c = tower.neg(level, row[col])
                rows[r] = [tower.add(level, a, tower.mul(level, c, b)) for a, b in zip(row, top)]
        rk += 1
    return tuple(map(tuple, rows)), rk


def ref_rank(m: Matrix) -> int:
    return ref_rref(m)[1]


def ref_inverse(m: Matrix) -> tuple[tuple[int, ...], ...] | None:
    """The inverse's rows, read off the RREF of (m | I); None when m is singular."""
    n = m.nrows
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    reduced, _ = ref_rref(Matrix(m.tower, m.level, [a + b for a, b in zip(m.rows, ident)]))
    if tuple(row[:n] for row in reduced) != ident:
        return None
    return tuple(row[n:] for row in reduced)


def ref_distance(u, v) -> int:
    stacked = Matrix(u.pack.tower, u.pack.level, u.matrix.rows + v.matrix.rows)
    return 2 * ref_rank(stacked) - u.dim - v.dim


def ref_shared_vectors(subs) -> tuple[int, dict]:
    """Coverage, and (i, j) -> how many nonzero vectors members i < j share, for sharing pairs."""
    holders: dict = {}
    counts: dict = {}
    for idx, s in enumerate(subs):
        for v in ref_vectors(s):
            earlier = holders.setdefault(v, [])
            for h in earlier:
                counts[h, idx] = counts.get((h, idx), 0) + 1
            earlier.append(idx)
    return len(holders), counts


def ref_lines_over_next_level(subs) -> bool:
    first = subs[0]
    tower, level, n = first.pack.tower, first.pack.level, first.pack.ncols
    if level + 1 >= tower.nlevels:
        return False
    d = tower.steps[level].degree
    if n % d or any(s.dim != d for s in subs) or len(set(subs)) != len(subs):
        return False
    m = companion_matrix(tower, level, tower.step_modulus(level + 1))
    zero, blocks = Matrix.zeros(tower, level, d, d), range(n // d)
    diag = Matrix.block([[m if a == b else zero for b in blocks] for a in blocks])
    return all(ref_rank(Matrix(tower, level, s.matrix.rows + (s.matrix * diag).rows)) == d
               for s in subs)


def ref_reduced_rows(red: ReductionContext, line) -> tuple[tuple[int, ...], ...]:
    """Row l: the base-q digits of alpha^l u, over the entries u of the line's row."""
    tower, g = red.tower, line.matrix.rows[0]
    powers = [1]  # alpha^0 .. alpha^{k-1}, by repeated products
    for _ in range(red.k - 1):
        powers.append(tower.mul(2, powers[-1], tower.alpha(2)))
    q = tower.cardinality(1)
    return tuple(tuple(d for u in g for d in to_digits(tower.mul(2, a, u), q, red.k))
                 for a in powers)


def ref_parse_member(tower, level, nrows, width, record):
    """The exception type the element-index parser raised on a record, or None."""
    span = tower.digit_length(level)
    strings = ["".join(DIGIT_ALPHABET[d] for d in to_digits(i, tower.p, span))
               for i in range(tower.cardinality(level))]
    index = {text: i for i, text in enumerate(strings)}
    rows = record.split(";")
    if len(rows) != nrows:
        return MalformedHeader
    parsed = []
    for row in rows:
        if len(row) != width * span:
            return MalformedHeader
        entries = [index.get(row[pos:pos + span]) for pos in range(0, len(row), span)]
        if None in entries:
            return MalformedHeader
        parsed.append(entries)
    matrix = Matrix(tower, level, parsed)
    return None if ref_rref(matrix) == (matrix.rows, nrows) else NonCanonicalMember


# -- codes under test -------------------------------------------------------------------


def _random_subspaces(tower, n, dims, size, rng, pool=None):
    """Up to `size` distinct seeded random subspaces of F_q^n with dimensions from `dims`;
    with a `pool` of vectors, each one's first basis vector is drawn from it."""
    card = tower.cardinality(1)
    out = set()
    for _ in range(20 * size):
        if len(out) == size:
            break
        k = rng.choice(dims)
        rows = [[rng.randrange(card) for _ in range(n)] for _ in range(k)]
        if pool:
            rows[0] = rng.choice(pool)
        m = Matrix(tower, 1, rows)
        if ref_rank(m) == k:
            out.add(canonical_subspace(m))
    return sorted(out, key=lambda s: s.rows)


@pytest.fixture(scope="module")
def codes(contexts):
    """pekt -> (context, named codes): the spread, its parts, the line parts, and
    seeded codes of dimensions k, k + 1 ("colliding-d") and 1, 2, 3 ("mixed-d")
    whose first basis vectors come from a pool of four, so those of dimension
    d > 1 collide.  A code has one dimension, so each seeded draw is split by it."""
    out = {}
    for pekt in POINTS:
        ctx = contexts.get(pekt) or build_group(validate_params(*pekt))
        params, rng = ctx.params, random.Random(f"packed/{pekt}")
        pool = [[rng.randrange(params.q) for _ in range(params.n)] for _ in range(4)]
        parts = spread_components(ctx, 1, params.t + 1)
        named = {
            "spread": spread_union(params, parts),
            "Ci": parts[0], "Ai": parts[1], "Bj": parts[2],
            "Ci-lines": line_partition(ctx, 1, params.t + 1)[0],
        }
        for label, dims in (("colliding", [params.k, params.k + 1]), ("mixed", [1, 2, 3])):
            for sub in _random_subspaces(ctx.tower, params.n, dims, 40, rng, pool):
                named.setdefault(f"{label}-{sub.dim}", []).append(sub)
        out[pekt] = ctx, {name: sorted(code, key=lambda s: s.rows) for name, code in named.items()}
    return out


def _collides(name, members):
    """Whether a code of the fixture shares a vector: distinct lines never do."""
    return name.startswith(("colliding-", "mixed-")) and members[0].dim > 1


def _sample(members, seed):
    if len(members) <= SAMPLE:
        return members
    return random.Random(seed).sample(members, SAMPLE)


# -- the differential tests ----------------------------------------------------------------


@pytest.mark.parametrize("pekt", POINTS)
def test_nonzero_vectors_match_reference(codes, pekt):
    _, named = codes[pekt]
    for name, members in named.items():
        for sub in _sample(members, name):
            packed = [sub.pack.entries(v) for v in sub.pack.span(sub.rows)[1:]]
            reference = ref_vectors(sub)
            assert len(packed) == len(set(packed)) == len(reference)
            assert set(packed) == set(reference)


@pytest.mark.parametrize("pekt", POINTS)
def test_rank_matches_reference(codes, pekt):
    ctx, _ = codes[pekt]
    rng = random.Random(f"rank/{pekt}")
    for level in (0, 1, 2):
        card = ctx.tower.cardinality(level)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            rows = [[rng.randrange(card) for _ in range(ncols)] for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.5:  # a dependent row: a sum of two others
                a, b = rng.sample(range(nrows), 2)
                rows[rng.randrange(nrows)] = [ctx.tower.add(level, x, y)
                                              for x, y in zip(rows[a], rows[b])]
            m = Matrix(ctx.tower, level, rows)
            assert rank(m) == ref_rank(m)


def _elimination_inputs(tower, level, rng):
    """Seeded matrices at one level: random ones, and ones with a zero row, a
    repeated row or a dependent row; every third one square, so singular too."""
    card, add, mul = tower.cardinality(level), tower.add, tower.mul
    yield Matrix.zeros(tower, level, 2, 3)
    for trial in range(45):
        nrows = rng.randint(1, 5)
        ncols = nrows if trial % 3 == 0 else rng.randint(1, 6)
        rows = [[rng.randrange(card) for _ in range(ncols)] for _ in range(nrows)]
        target = rng.randrange(nrows)
        shape = trial % 4
        if shape == 1:
            rows[target] = [0] * ncols
        elif shape == 2 and nrows > 1:
            rows[target] = list(rows[target - 1])
        elif shape == 3 and nrows > 2:  # c a + d b for two other rows a, b
            a, b = (rows[i] for i in rng.sample([i for i in range(nrows) if i != target], 2))
            c, d = rng.randrange(card), rng.randrange(card)
            rows[target] = [add(level, mul(level, c, x), mul(level, d, y)) for x, y in zip(a, b)]
        yield Matrix(tower, level, rows)


@pytest.mark.parametrize("pekt", [(2, 1, 2, 2), (3, 1, 2, 1), (2, 2, 2, 2), (5, 1, 1, 2),
                                  (11, 1, 2, 1)])
def test_elimination_matches_reference(pekt):
    # lane widths 1, 3, 4 and 5, and up to m = 4 digits an entry at level 2 of (2,2,2,2)
    tower = field_build(*pekt)
    rng = random.Random(f"elimination/{pekt}")
    for level in (0, 1, 2):
        for m in _elimination_inputs(tower, level, rng):
            rows, rk = ref_rref(m)
            assert rref(m) == (Matrix(tower, level, rows), rk)
            assert rank(m) == rk
            if rk == m.nrows:
                assert canonical_subspace(m).matrix.rows == rows
            else:
                with pytest.raises(RankDeficient):
                    canonical_subspace(m)
            if m.nrows == m.ncols:
                inverse = ref_inverse(m)
                if inverse is None:
                    with pytest.raises(SingularInput):
                        m.inverse()
                else:
                    assert m.inverse().rows == inverse


@pytest.mark.parametrize("pekt", POINTS)
def test_subspace_distance_matches_reference(codes, pekt):
    _, named = codes[pekt]
    rng = random.Random(f"distance/{pekt}")
    for members in named.values():
        for _ in range(40):
            u, v = rng.choice(members), rng.choice(members)
            if u.pack.ncols == v.pack.ncols:
                assert subspace_distance(u, v) == ref_distance(u, v)


@pytest.mark.parametrize("pekt", POINTS)
def test_shared_vectors_match_reference(codes, pekt):
    _, named = codes[pekt]
    for name, members in named.items():
        code = SubspaceCode.of(_sample(members, name))
        subs = list(code)  # the pass's order, so the reference's index pairs name its key pairs
        coverage, counts = verify._shared_vectors(code)
        ref_coverage, ref_counts = ref_shared_vectors(subs)
        keys = [code.pack.join(s.rows) for s in subs]
        assert (coverage, counts) == (
            ref_coverage, {(keys[i], keys[j]): c for (i, j), c in ref_counts.items()})
        assert bool(counts) == _collides(name, members)


# Planes of F_2^8 at (2,1,2,2) that are no F_4-line: {e1, e3}, whose first row is a
# normalized F_4 row, and {e2, e3}, whose F_4 lead entry is alpha.
NON_LINES = {(2, 1, 2, 2): {"e1-e3": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0]],
                            "e2-e3": [[0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0]]}}


@pytest.mark.parametrize("pekt", POINTS)
def test_certificate_matches_reference(codes, pekt):
    ctx, named = codes[pekt]
    inputs = {name: _sample(members, name) for name, members in named.items()}
    for label, rows in NON_LINES.get(pekt, {}).items():
        plane = canonical_subspace(Matrix(ctx.tower, 1, rows))
        inputs[label] = [plane]
        inputs[f"spread+{label}"] = inputs["spread"][:20] + [plane]
    for name, subs in inputs.items():
        expected = ref_lines_over_next_level(subs)
        assert verify._lines_over_next_level(SubspaceCode.of(subs)) == expected
        if name in ("spread", "Ci", "Ai", "Bj"):
            assert expected
        elif name.removeprefix("spread+") in NON_LINES.get(pekt, {}):
            assert not expected


@pytest.mark.parametrize("pekt", POINTS)
def test_reduce_line_matches_reference(codes, pekt):
    ctx, named = codes[pekt]
    red = ReductionContext(ctx.tower)
    lines = named["Ci-lines"] + sorted(enumerate_lines(ctx.tower, 2, ctx.params.s),
                                       key=lambda line: line.rows)
    for line in _sample(lines, "reduce"):
        (reduced,) = red.reduce_code(SubspaceCode(line.pack, line.rows))
        reference = ref_reduced_rows(red, line)
        assert reduced.matrix.rows == reference
        assert reduced == canonical_subspace(Matrix(ctx.tower, 1, reference))


@pytest.mark.parametrize("pekt", [*PARAM_SETS, (3, 1, 2, 3), (3, 2, 1, 1)])
def test_normalize_matches_reference(contexts, pekt):
    # every lead value in every column, each with seeded tails, twice over: the
    # second pass reuses the scaling maps that the first one cached
    ctx = contexts.get(pekt) or build_group(validate_params(*pekt))
    tower, pack = ctx.tower, ctx.lines
    level, card = pack.level, tower.cardinality(pack.level)
    rng = random.Random(f"normalize/{pekt}")
    rows = [[0] * col + [lead] + [rng.randrange(card) for _ in range(pack.ncols - col - 1)]
            for col in range(pack.ncols) for lead in range(1, card) for _ in range(3)]
    for row in rows + rows:
        inv = tower.inv(level, next(filter(None, row)))
        expected = tuple(tower.mul(level, inv, u) for u in row)
        assert pack.entries(pack.normalize(pack.pack(row))) == expected


@pytest.mark.parametrize("pekt", POINTS)
def test_matrix_map_matches_reference(pekt):
    # rows of at most `chunk` lanes map through one lookup table, longer rows through
    # several; a map sends a row to a row of the same layout, so only square matrices map
    tower = field_build(*pekt)
    rng = random.Random(f"matrix_map/{pekt}")
    for level, n in ((1, 2 * pekt[2] * pekt[3]), (2, 2 * pekt[3])):
        pack, card = row_packing(tower, level, n), tower.cardinality(level)
        a = Matrix(tower, level, [[rng.randrange(card) for _ in range(n)] for _ in range(n)])
        apply = pack.matrix_map(a)
        for _ in range(20):
            v = [rng.randrange(card) for _ in range(n)]
            assert pack.entries(apply(pack.pack(v))) == vector_matrix(v, a)
        with pytest.raises(ValueError, match="needs a"):
            pack.matrix_map(Matrix.zeros(tower, level, n, n + 1))


# -- the codec refuses every corrupted record as before ----------------------------------


def _corruptions(record: str, p: int):
    """Every single-symbol change, deletion and insertion, each row zeroed, rows swapped."""
    symbols = DIGIT_ALPHABET[:p + 1] + "A _-+"
    for pos, old in enumerate(record):
        for sym in symbols:
            if sym != old:
                yield record[:pos] + sym + record[pos + 1:]
        yield record[:pos] + record[pos + 1:]
        yield record[:pos] + "0" + record[pos:]
    rows = record.split(";")
    for i, row in enumerate(rows):
        yield ";".join(rows[:i] + ["0" * len(row)] + rows[i + 1:])
    if len(rows) > 1:
        yield ";".join(rows[::-1])


@pytest.mark.parametrize("pekt", [(2, 1, 2, 2), (3, 1, 1, 3), (2, 2, 2, 2)])
@pytest.mark.parametrize("kind", [codecs.KIND_SUBSPACES, codecs.KIND_LINES])
def test_every_corrupted_record_is_refused_as_before(codes, pekt, kind):
    ctx, named = codes[pekt]
    p, e, k, t = pekt
    header = codecs.CodeHeader(p=p, e=e, k=k, t=t, kind=kind, component="external")
    members = named["Ci" if kind == codecs.KIND_SUBSPACES else "Ci-lines"]
    tower = header.tower()
    level, nrows, width = (1, k, 2 * k * t) if kind == codecs.KIND_SUBSPACES else (2, 1, 2 * t)
    for member in _sample(members, "codec")[:5]:
        text = codecs.write_code(SubspaceCode.of([member]), header)
        record = text.splitlines()[-1]
        for corrupted in _corruptions(record, p):
            expected = ref_parse_member(tower, level, nrows, width, corrupted)
            try:
                _, code = codecs.read_code(text[:-len(record) - 1] + corrupted + "\n")
            except (MalformedHeader, NonCanonicalMember) as exc:
                assert type(exc) is expected, corrupted
            else:
                assert expected is None, corrupted
                (key,) = code.keys
                assert codecs.member_record(code.pack, key) == corrupted
