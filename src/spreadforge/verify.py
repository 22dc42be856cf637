"""Checks for the claims the construction makes.

The vector pass (coverage, and the vectors each pair of members shares)
and each pair's rank share nothing with the construction.  The line
certificate checks each member against `RowPacking.line_key`, the rule
`reduce_code` builds by, and `distance --orbit` gives `orbit_min_distance`
the lines of the orbit walk itself (`orbit_code`, `tail_orbit`).

A code's minimum distance is decided in one order, by `_decided_distance`,
for both `min_distance` and `classify`:
1. 2k when the members are certified to meet only in 0 (points, or lines
   over the next field of the tower, each member's key being
   `RowPacking.line_key` of its row 0: distinct lines meet only in 0);
2. otherwise, within COVERAGE_GUARD vectors, from one pass over the
   members' nonzero vectors that counts what each pair shares: two
   members sharing q^m - 1 of them meet in an m-space, at distance
   2k - 2m (Koetter and Kschischang, IEEE Trans. Inf. Theory 54(8), 2008),
   and the pass is refused once more than PAIR_GUARD pairs share one;
3. otherwise, from every pair's rank, refused past PAIR_GUARD pairs
   before any rank.
`classify` checks a certified code's distance against the pass, and each
sharing pair's count against that pair's rank.  All of them take a
`SubspaceCode` and split its member keys into packed rows.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, NamedTuple

from .errors import CodeTooSmall, CommandRefused, InternalError, TrivialOrbit
from .gftower import FieldTower, field_build
from .reduction import ReductionContext
from .subspaces import (
    Subspace,
    SubspaceCode,
    enumerate_lines,
    row_packing,
    subspace_distance,
)

# The vector pass holds every member's nonzero vectors at once; skip it past this many.
COVERAGE_GUARD = 1 << 26
# Ranking past this many pairs (1,449 members; 1-7 us a pair on a 2-core host, Python
# 3.11) is refused, and so is a vector pass that finds more pairs sharing a vector.
PAIR_GUARD = 1 << 20


class Verdict(enum.Enum):
    SPREAD = "Spread"
    PARTIAL_SPREAD = "PartialSpread"
    CONSTANT_DIMENSION = "ConstantDimension"


class VerificationReport(NamedTuple):
    """Everything classify() measured about one code."""

    cardinality: int
    constant_dimension: bool    # always True: a code's members share one dimension
    dimension: int              # that dimension, k
    ambient: int
    field_order: int
    min_distance: int           # 0 for singletons
    pairwise_trivial: bool
    coverage_count: int | None  # None when past the coverage guard
    spread_bound: int | None    # (q^n - 1)/(q^k - 1), when k | n
    partial_spread_bound: int | None
    verdict: Verdict

    def as_dict(self) -> dict:
        d = self._asdict()
        d["verdict"] = self.verdict.value
        return d


# -- pairwise distance ---------------------------------------------------------


def pairwise_min_distance(subs: Iterable[Subspace], _workers: int = 1) -> int | None:
    """Minimum distance over all unordered pairs; None for fewer than 2 members.

    The second argument is ignored; callers that pass a worker count keep working.
    """
    pairs = itertools.combinations(subs, 2)
    return min((subspace_distance(a, b) for a, b in pairs), default=None)


def _shared_vectors(code: SubspaceCode) -> tuple[int, dict] | None:
    """One pass over every member's nonzero vectors, as packed rows.

    Returns the number of distinct nonzero vectors covered and, for each key pair (a, b),
    a met first, of members that share some, how many they share; None, with no pass,
    past COVERAGE_GUARD vectors; CommandRefused once more than PAIR_GUARD pairs share one.
    """
    pack = code.pack
    q = pack.tower.cardinality(pack.level)
    if len(code) * (q**code.dim - 1) > COVERAGE_GUARD:
        return None
    span, split = pack.span, pack.split
    first: dict[int, int] = {}   # vector -> first member holding it
    later: dict[int, list] = {}  # vector -> the other members holding it
    shared: dict = {}            # (a, b) -> the nonzero vectors a and b share
    for key in code.keys:
        for v in span(split(key))[1:]:
            holder = first.setdefault(v, key)
            if holder != key:
                others = later.setdefault(v, [])
                for h in (holder, *others):
                    shared[h, key] = shared.get((h, key), 0) + 1
                others.append(key)
                if len(shared) > PAIR_GUARD:
                    raise CommandRefused("refused: more member pairs share a nonzero vector "
                                         f"than PAIR_GUARD, {PAIR_GUARD}")
    return len(first), shared


def _counted_distance(code: SubspaceCode, shared: dict) -> int:
    """2k - 2m, where q^m - 1 is the most nonzero vectors two members share (m = 0 for none)."""
    q = code.pack.tower.cardinality(code.pack.level)
    most = max(shared.values(), default=0)
    return 2 * (code.dim - next(m for m in itertools.count() if q**m > most))


def _decided_distance(code: SubspaceCode) -> tuple[int, tuple[int, dict] | None]:
    """Two or more members' minimum distance, in the module's order, and the pass if it decided."""
    if code.dim == 1 or _lines_over_next_level(code):  # distinct members meet only in 0
        return 2 * code.dim, None
    shared = _shared_vectors(code)
    if shared is not None:
        return _counted_distance(code, shared[1]), shared
    pairs = len(code) * (len(code) - 1) // 2
    if pairs > PAIR_GUARD:
        raise CommandRefused(f"refused: {pairs} member pairs to rank, PAIR_GUARD is {PAIR_GUARD} "
                             "(the members are not certified to meet only in 0)")
    return pairwise_min_distance(code), None


def min_distance(code: SubspaceCode) -> int:
    """Exact minimum distance, decided as the module docstring states; 0 for a singleton."""
    if len(code) < 2:
        if not code.keys:
            raise CodeTooSmall("an empty code has no minimum distance")
        return 0
    return _decided_distance(code)[0]


def _lines_over_next_level(code: SubspaceCode) -> bool:
    """True when the members are lines over the next field of the tower.

    A member is the field reduction of a line of F_{Q^d}^{n/d}, for the
    degree-d step above the members' level, exactly when its key is
    `RowPacking.line_key` of its own row 0, read as a row one level up.
    Distinct lines meet only in 0, and a code's members are distinct keys.
    """
    pack = code.pack
    tower, level, n = pack.tower, pack.level, pack.ncols
    if level + 1 >= tower.nlevels:
        return False
    d = tower.steps[level].degree
    if n % d or code.dim != d:
        return False
    line_key, mask = row_packing(tower, level + 1, n // d).line_key, pack.row_mask
    return all(line_key(key & mask) == key for key in code.keys)


# -- orbit-formula distance ------------------------------------------------------


def orbit_min_distance(generator: Subspace, images: Iterable[Subspace]) -> int:
    """min d(V, W) over the images W of the generator V under group elements, W != V."""
    best = min((subspace_distance(generator, w) for w in images if w != generator), default=None)
    if best is None:
        raise TrivialOrbit("every element stabilizes the generator")
    return best


# -- classification ---------------------------------------------------------------


def _spread_bounds(q: int, ambient: int, k: int) -> tuple[int, int | None]:
    """Partial-spread bound (q^n - q^m)/(q^k - 1), m = n mod k, and the spread size when k | n."""
    m = ambient % k
    partial = (q**ambient - q**m) // (q**k - 1)
    return partial, (q**ambient - 1) // (q**k - 1) if m == 0 else None


def classify(code: SubspaceCode) -> VerificationReport:
    """Measure a code and decide Spread / PartialSpread / weaker verdicts.

    The minimum distance is decided as the module docstring states.
    Within COVERAGE_GUARD vectors the pass also counts coverage; a
    certified code's distance must be the one the pass's counts give, and
    each pair the pass names must share q^m - 1 vectors, where 2k - 2m is
    that pair's rank distance.  The spread decision is checked against
    cardinality and coverage too.  Any disagreement raises InternalError.
    """
    if not code.keys:
        raise CodeTooSmall("cannot classify an empty code")
    pack = code.pack
    ambient = pack.ncols
    q = pack.tower.cardinality(pack.level)
    cardinality = len(code)
    k = code.dim

    min_distance, shared = _decided_distance(code) if cardinality >= 2 else (0, None)
    coverage, counts = shared or _shared_vectors(code) or (None, None)
    if cardinality >= 2 and counts is not None:
        split = pack.split
        ranks = (subspace_distance(Subspace(pack, split(a)), Subspace(pack, split(b)))
                 for a, b in counts)
        if _counted_distance(code, counts) != min_distance or any(
                c != q ** (k - d // 2) - 1 for c, d in zip(counts.values(), ranks)):
            raise InternalError("vector pass and independent distance path disagree")
    pairwise_trivial = cardinality < 2 or min_distance == 2 * k

    partial_bound, spread_bound = _spread_bounds(q, ambient, k)
    is_spread = pairwise_trivial and cardinality == spread_bound
    if coverage is not None:
        collision_free = coverage == cardinality * (q**k - 1)
        if collision_free != pairwise_trivial:
            raise InternalError("coverage count and pairwise ranks disagree")
        if (collision_free and coverage == q**ambient - 1) != is_spread:
            raise InternalError("coverage-based and rank-based spread tests disagree")

    if is_spread:
        verdict = Verdict.SPREAD
    elif cardinality >= 2 and pairwise_trivial and cardinality <= partial_bound:
        verdict = Verdict.PARTIAL_SPREAD
    else:
        verdict = Verdict.CONSTANT_DIMENSION

    return VerificationReport(
        cardinality=cardinality,
        constant_dimension=True,
        dimension=k,
        ambient=ambient,
        field_order=q,
        min_distance=min_distance,
        pairwise_trivial=pairwise_trivial,
        coverage_count=coverage,
        spread_bound=spread_bound,
        partial_spread_bound=partial_bound,
        verdict=verdict,
    )


# -- oracles -----------------------------------------------------------------------


def desarguesian_oracle(params, tower: FieldTower | None = None) -> SubspaceCode:
    """The spread obtained by reducing every line, with no group machinery at all."""
    if tower is None:
        tower = field_build(params.p, params.e, params.k, params.t)
    red = ReductionContext(tower)
    return red.reduce_code(enumerate_lines(tower, 2, params.s))


def codes_equal(code_a: SubspaceCode, code_b: SubspaceCode) -> bool:
    """Set equality of member keys; members at another level, ambient or field are an error."""
    code_a.check_comparable(code_b)
    return code_a.keys == code_b.keys
