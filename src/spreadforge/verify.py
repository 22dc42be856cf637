"""Independent checks for every claim the construction makes.

Each predicate here is computed from first principles (pairwise ranks,
vector coverage counts, full orbit enumeration) rather than through the
formulas the construction itself uses, so agreement between the two paths
is meaningful evidence.

`min_distance` is the fast exact path: it ranks only the pairs of members
that share a nonzero vector.  `classify` keeps the first-principles check,
every pairwise rank plus the coverage count.
"""

from __future__ import annotations

import enum
import multiprocessing
from dataclasses import dataclass
from typing import Iterable, Sequence

from .construction import GroupContext, full_group
from .errors import (
    AmbientMismatch,
    CodeTooSmall,
    InternalError,
    KindMismatch,
    TrivialOrbit,
)
from .gftower import FieldTower, field_build
from .reduction import ReductionContext
from .subspaces import (
    Line,
    Subspace,
    SubspaceCode,
    enumerate_lines,
    subspace_distance,
)

# Coverage counting materializes every nonzero vector; skip it past this bound.
COVERAGE_GUARD = 1 << 26


class Verdict(enum.Enum):
    SPREAD = "Spread"
    PARTIAL_SPREAD = "PartialSpread"
    CONSTANT_DIMENSION = "ConstantDimension"
    NOT_CONSTANT_DIMENSION = "NotConstantDimension"


@dataclass(frozen=True)
class VerificationReport:
    """Everything classify() measured about one code."""

    cardinality: int
    constant_dimension: bool
    dimension: int | None       # common dimension k, when constant
    ambient: int
    field_order: int
    min_distance: int           # 0 for singletons
    pairwise_trivial: bool
    coverage_count: int | None  # None when past the coverage guard
    spread_bound: int | None    # (q^n - 1)/(q^k - 1), when k | n
    partial_spread_bound: int | None
    verdict: Verdict

    def as_dict(self) -> dict:
        d = {f: getattr(self, f) for f in self.__dataclass_fields__}
        d["verdict"] = self.verdict.value
        return d


def _members_as_subspaces(code: Iterable) -> list[Subspace]:
    subs = []
    kind = None
    for member in code:
        this = type(member)
        if kind is None:
            kind = this
        elif this is not kind:
            raise KindMismatch("code mixes lines and subspaces")
        subs.append(member.as_subspace() if isinstance(member, Line) else member)
    for s in subs[1:]:
        if (
            s.ambient != subs[0].ambient
            or s.level != subs[0].level
            or not s.tower.compatible_at(subs[0].tower, s.level)
        ):
            raise AmbientMismatch("code members live in different spaces")
    return subs


# -- pairwise distance ---------------------------------------------------------

_POOL_STATE: dict = {}


def _pool_init(subs: Sequence[Subspace]) -> None:
    _POOL_STATE["subs"] = subs


def _row_band_min(band: tuple[int, int]) -> int | None:
    subs = _POOL_STATE["subs"]
    lo, hi = band
    best = None
    for i in range(lo, hi):
        for j in range(i + 1, len(subs)):
            d = subspace_distance(subs[i], subs[j])
            if best is None or d < best:
                best = d
    return best


def pairwise_min_distance(subs: Sequence[Subspace], workers: int = 1) -> int | None:
    """Minimum distance over all unordered pairs; None for fewer than 2 members."""
    n = len(subs)
    if n < 2:
        return None
    if workers <= 1 or n < 8:
        best = None
        for i in range(n):
            for j in range(i + 1, n):
                d = subspace_distance(subs[i], subs[j])
                if best is None or d < best:
                    best = d
        return best
    bands = []
    step = max(1, n // (workers * 4))
    for lo in range(0, n - 1, step):
        bands.append((lo, min(lo + step, n - 1)))
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_pool_init, initargs=(list(subs),)) as pool:
        mins = pool.map(_row_band_min, bands)
    return min(m for m in mins if m is not None)


def min_distance_bruteforce(code: Iterable, workers: int = 1) -> int:
    """Minimum subspace distance over all unordered pairs; 0 for a singleton."""
    subs = _members_as_subspaces(code)
    d = pairwise_min_distance(subs, workers)
    return 0 if d is None else d


def min_distance(code: Iterable, workers: int = 1) -> int:
    """Exact minimum subspace distance, ranking only pairs that share a vector.

    Two k-dimensional members that share no nonzero vector meet in 0, so
    their distance is 2k, and a pair that does share one is closer.  Each
    member's nonzero vectors are bucketed, only pairs found in a common
    bucket are ranked, and the result is the least of 2k and their
    distances.  Mixed dimensions, or an ambient space past COVERAGE_GUARD,
    fall back to `min_distance_bruteforce`; `workers` applies only there.
    0 for a singleton.
    """
    subs = _members_as_subspaces(code)
    if len(subs) < 2:
        return 0
    dims = {s.dim for s in subs}
    q = subs[0].tower.cardinality(subs[0].level)
    if len(dims) > 1 or q ** subs[0].ambient > COVERAGE_GUARD:
        return min_distance_bruteforce(subs, workers)
    holders: dict = {}
    pairs: set = set()
    for idx, s in enumerate(subs):
        for v in s.nonzero_vectors():
            earlier = holders.setdefault(v, [])
            pairs.update((h, idx) for h in earlier)
            earlier.append(idx)
    best = 2 * dims.pop()
    for i, j in pairs:
        best = min(best, subspace_distance(subs[i], subs[j]))
    return best


# -- orbit-formula distance ------------------------------------------------------


def orbit_min_distance(generator, elements: Iterable) -> int:
    """min d(V, V.A) over elements A that move the generator V."""
    best = None
    moved = False
    for g in elements:
        image = generator.apply(g)
        if image == generator:
            continue
        moved = True
        d = subspace_distance(generator, image)
        if best is None or d < best:
            best = d
    if not moved:
        raise TrivialOrbit("every element stabilizes the generator")
    assert best is not None
    return best


def min_distance_orbit(ctx: GroupContext, generator: Line) -> int:
    """Orbit-formula distance of the full-group orbit of a line.

    The result equals the brute-force minimum distance of the orbit code.
    """
    return orbit_min_distance(generator, (g for _, g in full_group(ctx)))


# -- classification ---------------------------------------------------------------


def classify(code: Iterable, workers: int = 1) -> VerificationReport:
    """Measure a code and decide Spread / PartialSpread / weaker verdicts.

    The spread decision is triple-checked: pairwise distances, cardinality
    against the spread bound, and (within the guard) an exhaustive count of
    covered nonzero vectors.  Disagreement raises InternalError.
    """
    subs = _members_as_subspaces(code)
    if not subs:
        raise CodeTooSmall("cannot classify an empty code")
    ambient = subs[0].ambient
    tower, level = subs[0].tower, subs[0].level
    q = tower.cardinality(level)
    cardinality = len(subs)

    dims = {s.dim for s in subs}
    constant = len(dims) == 1
    k = dims.pop() if constant else None

    min_distance = min_distance_bruteforce(subs, workers) if cardinality >= 2 else 0
    pairwise_trivial = constant and (cardinality < 2 or min_distance == 2 * k)

    spread_bound = None
    partial_bound = None
    if constant:
        m = ambient % k
        partial_bound = (q**ambient - q**m) // (q**k - 1)
        if m == 0:
            spread_bound = (q**ambient - 1) // (q**k - 1)

    coverage = None
    if q**ambient <= COVERAGE_GUARD:
        seen: set = set()
        for s in subs:
            seen.update(s.nonzero_vectors())
        coverage = len(seen)
        if constant:
            collision_free = coverage == cardinality * (q**k - 1)
            if collision_free != pairwise_trivial:
                raise InternalError("coverage count and pairwise ranks disagree")

    if not constant:
        verdict = Verdict.NOT_CONSTANT_DIMENSION
    else:
        is_spread = pairwise_trivial and cardinality == spread_bound
        if coverage is not None:
            by_coverage = coverage == q**ambient - 1 and coverage == cardinality * (q**k - 1)
            if by_coverage != is_spread:
                raise InternalError("coverage-based and rank-based spread tests disagree")
        if is_spread:
            verdict = Verdict.SPREAD
        elif cardinality >= 2 and pairwise_trivial and cardinality <= partial_bound:
            verdict = Verdict.PARTIAL_SPREAD
        else:
            verdict = Verdict.CONSTANT_DIMENSION

    return VerificationReport(
        cardinality=cardinality,
        constant_dimension=constant,
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


def codes_equal(code_a: Iterable, code_b: Iterable) -> bool:
    """Set equality of canonical members; kind or ambient mismatch is an error."""
    set_a, set_b = frozenset(code_a), frozenset(code_b)
    if not set_a and not set_b:
        return True
    kinds_a = {type(m) for m in set_a}
    kinds_b = {type(m) for m in set_b}
    if len(kinds_a) > 1 or len(kinds_b) > 1:
        raise KindMismatch("a code mixes lines and subspaces")
    if set_a and set_b:
        if kinds_a != kinds_b:
            raise KindMismatch("cannot compare a line code with a subspace code")
        a, b = next(iter(set_a)), next(iter(set_b))
        if a.ambient != b.ambient or a.level != b.level:
            raise KindMismatch("codes live in different ambient spaces")
    return set_a == set_b
