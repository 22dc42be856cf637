"""Independent checks for every claim the construction makes.

Each predicate here is computed from first principles (ranks, vector
coverage counts, full orbit enumeration) rather than through the formulas
the construction itself uses, so agreement between the two paths is
meaningful evidence.

`min_distance` is the fast exact path: one pass over the members' nonzero
vectors, then ranks of only the pairs that share one.  `classify` checks
that pass against a certificate that the members are distinct lines over
the next field of the tower or, where it does not hold, every pair's rank.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, NamedTuple, Sequence

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
    Matrix,
    Subspace,
    SubspaceCode,
    companion_matrix,
    enumerate_lines,
    subspace_distance,
)

# The vector pass holds every member's nonzero vectors at once; skip it past this many.
COVERAGE_GUARD = 1 << 26


class Verdict(enum.Enum):
    SPREAD = "Spread"
    PARTIAL_SPREAD = "PartialSpread"
    CONSTANT_DIMENSION = "ConstantDimension"
    NOT_CONSTANT_DIMENSION = "NotConstantDimension"


class VerificationReport(NamedTuple):
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
        d = self._asdict()
        d["verdict"] = self.verdict.value
        return d


def _members_as_subspaces(code: Iterable[Subspace]) -> list[Subspace]:
    """The members as a list, refused unless they all live in one space."""
    subs = list(code)
    for s in subs[1:]:
        if (
            s.ambient != subs[0].ambient
            or s.level != subs[0].level
            or not s.tower.compatible_at(subs[0].tower, s.level)
        ):
            raise AmbientMismatch("code members live in different spaces")
    return subs


# -- pairwise distance ---------------------------------------------------------


def pairwise_min_distance(subs: Sequence[Subspace], _workers: int = 1) -> int | None:
    """Minimum distance over all unordered pairs; None for fewer than 2 members.

    The second argument is ignored; callers that pass a worker count keep working.
    """
    pairs = itertools.combinations(subs, 2)
    return min((subspace_distance(a, b) for a, b in pairs), default=None)


def min_distance_bruteforce(code: Iterable) -> int:
    """Minimum subspace distance over all unordered pairs; 0 for a singleton."""
    return pairwise_min_distance(_members_as_subspaces(code)) or 0


def _shared_vectors(subs: Sequence[Subspace]) -> tuple[int, set] | None:
    """One pass over every member's nonzero vectors, as packed rows.

    Returns the number of distinct nonzero vectors covered and the index
    pairs (i, j), i < j, of members that share at least one of them; None,
    with no pass, when the members hold more than COVERAGE_GUARD vectors.
    """
    q = subs[0].tower.cardinality(subs[0].level)
    if sum(q**s.dim for s in subs) - len(subs) > COVERAGE_GUARD:
        return None
    first: dict[int, int] = {}   # vector -> first member holding it
    later: dict[int, list] = {}  # vector -> the other members holding it
    pairs: set = set()
    for idx, s in enumerate(subs):
        vectors = s.pack.span(s.rows)[1:]
        if first.keys().isdisjoint(vectors):
            first.update(dict.fromkeys(vectors, idx))
            continue
        for v in vectors:
            holder = first.setdefault(v, idx)
            if holder != idx:
                others = later.setdefault(v, [])
                pairs.update((h, idx) for h in (holder, *others))
                others.append(idx)
    return len(first), pairs


def _ranked_min(subs: Sequence[Subspace], pairs: Iterable, k: int) -> int:
    """Minimum distance of k-spaces, given every pair that shares a nonzero vector.

    Any other pair meets in 0, at distance 2k, and a sharing pair is closer.
    """
    return min((subspace_distance(subs[i], subs[j]) for i, j in pairs), default=2 * k)


def min_distance(code: Iterable) -> int:
    """Exact minimum subspace distance, ranking only pairs that share a vector.

    Mixed dimensions, or more vectors than COVERAGE_GUARD, fall back to
    `min_distance_bruteforce`.  0 for a singleton.
    """
    subs = _members_as_subspaces(code)
    if len(subs) < 2:
        return 0
    shared = len({s.dim for s in subs}) == 1 and _shared_vectors(subs)
    if not shared:
        return min_distance_bruteforce(subs)
    return _ranked_min(subs, shared[1], subs[0].dim)


def _lines_over_next_level(subs: Sequence[Subspace]) -> bool:
    """True when the members are distinct lines over the next field of the tower.

    D, block-diagonal in the companion matrix of the degree-d step above the
    members' level, spans a copy of F_{Q^d} acting on F_Q^n.  A d-space U
    with rank [U; U D] = d is a line of F_{Q^d}^{n/d}, and distinct lines
    meet only in 0 (Lavrauw and Van de Voorde, "Field reduction and linear
    sets in finite geometry", Contemp. Math. 632, 2015).  The rank is an
    F_p rank over the packed rows of [U; U D] and their expansion.
    """
    first = subs[0]
    tower, level, n = first.tower, first.level, first.ambient
    if level + 1 >= tower.nlevels:
        return False
    d = tower.steps[level].degree
    if n % d or any(s.dim != d for s in subs) or len(set(subs)) != len(subs):
        return False
    m = companion_matrix(tower, level, tower.step_modulus(level + 1))
    zero, blocks = Matrix.zeros(tower, level, d, d), range(n // d)
    diag = Matrix.block([[m if a == b else zero for b in blocks] for a in blocks])
    pack = first.pack
    times_d = pack.matrix_map(diag)
    return all(pack.rank(s.rows + tuple(map(times_d, s.rows))) == d for s in subs)


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


def classify(code: Iterable) -> VerificationReport:
    """Measure a code and decide Spread / PartialSpread / weaker verdicts.

    The minimum distance comes from the line certificate or, where it does
    not hold, every pairwise rank; within COVERAGE_GUARD vectors one pass
    counts coverage and, for constant dimension, must give the same
    distance.  The spread decision is checked against cardinality and
    coverage too.  Any disagreement raises InternalError.
    """
    subs = _members_as_subspaces(code)
    if not subs:
        raise CodeTooSmall("cannot classify an empty code")
    ambient = subs[0].ambient
    q = subs[0].tower.cardinality(subs[0].level)
    cardinality = len(subs)

    dims = {s.dim for s in subs}
    constant = len(dims) == 1
    k = dims.pop() if constant else None

    coverage, pairs = _shared_vectors(subs) or (None, None)

    min_distance = 0
    if cardinality >= 2:
        min_distance = 2 * k if _lines_over_next_level(subs) else pairwise_min_distance(subs)
        if constant and pairs is not None and _ranked_min(subs, pairs, k) != min_distance:
            raise InternalError("vector pass and independent distance path disagree")
    pairwise_trivial = constant and (cardinality < 2 or min_distance == 2 * k)

    partial_bound, spread_bound = _spread_bounds(q, ambient, k) if constant else (None, None)
    if constant and coverage is not None:
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


def codes_equal(code_a: Iterable[Subspace], code_b: Iterable[Subspace]) -> bool:
    """Set equality of canonical members; members at another level or ambient are an error."""
    set_a, set_b = frozenset(code_a), frozenset(code_b)
    if len({(m.level, m.ambient) for m in set_a | set_b}) > 1:
        raise KindMismatch("members differ in level or ambient dimension")
    return set_a == set_b
