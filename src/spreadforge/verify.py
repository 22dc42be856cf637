"""Independent checks for every claim the construction makes.

Each predicate here is computed from first principles (ranks, vector
coverage counts, full orbit enumeration) rather than through the formulas
the construction itself uses, so agreement between the two paths is
meaningful evidence.

`min_distance` is the fast exact path: one pass over the members' nonzero
vectors, then ranks of only the pairs that share one.  `classify` checks
that pass against the fact that distinct lines meet only in 0, a
certificate that the members are lines over the next field of the tower
or, where neither holds, every pair's rank; past COVERAGE_GUARD,
`min_distance` takes the same certificate.  All of them take a
`SubspaceCode` and split its member keys into packed rows.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, NamedTuple

from .errors import CodeTooSmall, InternalError, TrivialOrbit
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


def _shared_vectors(code: SubspaceCode) -> tuple[int, set] | None:
    """One pass over every member's nonzero vectors, as packed rows.

    Returns the number of distinct nonzero vectors covered and the key
    pairs (a, b), a met first, of members that share at least one of them;
    None, with no pass, when the members hold more than COVERAGE_GUARD vectors.
    """
    pack = code.pack
    q = pack.tower.cardinality(pack.level)
    if len(code) * (q**code.dim - 1) > COVERAGE_GUARD:
        return None
    span, split = pack.span, pack.split
    first: dict[int, int] = {}   # vector -> first member holding it
    later: dict[int, list] = {}  # vector -> the other members holding it
    pairs: set = set()
    for key in code.keys:
        for v in span(split(key))[1:]:
            holder = first.setdefault(v, key)
            if holder != key:
                others = later.setdefault(v, [])
                pairs.update((h, key) for h in (holder, *others))
                others.append(key)
    return len(first), pairs


def _ranked_min(code: SubspaceCode, pairs: Iterable) -> int:
    """Minimum distance of k-spaces, given every pair of keys that shares a nonzero vector.

    Any other pair meets in 0, at distance 2k, and a sharing pair is closer.
    """
    pack, split = code.pack, code.pack.split
    return min((subspace_distance(Subspace(pack, split(a)), Subspace(pack, split(b)))
                for a, b in pairs), default=2 * code.dim)


def min_distance(code: SubspaceCode) -> int:
    """Exact minimum subspace distance, ranking only pairs that share a vector.

    Past COVERAGE_GUARD vectors, 2k for a certified code (`_meet_in_zero`)
    and every pairwise rank for any other.  0 for a singleton; an empty
    code raises CodeTooSmall, as in classify.
    """
    if len(code) < 2:
        if not code.keys:
            raise CodeTooSmall("an empty code has no minimum distance")
        return 0
    shared = _shared_vectors(code)
    if shared is not None:
        return _ranked_min(code, shared[1])
    return 2 * code.dim if _meet_in_zero(code) else pairwise_min_distance(code)


def _meet_in_zero(code: SubspaceCode) -> bool:
    """True when distinct members are certified to meet only in 0: points, or next-field lines."""
    return code.dim == 1 or _lines_over_next_level(code)


def _lines_over_next_level(code: SubspaceCode) -> bool:
    """True when the members are lines over the next field of the tower.

    D, block-diagonal in the companion matrix of the degree-d step above the
    members' level, spans a copy of F_{Q^d} acting on F_Q^n.  A d-space U
    with rank [U; U D] = d is a line of F_{Q^d}^{n/d}, and distinct lines
    meet only in 0 (Lavrauw and Van de Voorde, "Field reduction and linear
    sets in finite geometry", Contemp. Math. 632, 2015); a code's members
    are distinct keys.  The rank is an F_p rank over the packed rows of
    [U; U D] and their expansion.
    """
    pack = code.pack
    tower, level, n = pack.tower, pack.level, pack.ncols
    if level + 1 >= tower.nlevels:
        return False
    d = tower.steps[level].degree
    if n % d or code.dim != d:
        return False
    m = companion_matrix(tower, level, tower.step_modulus(level + 1))
    zero, blocks = Matrix.zeros(tower, level, d, d), range(n // d)
    diag = Matrix.block([[m if a == b else zero for b in blocks] for a in blocks])
    times_d, rank = pack.matrix_map(diag), pack.rank
    return all(rank(rows + tuple(map(times_d, rows))) == d for rows in map(pack.split, code.keys))


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

    The minimum distance is 2 for distinct lines, comes from the line
    certificate for k-spaces or, where that does not hold, from every
    pairwise rank; within COVERAGE_GUARD vectors one pass counts coverage
    and must give the same distance.  The spread decision is checked
    against cardinality and coverage too.  Any disagreement raises
    InternalError.
    """
    if not code.keys:
        raise CodeTooSmall("cannot classify an empty code")
    pack = code.pack
    ambient = pack.ncols
    q = pack.tower.cardinality(pack.level)
    cardinality = len(code)
    k = code.dim

    coverage, pairs = _shared_vectors(code) or (None, None)

    min_distance = 0
    if cardinality >= 2:
        min_distance = 2 * k if _meet_in_zero(code) else pairwise_min_distance(code)
        if pairs is not None and _ranked_min(code, pairs) != min_distance:
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
