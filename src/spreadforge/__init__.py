"""spreadforge: spread codes of F_q^n from a two-generator Abelian matrix group.

The pipeline builds an exact finite-field tower, realizes the big field as
matrices over the small one, constructs a pair of commuting generators of
order q^kt - 1, takes the orbit code of a leading unit line, completes it
with two explicit r-element line families to a partition of the full line
Grassmannian, and field-reduces the partition to a k-spread of F_q^n.
Every claimed property is re-checked by an independent computational path
in :mod:`spreadforge.verify`.
"""

from .construction import (
    CodeParams,
    GroupContext,
    GroupExponents,
    assemble_spread,
    build_group,
    completion_block,
    completion_code,
    default_completion,
    exponent_class,
    group_element,
    line_partition,
    orbit_code,
    spread_components,
    stabilizer_bruteforce,
    tail_orbit,
    upper_right_block,
    validate_params,
)
from .gftower import (
    FieldElement,
    FieldTower,
    coprime_transfer_holds,
    element_order,
    field_build,
)
from .reduction import ReductionContext
from .subspaces import (
    Matrix,
    Subspace,
    canonical_line,
    canonical_subspace,
    companion_matrix,
    enumerate_lines,
    rank,
    rref,
    subspace_distance,
)
from .verify import (
    Verdict,
    VerificationReport,
    classify,
    codes_equal,
    desarguesian_oracle,
    min_distance,
    min_distance_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "CodeParams",
    "FieldElement",
    "FieldTower",
    "GroupContext",
    "GroupExponents",
    "Matrix",
    "ReductionContext",
    "Subspace",
    "Verdict",
    "VerificationReport",
    "assemble_spread",
    "build_group",
    "canonical_line",
    "canonical_subspace",
    "classify",
    "codes_equal",
    "companion_matrix",
    "completion_block",
    "completion_code",
    "coprime_transfer_holds",
    "default_completion",
    "desarguesian_oracle",
    "element_order",
    "enumerate_lines",
    "exponent_class",
    "field_build",
    "group_element",
    "line_partition",
    "min_distance",
    "min_distance_bruteforce",
    "orbit_code",
    "rank",
    "rref",
    "spread_components",
    "stabilizer_bruteforce",
    "subspace_distance",
    "tail_orbit",
    "upper_right_block",
    "validate_params",
]
