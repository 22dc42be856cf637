"""spreadforge: spread codes of F_q^n from a two-generator Abelian matrix group.

The pipeline builds an exact finite-field tower, realizes the big field as
matrices over the small one, constructs a pair of commuting generators of
order q^kt - 1, takes the orbit code of a leading unit line, completes it
with two explicit r-element line families to a partition of the full line
Grassmannian, and field-reduces the partition to a k-spread of F_q^n.
Every claimed property is re-checked by an independent computational path
in :mod:`spreadforge.verify`.

The public names below load their home module on first access, so
``import spreadforge`` (which ``python -m spreadforge.cli`` runs first)
imports no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "construction": (
        "CodeParams", "GroupContext", "GroupExponents", "build_group", "completion_block",
        "completion_code", "default_completion", "exponent_class", "line_partition",
        "orbit_code", "spread_components", "stabilizer_bruteforce", "tail_orbit",
        "upper_right_block", "validate_params",
    ),
    "gftower": ("FieldTower", "field_build"),
    "reduction": ("ReductionContext",),
    "subspaces": (
        "Matrix", "Subspace", "SubspaceCode", "canonical_line", "canonical_subspace",
        "companion_matrix", "enumerate_lines", "rank", "rref", "subspace_distance",
    ),
    "verify": (
        "Verdict", "VerificationReport", "classify", "codes_equal", "desarguesian_oracle",
        "min_distance",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
