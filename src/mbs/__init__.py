"""Combinatorial calculus of multibranched surfaces.

Validation and invariants, integer homology via Smith normal form, the
IX/XI/IH move calculus with maximal-spreading normalization, canonical
forms and isomorphism certificates, bounded move-equivalence search, and
the minor partial order with obstruction screens.

``import mbs`` loads the data model, its errors and the ``mbs/1`` format.
Every other layer loads on first use of one of its names (PEP 562), so a
CLI command pays only for the layers it runs.
"""

from importlib import import_module as _import_module

from .errors import (
    FixtureError,
    IneligibleMoveError,
    MbsError,
    ModeError,
    ReplayError,
    SchemaError,
    TheoremViolationError,
    UnknownIdError,
)
from .io import load, parse, serialize
from .model import (
    ANNULUS,
    MOEBIUS,
    BranchLocus,
    LocusProfile,
    MultibranchedSurface,
    Region,
    RegionClass,
    RegionTopology,
    ValidityMode,
    classify_region,
    connected_components,
    euler_characteristic,
    locus_profile,
    validate,
)

__version__ = "0.1.0"

# public name -> the submodule imported on first access: the defining one,
# except that SearchBudget (defined in moves) maps to search, so importing it
# still loads the search layers (bench/ops.py warms them with it before
# timing)
_LAZY = {
    name: module
    for module, names in {
        "algebra": (
            "ChainComplex", "DecompositionSummary", "HomologyProfile",
            "IntegerMatrix", "SmithDecomposition", "boundary_euler",
            "build_chain_complex", "decomposition_summary", "homology_profile",
            "smith_normal_form",
        ),
        "fixtures": (
            "build_fixture", "closed_surface", "disjoint_union",
            "moebius_annulus", "quasi_pure", "random_surface", "theta",
        ),
        "isomorphism": (
            "CanonicalForm", "IsoCertificate", "SymmetryMode", "are_isomorphic",
            "canonical_form", "canonical_hash",
        ),
        "minors": (
            "ContractRegion", "MinorOutcome", "RemoveRegion", "contract_region",
            "enumerate_reductions", "is_minor", "less_than", "remove_region",
            "tilde_equivalent",
        ),
        "model": ("ObstructionFlags", "obstruction_screen"),
        "moves": (
            "IXSite", "MoebiusSplit", "MoveRecord", "MoveStep", "NormalSplit",
            "QuasiSplit", "apply_ih", "apply_ix", "apply_move", "apply_xi",
            "enumerate_ix", "enumerate_xi", "is_maximally_spread_region",
            "is_maximally_spread_surface", "maximally_spread", "replay",
            "spread_potential",
        ),
        "search": (
            "ExhaustedWithinBudget", "Found", "InvariantMismatch", "SearchBudget",
            "neighbors", "random_walk", "search_equivalence",
        ),
    }.items()
    for name in names
}
_SUBMODULES = ("algebra", "cli", "errors", "fixtures", "io", "isomorphism",
               "minors", "model", "moves", "search")

__all__ = sorted([name for name in globals()
                  if not name.startswith("_") and name not in _SUBMODULES]
                 + list(_LAZY))


def __getattr__(name):
    # Not cached in globals(): the package hands out the defining module's
    # current binding, also after something rebinds it there.
    if name in _LAZY:
        return getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
