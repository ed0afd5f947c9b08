"""Graded commutative algebra toolkit for deciding CM-wildness.

The package decides a sufficient criterion for a standard graded
Cohen-Macaulay algebra to have strictly infinitely many, or a wild
classification of, indecomposable maximal Cohen-Macaulay modules, and it
constructs and verifies the witnessing families explicitly.
"""

from .errors import BudgetExhausted, CmwildError, InputError
from .family import (
    FamilyMember,
    FamilySpec,
    IsoCertificate,
    action_matrices,
    build_family_member,
    family_report,
    indecomposability_test,
    iso_test,
    mcm_module,
    member_over_ring,
    verify_resolution_shape,
    verify_shift_embedding,
)
from .field import DEFAULT_PRIME, PrimeField
from .matalg import (
    endomorphism_indecomposability,
    simultaneous_conjugacy,
)
from .modules import FreeMap, FreeModule, ModulePresentation
from .poly import Poly, PolyRing
from .resolution import (
    Resolution,
    comparison_map,
    koszul_complex,
    minimal_resolution,
)
from .rings import QuotientRing
from .wildness import (
    SCHEMA,
    WildnessReport,
    artinian_reduction,
    complete_intersection_certificate,
    find_regular_sequence,
    hypersurface_certificate,
    verify_regular_element,
    verify_regular_sequence,
    wildness_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted",
    "CmwildError",
    "DEFAULT_PRIME",
    "FamilyMember",
    "FamilySpec",
    "FreeMap",
    "FreeModule",
    "InputError",
    "IsoCertificate",
    "ModulePresentation",
    "Poly",
    "PolyRing",
    "PrimeField",
    "QuotientRing",
    "Resolution",
    "SCHEMA",
    "WildnessReport",
    "action_matrices",
    "artinian_reduction",
    "build_family_member",
    "comparison_map",
    "complete_intersection_certificate",
    "endomorphism_indecomposability",
    "family_report",
    "find_regular_sequence",
    "hypersurface_certificate",
    "indecomposability_test",
    "iso_test",
    "koszul_complex",
    "mcm_module",
    "member_over_ring",
    "minimal_resolution",
    "simultaneous_conjugacy",
    "verify_regular_element",
    "verify_regular_sequence",
    "verify_resolution_shape",
    "verify_shift_embedding",
    "wildness_certificate",
    "__version__",
]
