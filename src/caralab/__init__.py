"""Numerical laboratory for Caratheodory/Mobius distance brackets.

Computes certified two-sided bounds for the Mobius pseudodistance on the
annulus A(R) = {1 < |w| < R} and on finite truncations of a quotient-glued
analytic space built from countably many annulus sheets, and certifies the
inequalities and limits those constructions rest on.
"""

__version__ = "0.1.0"

from .disk import (
    EPS_BOUNDARY,
    BlaschkeProduct,
    DiskDomainError,
    disk_automorphism,
    mobius_distance,
    poincare_distance,
    schwarz_pick_check,
)
from .annulus import (
    AnnulusConfig,
    AnnulusDomainError,
    BracketOrderError,
    CoveringBranchError,
    DistanceBracket,
    annulus_distance_bracket,
    annulus_lower_bound,
    annulus_upper_bound,
    covering_map,
    lift_enumeration,
    preimage_moduli,
    preimage_point,
)
from .sweeps import (
    BoundConstants,
    SweepResult,
    verify_final_chain,
    verify_lower_bound_sweep,
    verify_one_over_e_products,
    verify_two_pi_limit,
    verify_upper_bound_sweep,
)
from .glued import (
    AdmissibleFunction,
    EvaluationEscapeError,
    GluePointIndex,
    SpaceConfig,
    SpacePoint,
    ball_inclusion_radius,
    canonicalize,
    completeness_probe,
    evaluate_admissible,
    format_point,
    glue_points,
    glued_distance_bracket,
    glued_lower_bound,
    glued_upper_bound,
    noncompactness_probe,
    parse_point,
)

__all__ = [
    "EPS_BOUNDARY",
    "AdmissibleFunction",
    "AnnulusConfig",
    "AnnulusDomainError",
    "BlaschkeProduct",
    "BoundConstants",
    "BracketOrderError",
    "CoveringBranchError",
    "DiskDomainError",
    "DistanceBracket",
    "EvaluationEscapeError",
    "GluePointIndex",
    "SpaceConfig",
    "SpacePoint",
    "annulus_distance_bracket",
    "annulus_lower_bound",
    "annulus_upper_bound",
    "ball_inclusion_radius",
    "canonicalize",
    "completeness_probe",
    "covering_map",
    "disk_automorphism",
    "evaluate_admissible",
    "format_point",
    "glue_points",
    "glued_distance_bracket",
    "glued_lower_bound",
    "glued_upper_bound",
    "lift_enumeration",
    "mobius_distance",
    "noncompactness_probe",
    "parse_point",
    "poincare_distance",
    "preimage_moduli",
    "preimage_point",
    "schwarz_pick_check",
    "verify_final_chain",
    "verify_lower_bound_sweep",
    "verify_one_over_e_products",
    "verify_two_pi_limit",
    "verify_upper_bound_sweep",
]
