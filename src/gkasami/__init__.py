"""Generalized Kasami sequence families of period 2^n - 1.

Builds the families, computes their exact correlation / imbalance / weight
distributions with two independent engines, and verifies the closed forms
behind them by exhaustive desk-scale computation.
"""

from .correlation import (
    CorrelationReport,
    full_distribution_brute,
    full_distribution_spectral,
    r_max,
)
from .families import (
    FamilyKind,
    FamilyParams,
    SequenceFamily,
    SequenceTag,
    build_family,
    family_params,
    gamma_delta_sets,
    sequence_term,
)
from .fieldeq import (
    EquationCensus,
    LinearizedPoly,
    census,
    census_report,
    count_affine_roots,
    count_kernel_roots,
    count_reduced_roots,
    linearized_kernel,
)
from .gf2n import FieldCtx, make_field
from .histogram import ValueHistogram
from .quadform import (
    QuadFormParams,
    eval_f,
    symplectic_rank,
    valid_k,
    walsh_point,
    walsh_spectrum,
)
from .theory import (
    CodeSpec,
    build_code,
    dual_low_weights,
    predict,
)

__version__ = "0.1.0"

__all__ = [
    "CodeSpec",
    "CorrelationReport",
    "EquationCensus",
    "FamilyKind",
    "FamilyParams",
    "FieldCtx",
    "LinearizedPoly",
    "QuadFormParams",
    "SequenceFamily",
    "SequenceTag",
    "ValueHistogram",
    "build_code",
    "build_family",
    "census",
    "census_report",
    "count_affine_roots",
    "count_kernel_roots",
    "count_reduced_roots",
    "dual_low_weights",
    "eval_f",
    "family_params",
    "full_distribution_brute",
    "full_distribution_spectral",
    "gamma_delta_sets",
    "linearized_kernel",
    "make_field",
    "predict",
    "r_max",
    "sequence_term",
    "symplectic_rank",
    "valid_k",
    "walsh_point",
    "walsh_spectrum",
]
