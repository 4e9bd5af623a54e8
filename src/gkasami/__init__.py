"""Generalized Kasami sequence families of period 2^n - 1.

Builds the families, computes their exact correlation / imbalance / weight
distributions with two independent engines, and verifies the closed forms
behind them by exhaustive desk-scale computation.
"""

from .correlation import (
    CorrelationReport,
    full_distribution_brute,
    full_distribution_spectral,
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
from .fieldeq import EquationCensus, census, census_report
from .gf2n import FieldCtx, make_field
from .histogram import ValueHistogram
from .quadform import QuadFormParams, symplectic_rank, valid_k, walsh_spectrum
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
    "QuadFormParams",
    "SequenceFamily",
    "SequenceTag",
    "ValueHistogram",
    "build_code",
    "build_family",
    "census",
    "census_report",
    "dual_low_weights",
    "family_params",
    "full_distribution_brute",
    "full_distribution_spectral",
    "gamma_delta_sets",
    "make_field",
    "predict",
    "sequence_term",
    "symplectic_rank",
    "valid_k",
    "walsh_spectrum",
]
