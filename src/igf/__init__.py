"""Utility-weighted information generating functions for finite schemes.

The package evaluates generating functions of the form
``sum_i p_i ** (1 - u_i * (1 - t))`` over probability vectors paired with
positive utilities, their analytic t-derivatives, entropies and
self-information moments, closed forms for uniform, geometric, and power-law
families (with built-in zeta numerics), and escort transforms with a
verifiable scaling identity.  A CLI front end lives in :mod:`igf.cli`.
"""

from .closed_forms import (
    ZETA_SERIES_TERMS,
    beta_power_entropy,
    beta_power_igf,
    geometric_entropy,
    geometric_igf,
    uniform_entropy,
    uniform_igf,
    zeta,
    zeta_derivative,
)
from .distributions import (
    COMPLETENESS_TOL,
    FamilyKind,
    Kind,
    ParametricFamily,
    ProbabilityDistribution,
    UtilityDistribution,
    UtilityInformationScheme,
    constant_utility_scheme,
    make_complete,
    make_generalized,
    make_scheme,
    realize_family,
    scheme_from_dict,
    scheme_to_dict,
)
from .errors import (
    AllZeroProbabilities,
    DomainError,
    EmptyInput,
    IGFError,
    InvalidParameter,
    LengthMismatch,
    NegativeProbability,
    NonPositiveUtility,
    ProbabilityAboveOne,
    SumExceedsOne,
    SumNotOne,
    TruncationRequired,
    ValidationError,
)
from .escort import (
    EscortPair,
    SCALING_IDENTITY_RTOL,
    ScalingIdentityReport,
    escort_transform,
    generalized_igf,
    unnormalized_power_igf,
    verify_scaling_identity,
)
from .generating_functions import (
    LogBase,
    golomb_igf,
    hooda_bhaker_igf,
    self_information_moment,
    shannon_entropy,
    weighted_entropy,
    weighted_igf,
    weighted_igf_derivative,
    weighted_self_information_moment,
)

__version__ = "0.1.0"

__all__ = [
    "AllZeroProbabilities",
    "COMPLETENESS_TOL",
    "DomainError",
    "EmptyInput",
    "EscortPair",
    "FamilyKind",
    "IGFError",
    "InvalidParameter",
    "Kind",
    "LengthMismatch",
    "LogBase",
    "NegativeProbability",
    "NonPositiveUtility",
    "ParametricFamily",
    "ProbabilityAboveOne",
    "ProbabilityDistribution",
    "SCALING_IDENTITY_RTOL",
    "ScalingIdentityReport",
    "SumExceedsOne",
    "SumNotOne",
    "TruncationRequired",
    "UtilityDistribution",
    "UtilityInformationScheme",
    "ValidationError",
    "ZETA_SERIES_TERMS",
    "beta_power_entropy",
    "beta_power_igf",
    "constant_utility_scheme",
    "escort_transform",
    "generalized_igf",
    "geometric_entropy",
    "geometric_igf",
    "golomb_igf",
    "hooda_bhaker_igf",
    "make_complete",
    "make_generalized",
    "make_scheme",
    "realize_family",
    "scheme_from_dict",
    "scheme_to_dict",
    "self_information_moment",
    "shannon_entropy",
    "uniform_entropy",
    "uniform_igf",
    "unnormalized_power_igf",
    "verify_scaling_identity",
    "weighted_entropy",
    "weighted_igf",
    "weighted_igf_derivative",
    "weighted_self_information_moment",
    "zeta",
    "zeta_derivative",
]
