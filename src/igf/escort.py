"""Power (escort) transforms of distributions and the scaling identity.

Raising every probability to a power beta > 0 and renormalizing yields the
escort distribution p_i**beta / sum_j p_j**beta, which is always complete
regardless of the input's kind.  Keeping the powered vector unnormalized
instead relates to the escort through a closed identity: for a constant
utility u and s = 1 - u * (1 - t),

    sum_i p_i**(beta*s)  =  I(escort, u, t) * (sum_j p_j**beta) ** s

where I is the weighted generating function.  ``verify_scaling_identity``
evaluates both sides independently and reports whether they agree to the
relative tolerance ``SCALING_IDENTITY_RTOL``.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import truediv

from .distributions import (
    Kind,
    ProbabilityDistribution,
    UtilityDistribution,
    UtilityInformationScheme,
    _Frozen,
    constant_utility_scheme,
)
from .errors import AllZeroProbabilities, DomainError, ValidationError, check_open, check_t
from .generating_functions import _exponent, _power_sum, weighted_igf

#: Relative tolerance for declaring the scaling identity verified.
SCALING_IDENTITY_RTOL = 1e-10


class EscortPair(_Frozen):
    """An escort distribution together with the mass that normalized it.

    ``mass`` is sum_j p_j**beta of the source vector, so ``normalized``
    scaled by ``mass`` recovers the raw powered vector.
    """

    __slots__ = _fields = ("normalized", "mass", "beta")

    normalized: ProbabilityDistribution
    mass: float
    beta: float

    def __init__(self, normalized: ProbabilityDistribution, mass: float, beta: float) -> None:
        if not (mass > 0.0 and math.isfinite(mass)):
            raise ValidationError(f"escort mass must be positive, got {mass!r}")
        total = normalized.total
        if not (abs(total - 1.0) <= 1e-12):
            raise ValidationError(
                f"escort distribution must sum to 1 within 1e-12, got {total!r}"
            )
        self._set(normalized, mass, beta)


def escort_transform(dist: ProbabilityDistribution, beta: float) -> EscortPair:
    """Normalize the powered vector p_i**beta into a complete distribution.

    Works for generalized inputs as well; the only failure mode is a vector
    whose entries are all zero after powering.
    """
    beta = check_open(beta, "escort power beta", 0)
    # the powers are taken twice, for the mass and for the normalized
    # tuple, rather than held as a list next to that tuple
    mass = math.fsum(map(pow, dist.probs, repeat(beta)))
    if mass == 0.0:
        raise AllZeroProbabilities(
            "all probabilities are zero (or underflow to zero) after powering"
        )
    powered = map(pow, dist.probs, repeat(beta))
    normalized = ProbabilityDistribution(
        tuple(map(truediv, powered, repeat(mass))), Kind.COMPLETE
    )
    return EscortPair(normalized=normalized, mass=mass, beta=beta)


def generalized_igf(
    dist: ProbabilityDistribution,
    util: UtilityDistribution,
    beta: float,
    t: float,
    *,
    extended: bool = False,
) -> float:
    """Weighted IGF of the escort of ``dist`` under ``util``."""
    pair = escort_transform(dist, beta)
    scheme = UtilityInformationScheme(pair.normalized, util)
    return weighted_igf(scheme, t, extended=extended)


def unnormalized_power_igf(
    dist: ProbabilityDistribution,
    u: float,
    beta: float,
    t: float,
    *,
    extended: bool = False,
) -> float:
    """Weighted IGF of the raw powered vector: sum_i p_i ** (beta * s).

    Constant utility only; s = 1 - u * (1 - t) as usual.  Zero entries
    contribute nothing as long as their exponent stays positive.
    """
    u = check_open(u, "constant utility u", 0)
    beta = check_open(beta, "escort power beta", 0)
    t = check_t(t, extended)
    return _power_sum(dist.probs, beta * _exponent(u, t))[0]


class ScalingIdentityReport(_Frozen):
    """Both sides of the scaling identity and whether they agree."""

    __slots__ = _fields = ("lhs", "rhs", "abs_diff", "passed")

    lhs: float
    rhs: float
    abs_diff: float
    passed: bool

    def __init__(self, lhs: float, rhs: float, abs_diff: float, passed: bool) -> None:
        self._set(lhs, rhs, abs_diff, passed)


def verify_scaling_identity(
    dist: ProbabilityDistribution,
    u: float,
    beta: float,
    t: float,
    *,
    extended: bool = False,
    escort: tuple[EscortPair, float] | None = None,
) -> ScalingIdentityReport:
    """Check sum p**(beta*s) == I(escort, u, t) * mass**s numerically.

    The two sides are computed along independent code paths (direct powered
    sum versus escort normalization followed by the weighted IGF).  They are
    declared in agreement when |lhs - rhs| <= SCALING_IDENTITY_RTOL *
    max(1, |lhs|).  A caller that already holds the escort pair of ``dist``
    under ``beta`` and its weighted IGF at (u, t) passes both as
    ``escort=(pair, escort_igf)``, and neither is built again.
    """
    u = check_open(u, "constant utility u", 0)
    lhs = unnormalized_power_igf(dist, u, beta, t, extended=extended)
    if escort is None:
        pair = escort_transform(dist, beta)
        escort_scheme = constant_utility_scheme(pair.normalized, u)
        escort = pair, weighted_igf(escort_scheme, t, extended=extended)
    pair, escort_igf = escort
    s = _exponent(u, t)
    try:
        scale = pair.mass**s
    except OverflowError:
        raise DomainError(f"escort mass {pair.mass!r} ** {s!r} overflows") from None
    rhs = escort_igf * scale
    abs_diff = abs(lhs - rhs)
    passed = abs_diff <= SCALING_IDENTITY_RTOL * max(1.0, abs(lhs))
    return ScalingIdentityReport(lhs=lhs, rhs=rhs, abs_diff=abs_diff, passed=passed)
