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
import sys
from itertools import repeat
from operator import truediv
from typing import Iterator, Sequence

from .distributions import (
    Kind,
    ProbabilityDistribution,
    UtilityDistribution,
    UtilityInformationScheme,
    _Frozen,
)
from .errors import AllZeroProbabilities, DomainError, ValidationError, check_open, check_t
from .generating_functions import _exponent, _term_sums, weighted_igf

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
        if not isinstance(normalized, ProbabilityDistribution):
            raise ValidationError("escort distribution must be a ProbabilityDistribution")
        mass = check_open(mass, "escort mass", 0)
        beta = check_open(beta, "escort power beta", 0)
        total = normalized.total
        if not (abs(total - 1.0) <= 1e-12):
            raise ValidationError(
                f"escort distribution must sum to 1 within 1e-12, got {total!r}"
            )
        self._set(normalized, mass, beta)


def _escort_mass(probs: Sequence[float], beta: float) -> float:
    """The mass sum_j p_j**beta of ``probs``; 0 raises AllZeroProbabilities."""
    mass = next(_term_sums(probs, beta))
    if mass == 0.0:
        raise AllZeroProbabilities(
            "all probabilities are zero (or underflow to zero) after powering"
        )
    return mass


class _EscortEntries:
    """The escort entries ``p_i ** beta / mass`` of ``probs``, a stream that
    recomputes them in C on each pass and holds no tuple: the powers are
    taken twice, for the mass and the entries, rather than held as a list."""

    __slots__ = ("probs", "beta", "mass")

    def __init__(self, probs: Sequence[float], beta: float) -> None:
        self.probs, self.beta, self.mass = probs, beta, _escort_mass(probs, beta)

    def __iter__(self) -> Iterator[float]:
        return map(truediv, map(pow, self.probs, repeat(self.beta)), repeat(self.mass))


def escort_transform(dist: ProbabilityDistribution, beta: float) -> EscortPair:
    """Normalize the powered vector p_i**beta into a complete distribution.

    Works for generalized inputs as well; the only failure mode is a vector
    whose entries are all zero after powering.
    """
    beta = check_open(beta, "escort power beta", 0)
    entries = _EscortEntries(dist.probs, beta)
    normalized = ProbabilityDistribution(tuple(entries), Kind.COMPLETE)
    return EscortPair(normalized=normalized, mass=entries.mass, beta=beta)


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
    contribute nothing as long as their exponent stays positive.  At
    beta = 1 it is the weighted IGF of ``dist`` under the constant ``u``,
    bit for bit, value and errors, without the utility vector.
    """
    u = check_open(u, "constant utility u", 0)
    beta = check_open(beta, "escort power beta", 0)
    t = check_t(t, extended)
    return next(_term_sums(dist.probs, beta * _exponent(u, t)))


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
    max(|lhs|, |rhs|).  Without ``escort=``, the escort is summed as the
    stream :class:`_EscortEntries` at the one exponent s, in three passes
    over p, and no copy of it is made.  Its constructors' checks are not
    repeated, as none can fail: each entry p_i**beta / mass lies in [0, 1],
    for the mass is the fsum of the powers, and they total 1 within a few
    ulps.  A caller that already holds the escort pair of ``dist`` under
    ``beta`` and its weighted IGF at (u, t) passes both as ``escort=(pair,
    escort_igf)``, which saves two of those passes.  A powered sum or a
    ``mass ** s`` that is not finite raises DomainError, and so do two
    sides that are both below the normal range (0 or subnormal), whose
    agreement would pass vacuously.
    """
    u = check_open(u, "constant utility u", 0)
    beta = check_open(beta, "escort power beta", 0)
    s = _exponent(u, check_t(t, extended))
    lhs = next(_term_sums(dist.probs, beta * s))
    if escort is None:
        entries = _EscortEntries(dist.probs, beta)
        escort = entries, next(_term_sums(entries, s))  # of the pair, only .mass is read
    pair, escort_igf = escort
    try:
        scale = pair.mass**s
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise DomainError(f"escort mass {pair.mass!r} ** {s!r} overflows")
    rhs = escort_igf * scale
    if max(abs(lhs), abs(rhs)) < sys.float_info.min:
        raise DomainError(
            f"both sides of the scaling identity are below the normal range, "
            f"lhs {lhs!r} and rhs {rhs!r}: their agreement shows nothing"
        )
    abs_diff = abs(lhs - rhs)
    passed = abs_diff <= SCALING_IDENTITY_RTOL * max(abs(lhs), abs(rhs))
    return ScalingIdentityReport(lhs=lhs, rhs=rhs, abs_diff=abs_diff, passed=passed)
