"""Information generating functions and the measures derived from them.

The central object is the utility-weighted generating function of a scheme,

    I(P, U, t) = sum_i p_i ** (1 - u_i * (1 - t)),

alongside the classical unweighted form ``sum_i p_i ** t`` and the
utility-premultiplied form ``sum_i u_i * p_i ** t``.  Differentiating the
weighted form r times in t multiplies each term by ``(u_i * ln p_i) ** r``,
so at t = 1 the first derivative recovers minus the weighted entropy and
higher derivatives recover signed self-information moments.  Those identities
are what the test suite leans on.

Conventions: outcomes with zero probability contribute nothing (0 * log 0 and
0 ** e for e > 0 are both taken as 0), all logarithms are natural with an
optional base-2 conversion on output, and sums are accumulated with
``math.fsum`` so 1e-12 tolerances stay honest for vectors up to 1e6 entries.
By default t must be at least 1; passing ``extended=True`` lifts that and
allows any t for which every term is defined.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import compress, repeat
from operator import mul
from typing import Iterable, Iterator, Sequence

from .distributions import ProbabilityDistribution, UtilityInformationScheme
from .errors import DomainError, check_int, check_real


class LogBase(Enum):
    """Output logarithm base for entropy-like quantities."""

    NATURAL = "e"
    TWO = "2"


def _checked_t(t: float, extended: bool) -> float:
    t = check_real(t, "t")
    if not extended and t < 1.0:
        raise DomainError(
            f"t = {t} is below the default domain t >= 1; pass extended=True "
            f"(--extended-t on the command line) to evaluate there"
        )
    return t


def _power_sum(
    probs: Sequence[float],
    exps: Sequence[float],
    weights: Sequence[float] | None = None,
    r: int = 0,
) -> float:
    """math.fsum of c_i * p_i ** e_i: the generating functions and their
    derivatives are this sum, and the moments it at every exponent 1.

    ``c_i`` is ``w_i`` for r = 0 and ``(w_i * ln p_i) ** r`` for r >= 1,
    with ``w_i = 1`` when no weights are given.  A zero probability adds
    nothing while its exponent is positive (and is left out of the r >= 1
    sums, where ln 0 is undefined); under an exponent <= 0 it raises
    DomainError.  Only exponents that reach 0 or below need that scan, which
    no t >= 1 gives.  A power or sum too large for a float raises DomainError
    too; a weight times a finite power may still overflow to +-inf.
    """
    if min(exps) <= 0.0:
        _check_zero_powers(probs, exps)
    if r:
        ws = repeat(1.0) if weights is None else weights
        terms = (
            (w * math.log(p)) ** r * p**e for p, e, w in zip(probs, exps, ws) if p
        )
    elif weights is None:
        terms = map(pow, probs, exps)
    else:
        terms = map(mul, weights, map(pow, probs, exps))
    try:
        return math.fsum(terms)
    except OverflowError:
        raise _overflow_error(probs, exps, weights, r) from None


def _check_zero_powers(probs: Sequence[float], exps: Iterable[float]) -> None:
    for i, (p, e) in enumerate(zip(probs, exps)):
        if p == 0.0 and e <= 0.0:
            raise DomainError(f"zero probability at entry {i} with exponent {e} <= 0")


def _overflow_error(
    probs: Sequence[float],
    exps: Iterable[float],
    weights: Sequence[float] | None = None,
    r: int = 0,
) -> DomainError:
    """The DomainError for an OverflowError in a :func:`_power_sum`: it names
    the first term that overflows, or else the sum."""
    # Python raises OverflowError for finite operands with huge results,
    # which only extended-domain evaluations and extreme utilities reach
    ws = repeat(1.0) if weights is None else weights
    for i, (p, e, w) in enumerate(zip(probs, exps, ws)):
        try:
            p**e
            if r and p:
                (w * math.log(p)) ** r
        except OverflowError:
            return DomainError(f"term {i} overflows: probability {p!r}, exponent {e!r}")
    return DomainError("the sum of the terms overflows")


def _weighted_exponents(utils: Sequence[float], t: float) -> list[float]:
    return [1.0 - u * (1.0 - t) for u in utils]


def weighted_igf(
    scheme: UtilityInformationScheme, t: float, *, extended: bool = False
) -> float:
    """Evaluate sum_i p_i ** (1 - u_i * (1 - t)).

    Equals the total probability mass at t = 1 (so exactly 1 for complete
    schemes) and reduces to :func:`golomb_igf` when every utility is 1.
    Non-increasing and convex in t for t >= 1.
    """
    t = _checked_t(t, extended)
    return _power_sum(scheme.dist.probs, _weighted_exponents(scheme.util.utils, t))


def golomb_igf(
    dist: ProbabilityDistribution, t: float, *, extended: bool = False
) -> float:
    """Evaluate the unweighted generating function sum_i p_i ** t."""
    t = _checked_t(t, extended)
    return _power_sum(dist.probs, (t,) * len(dist))


def hooda_bhaker_igf(
    scheme: UtilityInformationScheme, t: float, *, extended: bool = False
) -> float:
    """Evaluate the utility-premultiplied form sum_i u_i * p_i ** t."""
    t = _checked_t(t, extended)
    return _power_sum(scheme.dist.probs, (t,) * len(scheme), scheme.util.utils)


def weighted_igf_derivative(
    scheme: UtilityInformationScheme, t: float, r: int, *, extended: bool = False
) -> float:
    """r-th t-derivative of :func:`weighted_igf`, computed analytically.

    Each surviving term is ``(u_i * ln p_i) ** r * p_i ** (1 - u_i * (1 - t))``.
    At t = 1 the value equals ``(-1) ** r`` times the r-th weighted
    self-information moment; in particular minus the first derivative at
    t = 1 is the weighted entropy.
    """
    r = check_int(r, "derivative order r", 1)
    t = _checked_t(t, extended)
    return _power_sum(
        scheme.dist.probs, _weighted_exponents(scheme.util.utils, t), scheme.util.utils, r
    )


def shannon_entropy(
    dist: ProbabilityDistribution, base: LogBase = LogBase.NATURAL
) -> float:
    """Entropy -sum_i p_i * log(p_i), in nats or bits."""
    # 0.0 - s, not -s: a point mass has entropy +0.0
    h = 0.0 - math.fsum(p * math.log(p) for p in dist.probs if p > 0.0)
    return h / math.log(2.0) if base is LogBase.TWO else h


def weighted_entropy(
    scheme: UtilityInformationScheme, base: LogBase = LogBase.NATURAL
) -> float:
    """Utility-weighted entropy -sum_i u_i * p_i * log(p_i)."""
    h = 0.0 - math.fsum(
        u * p * math.log(p)
        for p, u in zip(scheme.dist.probs, scheme.util.utils)
        if p > 0.0
    )
    return h / math.log(2.0) if base is LogBase.TWO else h


def _moments(
    probs: Sequence[float], weights: Sequence[float] | None, orders: Iterable[int]
) -> Iterator[float]:
    """sum_i p_i * (-w_i * ln p_i) ** r for each r of ``orders``, lazily,
    with w_i = 1 when no weights are given.

    Zero entries are dropped and ``a_i = w_i * ln p_i`` is built once for all
    orders.  For r >= 1 each sum is (-1) ** r times the kernel sum with every
    exponent 1 (its terms are ``a_i ** r * p_i``, as ``p ** 1.0 == p``), and
    exact: CPython raises a negative float to an integer power as the power
    of its magnitude, negated when r is odd, and fsum rounds -x as it rounds
    x.  ``0.0 - s`` rather than ``-s`` keeps a sum of zero terms at +0.0.
    """
    nonzero: list[float] | None = None
    for r in orders:
        if r == 0:
            yield math.fsum(probs)
            continue
        if nonzero is None:
            nonzero = list(compress(probs, probs))
            logs = map(math.log, nonzero)
            a = list(logs if weights is None else map(mul, compress(weights, probs), logs))
        try:
            s = math.fsum(map(mul, map(pow, a, repeat(r)), nonzero))
        except OverflowError:
            raise _overflow_error(probs, repeat(1.0), weights, r) from None
        yield 0.0 - s if r % 2 else s


def self_information_moment(dist: ProbabilityDistribution, r: int) -> float:
    """r-th moment of self-information, sum_i p_i * (-log p_i) ** r.

    Non-negative for every r; r = 0 returns the total mass and r = 1 the
    Shannon entropy.
    """
    return next(_moments(dist.probs, None, (check_int(r, "moment order r", 0),)))


def weighted_self_information_moment(
    scheme: UtilityInformationScheme, r: int
) -> float:
    """r-th weighted moment, sum_i p_i * (-u_i * log p_i) ** r.

    Non-negative for every r (the signed variant is ``(-1) ** r`` times
    this); r = 1 recovers the weighted entropy.
    """
    r = check_int(r, "moment order r", 0)
    return next(_moments(scheme.dist.probs, scheme.util.utils, (r,)))
