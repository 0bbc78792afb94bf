"""Closed-form generating functions and entropies for the built-in families.

Everything here assumes a constant utility u > 0 across outcomes and works
through the shared exponent s = 1 - u * (1 - t):

* uniform on n outcomes:   IGF = n ** (u * (1 - t)),        entropy = u * ln n
* geometric, p_i = (1-p) * p**i:  IGF = q**s / (1 - p**s),  entropy = -u * (p ln p + q ln q) / q
* power law, p_i = i**-beta / zeta(beta):  IGF = zeta(beta * s) / zeta(beta) ** s,
  entropy = u * (ln zeta(beta) - beta * zeta'(beta) / zeta(beta))

zeta, zeta - 1 and zeta' are sums over one short series with an
Euler-Maclaurin tail, each part yielded with its beta-derivative, in plain
Python rather than an external special-function library, so the error
budget is explicit and pinned by tests.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

from .distributions import (
    MAX_REALIZED_TERMS,
    FamilyKind,
    ParametricFamily,
    _family_terms,
    _realized_length,
)
from .errors import DomainError, check_int, check_open, check_real, check_t
from .generating_functions import _exponent, _signed, _term_sums

#: Leading terms the zeta evaluators sum explicitly.  The Euler-Maclaurin
#: tail after them carries ten Bernoulli corrections; the first omitted one,
#: B_22/22! * beta(beta+1)...(beta+20) * N**(-beta-21), stays below 2e-24
#: for every beta > 1 (and so does its beta-derivative), far under float
#: rounding.
ZETA_SERIES_TERMS = 16

#: B_2k / (2k)! for k = 1..10, from the Bernoulli numbers B_2k as exact
#: fractions (numerator, denominator).
_EM_COEFFS = tuple(
    num / (den * math.factorial(2 * k))
    for k, (num, den) in enumerate(
        [(1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
         (-691, 2730), (7, 6), (-3617, 510), (43867, 798), (-174611, 330)],
        start=1,
    )
)


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """Knuth's TwoSum: ``a + b`` rounded, and its rounding error, exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_product(a: float, b: float) -> tuple[float, float]:
    """Dekker's product: ``a * b`` rounded, and its rounding error, exactly
    while no partial product underflows (``math.fma`` needs Python 3.13)."""
    (a1, a2), (b1, b2) = _split(a), _split(b)
    p = a * b
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _split(a: float) -> tuple[float, float]:
    """Veltkamp's split of ``a`` into halves of 26 bits, whose products are
    exact; past 2**996, where (2**27 + 1) * a could overflow, of a * 2**-28."""
    if abs(a) > 2.0**996:
        hi, lo = _split(a * 2.0**-28)
        return hi * 2.0**28, lo * 2.0**28
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _zeta_parts(beta: float) -> Iterator[tuple[float, float]]:
    """The Euler-Maclaurin parts of :func:`zeta` after its leading 1, each
    with that part of -zeta'(beta).  With N = ``ZETA_SERIES_TERMS``: n**-beta
    and ln n * n**-beta for 2 <= n <= N; the tail N**(1-beta)/(beta-1) and
    N**(1-beta) * (ln N/(beta-1) + 1/(beta-1)**2); the half term -N**-beta/2
    and ln N times it; each correction B_2k/(2k)! * beta(beta+1)...(beta+2k-2)
    * N**(1-beta-2k) and ln N - sum_{j<2k-1} 1/(beta+j) times it, until the
    power of N underflows: every later one is 0, and for huge beta the
    rising product would overflow into inf * 0 = nan.
    """
    big = float(ZETA_SERIES_TERMS)
    log_big = math.log(big)
    for n in range(2, ZETA_SERIES_TERMS + 1):
        term = float(n) ** -beta
        yield term, math.log(n) * term
    tail = big ** (1.0 - beta)
    # once the power underflows, (beta - 1) ** 2 may overflow
    yield tail / (beta - 1.0), (
        tail * (log_big / (beta - 1.0) + 1.0 / (beta - 1.0) ** 2) if tail else 0.0
    )
    half = big**-beta
    yield -0.5 * half, -0.5 * log_big * half
    rising = beta
    harmonic = 1.0 / beta
    power = big ** (-beta - 1.0)
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        if not power:
            return
        term = coeff * rising * power
        yield term, term * (log_big - harmonic)
        rising *= (beta + 2 * k - 1) * (beta + 2 * k)
        harmonic += 1.0 / (beta + 2 * k - 1) + 1.0 / (beta + 2 * k)
        power /= big * big


@lru_cache(maxsize=None)
def zeta(beta: float) -> float:
    """Riemann zeta on the real axis, for beta > 1: the ``math.fsum`` of 1
    and the parts of :func:`_zeta_parts`.  Absolute error is below 1e-12
    for beta >= 1.001 (the remainder is negligible; what is left is float
    rounding of a value that grows like 1/(beta-1)).
    """
    beta = check_open(beta, "zeta argument beta", 1)
    return math.fsum([1.0, *(part for part, _ in _zeta_parts(beta))])


@lru_cache(maxsize=None)
def _zeta_minus_one(beta: float) -> float:
    """zeta(beta) - 1 for beta > 1, the fsum of the same parts as
    :func:`zeta` without its leading 1: so it keeps the digits that
    zeta(beta), near 1 for a large beta, rounds off."""
    return math.fsum(part for part, _ in _zeta_parts(beta))


@lru_cache(maxsize=None)
def zeta_derivative(beta: float) -> float:
    """d(zeta)/d(beta) = -sum_i ln(i) * i**-beta, for beta > 1, from the
    derivative parts of :func:`_zeta_parts`.  Absolute error is below 1e-10
    for beta >= 1.01."""
    beta = check_open(beta, "zeta_derivative argument beta", 1)
    return -math.fsum(slope for _, slope in _zeta_parts(beta))


def uniform_igf(n: int, u: float, t: float) -> float:
    """Weighted IGF of the uniform distribution on n outcomes: n**(u*(1-t)).

    Where ``float(n)`` or the power overflows, the value is taken in logs,
    as exp(u * (1 - t) * ln n).  A value too large for a float, and the
    infinite value at t = -inf for n > 1, raise DomainError.
    """
    n = check_int(n, "n", 1)
    u = check_open(u, "constant utility u", 0)
    t = check_real(t, "t")
    try:
        value = float(n) ** (u * (1.0 - t))
    except OverflowError:
        try:
            value = math.exp(u * (1.0 - t) * math.log(n))
        except OverflowError:
            value = math.inf
    if value == math.inf:  # an infinite exponent gives inf without raising
        raise DomainError(
            f"uniform IGF overflows: its log u * (1 - t) * ln n = "
            f"{u * (1.0 - t) * math.log(n)} exceeds the float range"
        )
    return value


def uniform_entropy(n: int, u: float) -> float:
    """Weighted entropy of the uniform distribution: u * ln(n)."""
    n = check_int(n, "n", 1)
    u = check_open(u, "constant utility u", 0)
    return _finite_entropy("uniform", u, u * math.log(n))


def _finite_entropy(family: str, u: float, value: float) -> float:
    if value == math.inf:
        raise DomainError(f"{family} entropy overflows: at u = {u!r} it exceeds the float range")
    return value


def _exponent_error(u: float, t: float) -> float:
    """The exact s = 1 - u * (1 - t) less the float ``_exponent(u, t)``
    gives, to about 2**-106: each step of that float sum and product is
    taken with its rounding error."""
    d, d_err = _two_sum(1.0, -t)
    m, m_err = _two_product(u, d)
    s_err = _two_sum(1.0, -m)[1]
    return s_err - (m_err + u * d_err)


def geometric_igf(p: float, u: float, t: float) -> float:
    """Weighted IGF of the geometric family p_i = (1-p) * p**i over i >= 0.

    Summing the geometric series gives q**s / (1 - p**s) with q = 1 - p and
    s = 1 - u * (1 - t); convergence needs s > 0, which holds automatically
    for t >= 1.  Below t = 1, s is taken to about 2**-106, since the value
    has a pole at s = 0.
    """
    p = check_open(p, "geometric ratio p", 0, 1)
    u = check_open(u, "constant utility u", 0)
    t = check_real(t, "t")
    s = _geometric_exponent(u, t)
    if s == 1.0 and t >= 1.0:
        return 1.0  # the total mass, exactly as q / (1 - p) = q / q gives it
    q = 1.0 - p
    # q**s multiplies the rounding of 1 - p by s: an inexact q (Sterbenz makes
    # 1 - q exact) gives way to log1p; expm1 keeps the digits 1 - p**s cancels
    power = q**s if 1.0 - q == p else math.exp(s * math.log1p(-p))
    # below t = 1 the exact s is below 1, and near the pole s = 0 the
    # rounding of s is the value's relative error (ln q times it, that of
    # q**s): both take s - fl(s), measured to help at every s < 1.  At
    # t >= 1 it is 0.0, and each product with it is an exact 0
    s_lo = _exponent_error(u, t) if t < 1.0 else 0.0
    log_p = math.log(p)
    return power * math.exp(s_lo * math.log1p(-p)) / -math.expm1(s * log_p + s_lo * log_p)


def _geometric_exponent(u: float, t: float) -> float:
    s = _exponent(u, t)
    if s <= 0.0:
        raise DomainError(f"geometric series diverges: exponent s = {s} must be positive")
    return s


def _geometric_truncation(p: float, u: float, t: float | None) -> int:
    """Terms of the geometric family that :func:`direct_sum_value` sums:
    enough that the omitted tail of the IGF (``t`` given) is below 1e-13, or
    that of the entropy (``t`` None) below 1e-15.  The entropy's count stops
    doubling at the first one above MAX_REALIZED_TERMS."""
    if t is None:
        trunc = 64
        while trunc <= MAX_REALIZED_TERMS and (trunc * -math.log(p) + 60.0) * p**trunc > 1e-15:
            trunc *= 2
        return trunc
    s = _geometric_exponent(u, t)
    q = 1.0 - p
    if q**s == 0.0 or p**s == 0.0:
        return 1  # every term after the first is 0
    # tail after T terms is q**s * p**(T*s) / (1 - p**s)
    log_p_s = s * math.log(p)
    bound = math.log(1e-13 * -math.expm1(log_p_s)) - s * math.log(q)
    return max(1, math.ceil(bound / log_p_s) + 1)


def geometric_entropy(p: float, u: float) -> float:
    """Weighted entropy of the geometric family: -u * (p ln p + q ln q) / q.

    ``ln q`` is ``log1p(-p)``, since ``1 - p`` rounds: ``log(1 - p)`` is
    off by 2.4e-5 relative at p = 1e-14."""
    p = check_open(p, "geometric ratio p", 0, 1)
    u = check_open(u, "constant utility u", 0)
    q = 1.0 - p
    return _finite_entropy("geometric", u, -u * (p * math.log(p) + q * math.log1p(-p)) / q)


def beta_power_igf(beta: float, u: float, t: float) -> float:
    """Weighted IGF of the power-law family p_i = i**-beta / zeta(beta).

    Equals zeta(beta * s) / zeta(beta) ** s with s = 1 - u * (1 - t); the
    transformed series converges only while beta * s > 1.  At s = inf the
    value is the limit 0: zeta(beta * s) tends to 1 and zeta(beta) ** s to
    inf.  A finite s whose ``beta * s`` overflows takes zeta(inf) = 1, and
    where zeta(beta) ** s overflows the quotient is taken in logs, where it
    underflows to 0.
    """
    beta = check_open(beta, "power-law exponent beta", 1)
    u = check_open(u, "constant utility u", 0)
    t = check_real(t, "t")
    s = _exponent(u, t)
    if beta * s <= 1.0:
        raise DomainError(
            f"power-law series diverges: beta * s = {beta * s} must exceed 1"
        )
    if s == math.inf:
        return 0.0
    if s == 1.0:  # at t = 1 the total mass, which is 1 exactly
        return 1.0
    numerator = 1.0 if beta * s == math.inf else zeta(beta * s)
    # zeta(beta) ** s carries s times the rounding of zeta(beta); the exp
    # form carries s * ln zeta(beta) times one rounding, the less where
    # zeta(beta) - 1 < 0.5, and the more above it: see the README
    if (zm1 := _zeta_minus_one(beta)) < 0.5:
        return numerator * math.exp(-s * math.log1p(zm1))
    try:
        return numerator / zeta(beta) ** s
    except OverflowError:
        return math.exp(math.log(numerator) - s * math.log(zeta(beta)))


def beta_power_entropy(beta: float, u: float) -> float:
    """Weighted entropy of the power-law family.

    u * (ln zeta(beta) - beta * zeta'(beta) / zeta(beta)); the derivative
    term is the mean of beta * ln(i) under the family.
    """
    beta = check_open(beta, "power-law exponent beta", 1)
    u = check_open(u, "constant utility u", 0)
    z = zeta(beta)
    # ln z from zeta(beta) - 1, whose digits z rounds off as beta grows
    log_z = math.log1p(_zeta_minus_one(beta))
    return _finite_entropy("power-law", u, u * (log_z - beta * zeta_derivative(beta) / z))


def closed_form_value(
    family: ParametricFamily, u: float, t: float | None = None, *, extended: bool = False
) -> float:
    """The closed form of ``family`` under the constant utility ``u``: its
    weighted IGF at ``t``, or its weighted entropy when ``t`` is None."""
    if t is not None:
        t = check_t(t, extended)
    if family.kind is FamilyKind.UNIFORM:
        return uniform_entropy(family.n, u) if t is None else uniform_igf(family.n, u, t)
    if family.kind is FamilyKind.GEOMETRIC:
        return geometric_entropy(family.p, u) if t is None else geometric_igf(family.p, u, t)
    return beta_power_entropy(family.beta, u) if t is None else beta_power_igf(family.beta, u, t)


def direct_sum_value(
    family: ParametricFamily, u: float, t: float | None = None, *, extended: bool = False
) -> float:
    """:func:`closed_form_value` summed over the terms of ``family`` realized
    (the power law to MAX_REALIZED_TERMS terms, the geometric one to
    :func:`_geometric_truncation`; ValidationError first where that is more):
    the sum of p ** s at s = 1 - u * (1 - t), or the entropy under ``u``.  No
    distribution is built: the realized family always passes its checks."""
    u = check_open(u, "constant utility u", 0)
    if t is not None:
        t = check_t(t, extended)
    truncation = MAX_REALIZED_TERMS  # the uniform family ignores it
    if family.kind is FamilyKind.GEOMETRIC:
        truncation = _geometric_truncation(family.p, u, t)
    terms = _family_terms(family, 0, _realized_length(family, truncation))
    if t is None or (s := _exponent(u, t)) <= 0.0:
        from array import array  # the kernel reads these terms more than once

        terms = array("d", terms)
    if t is not None:
        return next(_term_sums(terms, s))  # at s > 0 one pass: p ** s <= 1, no audit
    entropy = _signed(next(_term_sums(terms, None, ((u, 1),))), 1)
    if family.kind is FamilyKind.BETA_POWER:
        # -ln p_1 is ln zeta(beta), which ln(1 / zeta(beta)) loses as
        # zeta(beta) nears 1 (p_1 rounds to 1.0 past beta of about 53): the
        # first term takes it from zeta(beta) - 1, as the closed form does
        p1 = terms[0]
        entropy += u * p1 * (math.log1p(_zeta_minus_one(family.beta)) + math.log(p1))
    return entropy
