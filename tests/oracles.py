"""Independent reference implementations used to pin expected test values.

Everything here is deliberately naive: plain Python sums over the defining
formulas, bracketing bounds instead of accelerated tails, and a generic
central-difference stencil over callables.  None of it imports the package
under test, so agreement between the two is meaningful.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


def igf_weighted_direct(probs: Sequence[float], utils: Sequence[float], t: float) -> float:
    return sum(p ** (1.0 - u * (1.0 - t)) for p, u in zip(probs, utils) if p > 0.0)


def igf_golomb_direct(probs: Sequence[float], t: float) -> float:
    return sum(p**t for p in probs if p > 0.0)


def igf_hooda_bhaker_direct(probs: Sequence[float], utils: Sequence[float], t: float) -> float:
    return sum(u * p**t for p, u in zip(probs, utils) if p > 0.0)


def igf_derivative_direct(
    probs: Sequence[float], utils: Sequence[float], t: float, r: int
) -> float:
    return sum(
        (u * math.log(p)) ** r * p ** (1.0 - u * (1.0 - t))
        for p, u in zip(probs, utils)
        if p > 0.0
    )


def entropy_direct(probs: Sequence[float], utils: Sequence[float] | None = None) -> float:
    if utils is None:
        utils = [1.0] * len(probs)
    return -sum(u * p * math.log(p) for p, u in zip(probs, utils) if p > 0.0)


def moment_direct(probs: Sequence[float], utils: Sequence[float], r: int) -> float:
    if r == 0:
        return sum(probs)
    return sum(p * (-u * math.log(p)) ** r for p, u in zip(probs, utils) if p > 0.0)


_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


def central_diff(
    f: Callable[[float], float], t: float, r: int, h: float, richardson: bool = False
) -> float:
    """Order-h**2 central difference of a scalar callable, optionally refined."""

    def raw(step: float) -> float:
        return sum(c * f(t + k * step) for k, c in _STENCILS[r]) / step**r

    if not richardson:
        return raw(h)
    return (4.0 * raw(h / 2.0) - raw(h)) / 3.0


def zeta_bracket(beta: float, terms: int = 2000) -> tuple[float, float]:
    """Rigorous bracket on zeta(beta): partial sum plus integral tail bounds.

    sum_{i>N} i**-beta lies between the integrals from N+1 and from N, so
    the true value sits inside the returned (lo, hi) interval.
    """
    partial = sum(i ** (-beta) for i in range(1, terms + 1))
    lo = partial + (terms + 1) ** (1.0 - beta) / (beta - 1.0)
    hi = partial + terms ** (1.0 - beta) / (beta - 1.0)
    return lo, hi


#: Most terms :func:`geometric_igf_direct` will sum before refusing.
GEOMETRIC_DIRECT_MAX_TERMS = 10**7


def geometric_igf_direct(p: float, u: float, t: float, tail: float = 1e-13) -> float:
    """Truncated sum of ((1-p) * p**i)**s with the analytic tail below `tail`.

    Raises ValueError, naming the count, when that takes more than
    GEOMETRIC_DIRECT_MAX_TERMS terms.
    """
    s = 1.0 - u * (1.0 - t)
    q = 1.0 - p
    if q**s == 0.0:
        return 0.0  # the first term is the largest, so every term is 0
    log_p_s = s * math.log(p)
    # -expm1(s ln p) is 1 - p**s without the cancellation that rounds it to 0
    cutoff = math.log(tail * -math.expm1(log_p_s)) - s * math.log(q)
    trunc = max(1, math.ceil(cutoff / log_p_s) + 1)
    if trunc > GEOMETRIC_DIRECT_MAX_TERMS:
        raise ValueError(
            f"the direct sum needs {trunc} terms, "
            f"above the {GEOMETRIC_DIRECT_MAX_TERMS} this oracle sums"
        )
    return sum((q * p**i) ** s for i in range(trunc))


def geometric_truncation_tail(p: float, u: float, t: float, trunc: int) -> float:
    """Exact tail mass of the truncated geometric IGF sum after `trunc` terms."""
    s = 1.0 - u * (1.0 - t)
    q = 1.0 - p
    return q**s * p ** (trunc * s) / -math.expm1(s * math.log(p))


def beta_power_igf_direct(
    beta: float, u: float, t: float, zeta_value: float, terms: int = 10**6
) -> float:
    """Direct sum of (i**-beta / zeta)**s; the normalizer is supplied by the
    caller (an exact constant or an independently computed value)."""
    s = 1.0 - u * (1.0 - t)
    n = np.arange(1, terms + 1, dtype=np.float64)
    return float(np.sum((n ** (-beta) / zeta_value) ** s))


def beta_power_entropy_direct(
    beta: float, u: float, zeta_value: float, terms: int = 10**6
) -> float:
    n = np.arange(1, terms + 1, dtype=np.float64)
    probs = n ** (-beta) / zeta_value
    return float(-np.sum(u * probs * np.log(probs)))


def random_simplex(rng: np.random.Generator, n: int) -> list[float]:
    return rng.dirichlet(np.ones(n)).tolist()


def random_scheme(
    rng: np.random.Generator,
    n_lo: int = 2,
    n_hi: int = 64,
    u_lo: float = 0.1,
    u_hi: float = 10.0,
) -> tuple[list[float], list[float]]:
    n = int(rng.integers(n_lo, n_hi + 1))
    probs = random_simplex(rng, n)
    utils = rng.uniform(u_lo, u_hi, size=n).tolist()
    return probs, utils


def floored_scheme(
    rng: np.random.Generator,
    n_lo: int = 2,
    n_hi: int = 16,
    u_lo: float = 0.5,
    u_hi: float = 4.0,
    floor_weight: float = 0.15,
) -> tuple[list[float], list[float]]:
    """Complete scheme whose probabilities stay well above 1e-3.

    Mixing the simplex draw with the uniform vector bounds entries into
    [floor_weight/n, 1 - floor_weight * (n-1)/n], keeping derivative
    magnitudes sane for finite-difference comparisons.
    """
    n = int(rng.integers(n_lo, n_hi + 1))
    raw = rng.dirichlet(np.ones(n))
    mixed = (1.0 - floor_weight) * raw + floor_weight / n
    mixed = mixed / mixed.sum()
    utils = rng.uniform(u_lo, u_hi, size=n).tolist()
    return mixed.tolist(), utils
