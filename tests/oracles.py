"""Independent reference implementations used to pin expected test values.

Everything here is deliberately naive: plain Python sums over the defining
formulas, bracketing bounds instead of accelerated tails, and a generic
central-difference stencil over callables.  None of it imports the package
under test, so agreement between the two is meaningful.
"""

from __future__ import annotations

import json
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


#: Decimal digits of the mpmath references below.
MPMATH_DPS = 50


def zeta_mp(beta: float):
    """zeta(beta) for beta > 1, as an mpmath number of MPMATH_DPS digits.

    This and the references below import mpmath when called, so this
    module imports without it; their tests skip where it is missing."""
    import mpmath

    with mpmath.workdps(MPMATH_DPS):
        return mpmath.zeta(beta)


def zeta_derivative_mp(beta: float):
    """d(zeta)/d(beta) at beta > 1, in mpmath."""
    import mpmath

    with mpmath.workdps(MPMATH_DPS):
        return mpmath.zeta(beta, 1, 1)


def geometric_igf_mp(p: float, u: float, t: float):
    """The geometric family's weighted IGF q**s / (1 - p**s), in mpmath, with
    q = 1 - p exact, not the float it rounds to, and s = 1 - u * (1 - t)."""
    import mpmath

    with mpmath.workdps(MPMATH_DPS):
        big_p = mpmath.mpf(p)
        q = mpmath.fsub(1, big_p, exact=True)
        s = 1 - mpmath.mpf(u) * (1 - mpmath.mpf(t))
        return q**s / (1 - big_p**s)


def geometric_entropy_mp(p: float, u: float):
    """The geometric family's weighted entropy -u * (p ln p + q ln q) / q,
    in mpmath, with q = 1 - p exact."""
    import mpmath

    with mpmath.workdps(MPMATH_DPS):
        big_p = mpmath.mpf(p)
        q = mpmath.fsub(1, big_p, exact=True)
        return -u * (big_p * mpmath.log(big_p) + q * mpmath.log(q)) / q


def _power_law_dps(beta: float) -> int:
    """Digits that keep MPMATH_DPS of zeta(beta) - 1, about 2 ** -beta, in
    the zeta(beta) that the power-law references below take."""
    return MPMATH_DPS + math.ceil(beta * math.log10(2.0))


def beta_power_igf_mp(beta: float, u: float, t: float):
    """The power-law family's weighted IGF zeta(beta * s) / zeta(beta) ** s,
    in mpmath, with s = 1 - u * (1 - t)."""
    import mpmath

    with mpmath.workdps(_power_law_dps(beta)):
        s = 1 - mpmath.mpf(u) * (1 - mpmath.mpf(t))
        return mpmath.zeta(beta * s) / mpmath.zeta(beta) ** s


def beta_power_entropy_mp(beta: float, u: float):
    """The power-law family's weighted entropy
    u * (ln zeta(beta) - beta * zeta'(beta) / zeta(beta)), in mpmath."""
    import mpmath

    with mpmath.workdps(_power_law_dps(beta)):
        z = mpmath.zeta(beta)
        return u * (mpmath.log(z) - beta * mpmath.zeta(beta, 1, 1) / z)


def weighted_entropy_mp(probs: Sequence[float], utils: Sequence[float]):
    """The weighted entropy -sum_i u_i * p_i * ln p_i of a scheme, in
    mpmath: no factor u_i * ln p_i leaves the float range there."""
    return weighted_moment_mp(probs, utils, 1)


def weighted_moment_mp(probs: Sequence[float], utils: Sequence[float], r: int):
    """The r-th weighted self-information moment
    sum_i p_i * (-u_i * ln p_i) ** r of a scheme, in mpmath, for r >= 1."""
    import mpmath

    with mpmath.workdps(MPMATH_DPS):
        return mpmath.fsum(
            mpmath.mpf(p) * (-mpmath.mpf(u) * mpmath.log(p)) ** r
            for p, u in zip(probs, utils)
            if p
        )


def relative_error(value: float, reference) -> float:
    """|value - reference| / |reference| for an mpmath reference: the
    difference is taken against all its digits, not its float rounding."""
    return float(abs((value - reference) / reference))


def csv_scheme_rows(text: str, path: str) -> dict[str, list]:
    """The scheme document of CSV ``text``, read row by row over the whole
    text: blank rows skipped, the first other row skipped when it is a
    header, every other row two cells that are each a JSON number padded by
    JSON whitespace, read by ``json.loads`` as in a JSON document.  A bad
    row raises ValueError naming its number as the ``igf`` CLI's message
    does; an ASCII row is named without the spaces and tabs around it, any
    other row as it is, and a row past 80 characters by its first 80 and
    its length."""

    def shown(row: str) -> str:
        return repr(row) if len(row) <= 80 else f"{row[:80]!r}... ({len(row)} characters)"

    probs: list = []
    utils: list = []
    header = True
    for line in text.splitlines():
        row = line.strip()
        if not row:
            continue
        if header:
            header = False
            if row.replace(" ", "") in ("p,u", "probability,utility"):
                continue
        parts = row.split(",")
        if len(parts) != 2:
            raise ValueError(
                f"{path}: row {len(probs) + 1} must have two columns (p,u), got {shown(row)}"
            )
        try:
            p, u = (json.loads(cell) for cell in line.split(","))
            if not all(type(x) in (int, float) for x in (p, u)):
                raise ValueError
        except (ValueError, RecursionError):
            cut = line.strip(" \t") if line.isascii() else line
            raise ValueError(
                f"{path}: row {len(probs) + 1} has non-numeric entries: {shown(cut)}"
            ) from None
        probs.append(p)
        utils.append(u)
    return {"probabilities": probs, "utilities": utils}


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
