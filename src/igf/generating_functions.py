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
from operator import mul, sub
from typing import Iterable, Iterator, Sequence

from .distributions import (
    MAX_REALIZED_TERMS,
    ProbabilityDistribution,
    UtilityInformationScheme,
    _Frozen,
)
from .errors import DomainError, InvalidParameter, check_int, check_real, check_t


class LogBase(Enum):
    """Output logarithm base for entropy-like quantities."""

    NATURAL = "e"
    TWO = "2"


class Measure(Enum):
    """A generating function a curve can sample.  The definition order is
    the canonical column order of curve output."""

    WEIGHTED = "weighted"
    GOLOMB = "golomb"
    HOODA_BHAKER = "hooda_bhaker"


def _exponent(u: float, t: float) -> float:
    return 1.0 - u * (1.0 - t)


class _WeightedExponents:
    """The exponents ``1 - u_i * (1 - t)`` of ``utils`` as a stream that can
    be iterated more than once: each pass recomputes them in C, with the
    float operations of :func:`_exponent`, and no per-entry list is held."""

    __slots__ = ("utils", "t")

    def __init__(self, utils: Sequence[float], t: float) -> None:
        self.utils, self.t = utils, t

    def __iter__(self) -> Iterator[float]:
        return map(sub, repeat(1.0), map(mul, self.utils, repeat(1.0 - self.t)))

    def reaches_zero(self) -> bool:
        """Whether some exponent is <= 0.  No t >= 1 gives one; below
        t = 1 the smallest exponent is exactly that of the largest utility,
        because rounding is monotonic."""
        return self.t < 1.0 and _exponent(max(self.utils), self.t) <= 0.0


def _power_sum(
    probs: Sequence[float],
    exps: float | _WeightedExponents,
    weights: Sequence[Sequence[float] | None] = (None,),
) -> list[float]:
    """math.fsum of w_i * p_i ** e_i for each weight vector w of ``weights``,
    over one pass of powers: the plain kernel of every generating function.

    ``exps`` is one float exponent for every entry or the per-entry
    weighted exponents; a ``None`` weight vector stands for w_i = 1.  A zero
    probability adds nothing while its exponent is positive; under an
    exponent <= 0 it raises DomainError.  Only exponents that reach 0 or
    below need that scan, which no t >= 1 gives.  A power or sum too large
    for a float raises DomainError too; a weight times a finite power may
    still overflow to +-inf.
    """
    if isinstance(exps, float):
        scan, exps = exps <= 0.0, repeat(exps)
    else:
        scan = exps.reaches_zero()
    if scan:
        _check_zero_powers(probs, exps)
    pows = map(pow, probs, exps)
    try:
        if len(weights) > 1:
            pows = list(pows)
        return [math.fsum(pows if w is None else map(mul, w, pows)) for w in weights]
    except OverflowError:
        raise _overflow_error(probs, exps) from None


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
    """The DomainError for an OverflowError in a kernel sum: it names the
    first term that overflows, or else the sum."""
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


def weighted_igf(
    scheme: UtilityInformationScheme, t: float, *, extended: bool = False
) -> float:
    """Evaluate sum_i p_i ** (1 - u_i * (1 - t)).

    Equals the total probability mass at t = 1 (so exactly 1 for complete
    schemes) and reduces to :func:`golomb_igf` when every utility is 1.
    Non-increasing and convex in t for t >= 1.
    """
    t = check_t(t, extended)
    return _power_sum(scheme.dist.probs, _WeightedExponents(scheme.util.utils, t))[0]


def golomb_igf(
    dist: ProbabilityDistribution, t: float, *, extended: bool = False
) -> float:
    """Evaluate the unweighted generating function sum_i p_i ** t."""
    return _power_sum(dist.probs, check_t(t, extended))[0]


def hooda_bhaker_igf(
    scheme: UtilityInformationScheme, t: float, *, extended: bool = False
) -> float:
    """Evaluate the utility-premultiplied form sum_i u_i * p_i ** t."""
    return _power_sum(scheme.dist.probs, check_t(t, extended), (scheme.util.utils,))[0]


def evaluate_measure(
    measure: Measure, scheme: UtilityInformationScheme, t: float, *, extended: bool = False
) -> float:
    """The value of ``measure`` on ``scheme`` at ``t``: :func:`weighted_igf`,
    :func:`golomb_igf` of its distribution or :func:`hooda_bhaker_igf`.  A
    value that is not finite raises DomainError."""
    if measure is Measure.WEIGHTED:
        value = weighted_igf(scheme, t, extended=extended)
    elif measure is Measure.GOLOMB:
        value = golomb_igf(scheme.dist, t, extended=extended)
    elif measure is Measure.HOODA_BHAKER:
        value = hooda_bhaker_igf(scheme, t, extended=extended)
    else:
        raise InvalidParameter(f"unknown measure {measure!r}; expected a Measure")
    if not math.isfinite(value):
        raise DomainError(f"non-finite {measure.value} value at t = {t}")
    return value


def curve_values(
    scheme: UtilityInformationScheme,
    ts: Sequence[float],
    measures: Sequence[Measure],
    *,
    extended: bool = False,
) -> list[tuple[float, ...]]:
    """The values of ``measures`` at every t of ``ts``, one tuple per t.

    Each value equals (``==``) that of the pointwise :func:`weighted_igf`,
    :func:`golomb_igf` or :func:`hooda_bhaker_igf` call, and the first
    (t, measure) at which one of those raises raises the same error here.
    A value that is not finite raises DomainError once its row is complete.
    A measure that is not a :class:`Measure` and a t that is not a real
    number raise InvalidParameter before any sum; no t gives no rows.
    What the pointwise calls would repeat is done once:

    * Zero probabilities are dropped once per curve when t and every
      weighted exponent stay positive along the grid: then a zero adds
      exactly 0.0 to an fsum and no term can overflow, so no error names an
      entry index.
    * Per t, the measures that share an exponent share one
      :func:`_power_sum` pass.  Golomb and Hooda-Bhaker raise to ``t``; the
      weighted IGF raises to ``1 - u0 * (1 - t)`` under a constant utility
      ``u0`` and to the per-entry exponents (keyed ``None``) otherwise.
    * Per pass, each distinct weight vector is summed once: at u0 = 1 all
      three measures are one fsum, because ``1.0 * x == x`` and
      ``1 - 1 * (1 - t) == t`` on the usual grids.
    """
    for m in measures:
        if not isinstance(m, Measure):
            raise InvalidParameter(f"unknown measure {m!r}; expected a Measure")
    if len(ts) == 0:
        return []
    probs, utils = scheme.dist.probs, scheme.util.utils
    t_low = min(check_real(t, "t") for t in ts)
    # every exponent grows with t, and below t = 1 the weighted one shrinks
    # as u grows, so t_low and the largest utility give the smallest ones
    if t_low > 0.0 and _exponent(max(utils), t_low) > 0.0:
        probs, utils = list(compress(probs, probs)), list(compress(utils, probs))
    u0 = utils[0] if utils.count(utils[0]) == len(utils) else None
    hooda = None if u0 == 1.0 else utils  # None: unit weights
    rows = []
    for t in ts:
        t = check_t(t, extended)
        passes: dict[float | None, dict[bool, Sequence[float] | None]] = {}
        keys = []
        for m in measures:
            e = t if m is not Measure.WEIGHTED else None if u0 is None else _exponent(u0, t)
            w = hooda if m is Measure.HOODA_BHAKER else None
            passes.setdefault(e, {})[w is None] = w
            keys.append((e, w is None))
        sums = {}
        for e, ws in passes.items():
            exps = _WeightedExponents(utils, t) if e is None else e
            sums[e] = dict(zip(ws, _power_sum(probs, exps, list(ws.values()))))
        row = tuple(sums[e][unit] for e, unit in keys)
        if not all(map(math.isfinite, row)):
            raise DomainError(f"non-finite curve value at t = {t}")
        rows.append(row)
    return rows


def check_curve_grid(
    t_min: float, t_max: float, steps: int, extended: bool = False
) -> tuple[float, float]:
    """``(t_min, t_max)`` as floats, once they and ``steps`` make a curve
    grid: ``steps`` an integer from 2 to MAX_REALIZED_TERMS, both ends
    finite, t_min below t_max by a finite span, and t_min in the t domain
    (:func:`check_t`).  The checks of :class:`CurveRequest`, which a caller
    can run before it builds the scheme."""
    check_int(steps, "steps", 2)
    if steps > MAX_REALIZED_TERMS:
        raise InvalidParameter(f"steps must be at most {MAX_REALIZED_TERMS}, got {steps}")
    t_min, t_max = check_real(t_min, "t_min"), check_real(t_max, "t_max")
    for name, value in (("t_min", t_min), ("t_max", t_max)):
        if not math.isfinite(value):
            raise InvalidParameter(f"{name} must be finite, got {value!r}")
    if not t_min < t_max:
        raise InvalidParameter(f"need t_min < t_max, got {t_min!r} and {t_max!r}")
    if t_max - t_min == math.inf:
        # the grid step would be inf and the first point t_min + 0 * inf nan
        raise InvalidParameter(
            f"the span from t_min = {t_min!r} to t_max = {t_max!r} overflows"
        )
    check_t(t_min, extended)
    return t_min, t_max


class CurveRequest(_Frozen):
    """A grid-evaluation request over [t_min, t_max] with inclusive endpoints.

    ``steps`` counts the grid points, from 2 to MAX_REALIZED_TERMS.
    """

    __slots__ = _fields = ("scheme", "t_min", "t_max", "steps", "measures", "extended")

    scheme: UtilityInformationScheme
    t_min: float
    t_max: float
    steps: int
    measures: tuple[Measure, ...]
    extended: bool

    def __init__(
        self,
        scheme: UtilityInformationScheme,
        t_min: float,
        t_max: float,
        steps: int,
        measures: Sequence[Measure] = (Measure.WEIGHTED,),
        extended: bool = False,
    ) -> None:
        t_min, t_max = check_curve_grid(t_min, t_max, steps, extended)
        measures = tuple(m for m in Measure if m in set(measures))
        if not measures:
            raise InvalidParameter("at least one measure is required")
        self._set(scheme, t_min, t_max, steps, measures, extended)


def curve_grid(request: CurveRequest) -> list[float]:
    """The request's ``steps`` equally spaced t values, from t_min to t_max."""
    step = (request.t_max - request.t_min) / (request.steps - 1)
    # pin the endpoint so the grid covers [t_min, t_max] exactly
    ts = [request.t_min + k * step for k in range(request.steps - 1)]
    ts.append(request.t_max)
    return ts


def evaluate_curve(request: CurveRequest) -> list[tuple[float, tuple[float, ...]]]:
    """Every requested measure on the :func:`curve_grid` of ``request``, as
    (t, values) pairs with values ordered like the request's measures."""
    ts = curve_grid(request)
    rows = curve_values(request.scheme, ts, request.measures, extended=request.extended)
    return list(zip(ts, rows))


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
    t = check_t(t, extended)
    probs, utils = scheme.dist.probs, scheme.util.utils
    m = next(_moments(probs, utils, (r,), _WeightedExponents(utils, t)))
    return 0.0 - m if r % 2 else m


def shannon_entropy(
    dist: ProbabilityDistribution, base: LogBase = LogBase.NATURAL
) -> float:
    """Entropy -sum_i p_i * log(p_i), in nats or bits."""
    h = next(_moments(dist.probs, None, (1,)))
    return h / math.log(2.0) if base is LogBase.TWO else h


def weighted_entropy(
    scheme: UtilityInformationScheme, base: LogBase = LogBase.NATURAL
) -> float:
    """Utility-weighted entropy -sum_i u_i * p_i * log(p_i), the first moment."""
    h = next(_moments(scheme.dist.probs, scheme.util.utils, (1,)))
    return h / math.log(2.0) if base is LogBase.TWO else h


def _moments(
    probs: Sequence[float],
    weights: Sequence[float] | None,
    orders: Sequence[int],
    exps: _WeightedExponents | None = None,
) -> Iterator[float]:
    """sum_i p_i ** e_i * (-w_i * ln p_i) ** r for each r of ``orders``,
    lazily, with w_i = 1 when no weights and e_i = 1 when no exponents are
    given; order 0 is the total mass.  The log-weighted kernel: the
    entropies are its first order, and the r-th derivative of
    :func:`weighted_igf` is (-1) ** r times it at the weighted exponents.

    Zero entries are dropped, and ``a_i = w_i * ln p_i`` and ``p_i ** e_i``
    built, once for all orders.  Each order sums ``a_i ** r * p_i ** e_i``,
    negated when r is odd, and exact: CPython raises a negative float to an
    integer power as the power of its magnitude, negated when r is odd, and
    fsum rounds -x as it rounds x.  ``0.0 - s`` rather than ``-s`` keeps a
    sum of zero terms at +0.0.
    """
    pows = None
    for r in orders:
        if r == 0:
            yield math.fsum(probs)
            continue
        try:
            if pows is None:
                if exps is not None and exps.reaches_zero():
                    _check_zero_powers(probs, exps)
                a = map(math.log, compress(probs, probs))
                if weights is not None:
                    a = map(mul, compress(weights, probs), a)
                pows = compress(probs, probs)
                if exps is not None:
                    pows = map(pow, pows, compress(exps, probs))
                if len(orders) > 1:  # one order streams both passes
                    a, pows = list(a), list(pows)
            # a ** 1 is a, so the first order skips the power pass
            s = math.fsum(map(mul, a if r == 1 else map(pow, a, repeat(r)), pows))
        except OverflowError:
            raise _overflow_error(probs, exps or repeat(1.0), weights, r) from None
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
    return next(weighted_self_information_moments(scheme, (r,)))


def weighted_self_information_moments(
    scheme: UtilityInformationScheme, orders: Iterable[int]
) -> Iterator[float]:
    """:func:`weighted_self_information_moment` for each r of ``orders``,
    lazily, every order from one log pass over the scheme.

    Every order is checked before the first sum; each value is summed only
    when it is asked for.
    """
    orders = [check_int(r, "moment order r", 0) for r in orders]
    return _moments(scheme.dist.probs, scheme.util.utils, orders)
