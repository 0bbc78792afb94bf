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
allows any t for which every term is defined.  A sum that fails raises
DomainError naming its first undefined or non-finite term, or the sum.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial
from itertools import compress, islice, repeat
from operator import ge, mul, not_, sub
from typing import Iterable, Iterator, Sequence

from .distributions import (
    MAX_REALIZED_TERMS,
    ProbabilityDistribution,
    UtilityInformationScheme,
    _setattr,
    constant_utility_scheme,
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


def _log_weights(scheme: UtilityInformationScheme, keep: bool = True) -> Iterable[float]:
    """``a_i = u_i * ln p_i`` over the nonzero entries of ``scheme``.  The
    first call builds the list into the scheme's ``_logs`` slot and every
    later one returns it; with ``keep`` false and no list built, they are
    one lazy pass instead, and the slot stays empty."""
    logs = scheme._logs
    if logs is None:
        probs = scheme.dist.probs
        logs = map(mul, compress(scheme.util.utils, probs), map(math.log, compress(probs, probs)))
        if keep:
            logs = list(logs)
            _setattr(scheme, "_logs", logs)
    return logs


def _term_sums(
    probs: Sequence[float],
    exps: float | _WeightedExponents | None,
    specs: Sequence[tuple[Sequence[float] | UtilityInformationScheme | None, int]] = ((None, 0),),
    keep_logs: bool = True,
) -> Iterator[float]:
    """math.fsum of c_i * p_i ** e_i for each spec ``(w, r)`` of ``specs``,
    lazily, over one pass of powers: the one kernel of every measure.

    For r = 0, ``c_i`` is ``w_i``, and a ``None`` weight vector stands for
    w_i = 1.  For r >= 1, ``w`` is the scheme whose probabilities
    ``probs`` are, and ``c_i`` is ``a_i ** r`` over its cached
    :func:`_log_weights`, which one spec streams when ``keep_logs`` is
    false; ``a ** 1`` is taken as ``a``.  ``exps`` is one
    float exponent for every entry, the per-entry weighted exponents, or
    ``None`` for e_i = 1, which takes no power.  An exponent of exactly 1.0,
    and the weighted ones at t = 1 (``1 - u * 0.0`` is 1.0 for every finite
    u), are that case too: ``p ** 1.0 == p``.  A zero probability adds
    nothing while its exponent is positive; under an exponent <= 0 it has
    no term, and the first sum raises.  Only exponents that reach 0 or
    below need that test, which no t >= 1 gives.  An order r > 0 drops the
    zero entries, which have no log; fsum ignores the exact zeros they
    would add.  The powers are shared by every spec.  A sum that is not
    finite is summed again by :func:`_rescaled_sum` where its order r >= 1
    and a log weight overflows; otherwise it raises too: the DomainError of
    :func:`_audit`, or of the sum.
    """
    if isinstance(exps, float):
        scan, exps = exps <= 0.0, None if exps == 1.0 else repeat(exps)
    elif exps is not None and exps.t == 1.0:
        scan, exps = False, None
    else:
        scan = exps is not None and exps.reaches_zero()
    # the smallest exponent of a zero entry, in C: the walk in Python runs
    # only when some zero entry has no term
    if scan and min(compress(exps, map(not_, probs)), default=1.0) <= 0.0:
        raise _audit(probs, exps, *specs[0])
    many = len(specs) > 1  # one spec streams every pass
    pows = probs if exps is None else None
    kept = None  # the powers of the nonzero entries
    for w, r in specs:
        try:
            if pows is None:
                pows = map(pow, probs, exps)
                if many:
                    pows = list(pows)
            if r:
                a = _log_weights(w, keep_logs or many)
                if kept is None:
                    kept = compress(pows, probs)
                    kept = list(kept) if many else kept
                terms = map(mul, a if r == 1 else map(pow, a, repeat(r)), kept)
            else:
                terms = pows if w is None else map(mul, w, pows)
            s = math.fsum(terms)
        except OverflowError:
            s = math.inf
        if not math.isfinite(s):
            s = _rescaled_sum(probs, exps, w, r) if r else None
            if s is None:
                raise _audit(probs, exps, w, r) or DomainError("the sum of the terms overflows")
        yield s


def _rescaled_sum(
    probs: Sequence[float],
    exps: Iterable[float] | None,
    scheme: UtilityInformationScheme,
    r: int,
) -> float | None:
    """The :func:`_term_sums` sum of spec ``(scheme, r)`` whose factor
    ``(u_i * ln p_i) ** r`` overflows for some finite u_i, although the
    terms may not: summed with every u_i scaled by 2 ** -k, which is exact
    outside the subnormal range, and scaled back by 2 ** (k * r).  k takes
    the largest |u_i * ln p_i| below 2 ** (1023 // r), from the binary
    exponents of both factors.  So no scaled factor overflows, and the
    largest is near the float range, far above the terms that underflow.
    None where no factor overflowed, or where a scaled term or the value is
    not finite."""
    logs = _log_weights(scheme, keep=False)
    try:
        if all(map(math.isfinite, logs if r == 1 else map(pow, logs, repeat(r)))):
            return None
    except OverflowError:
        pass
    nonzero = partial(compress, selectors=probs)
    utils = scheme.util.utils
    k = max(
        math.frexp(u)[1] + math.frexp(math.log(p))[1]
        for p, u in zip(nonzero(probs), nonzero(utils))
    ) - 1023 // r
    scaled = map(mul, nonzero(utils), repeat(math.ldexp(1.0, -k)))
    a = map(mul, scaled, map(math.log, nonzero(probs)))
    pows = nonzero(probs) if exps is None else map(pow, nonzero(probs), nonzero(exps))
    try:
        s = math.ldexp(math.fsum(map(mul, a if r == 1 else map(pow, a, repeat(r)), pows)), k * r)
    except OverflowError:
        return None
    return s if math.isfinite(s) else None


def _audit(
    probs: Sequence[float],
    exps: Iterable[float] | None,
    w: Sequence[float] | UtilityInformationScheme | None,
    r: int,
) -> DomainError | None:
    """The DomainError of the first term of a :func:`_term_sums` sum of
    spec ``(w, r)``, in index order, that is undefined (a zero probability
    under an exponent <= 0) or not finite, naming the factor, or the
    product of factors, that is not; None if every term is finite."""
    # Python raises OverflowError for finite operands with huge results,
    # which only extended-domain evaluations and extreme utilities reach;
    # p ** -inf and a product past the float range are +-inf instead
    ones = repeat(1.0)
    ws = w.util.utils if r else ones if w is None else w
    for i, (p, e, wi) in enumerate(zip(probs, ones if exps is None else exps, ws)):
        if p == 0.0 and e <= 0.0:
            return DomainError(f"zero probability at entry {i} with exponent {e} <= 0")
        try:
            power = p**e
        except OverflowError:
            power = math.inf
        if not math.isfinite(power):
            return DomainError(f"term {i} overflows: probability {p!r}, exponent {e!r}")
        if r and p:
            try:
                factor = (wi * math.log(p)) ** r
            except OverflowError:
                factor = math.inf
            if not math.isfinite(factor * power):
                tail = f" * {p!r} ** {e!r}" if math.isfinite(factor) else ""
                return DomainError(f"term {i} overflows: ({wi!r} * ln {p!r}) ** {r}{tail}")
        elif not r and not math.isfinite(wi * power):
            return DomainError(f"term {i} overflows: {wi!r} * {p!r} ** {e!r}")
    return None


def weighted_igf(
    scheme: UtilityInformationScheme, t: float, *, extended: bool = False
) -> float:
    """Evaluate sum_i p_i ** (1 - u_i * (1 - t)).

    Equals ``scheme.dist.total`` at t = 1, which for a complete scheme is
    within COMPLETENESS_TOL of 1, not always exactly 1, and reduces to
    :func:`golomb_igf` when every utility is 1.  Non-increasing and convex
    in t for t >= 1.
    """
    t = check_t(t, extended)
    return next(_term_sums(scheme.dist.probs, _WeightedExponents(scheme.util.utils, t)))


def golomb_igf(
    dist: ProbabilityDistribution, t: float, *, extended: bool = False
) -> float:
    """Evaluate the unweighted generating function sum_i p_i ** t."""
    return next(_term_sums(dist.probs, check_t(t, extended)))


def hooda_bhaker_igf(
    scheme: UtilityInformationScheme, t: float, *, extended: bool = False
) -> float:
    """Evaluate the utility-premultiplied form sum_i u_i * p_i ** t."""
    t = check_t(t, extended)
    return next(_term_sums(scheme.dist.probs, t, ((scheme.util.utils, 0),)))


#: Grid points from which :func:`curve_values` sums its passes from sorted
#: copies of the scheme: measured, see the README.
_SORTED_CURVE_POINTS = 16


def _descending_copies(
    scheme: UtilityInformationScheme, t_mid: float
) -> tuple[Sequence[float], Sequence[float], tuple[Sequence[float], ...]] | None:
    """The probabilities and utilities of the nonzero entries of ``scheme``
    as contiguous ``array('d')`` copies, largest term first: in descending
    p for every t-power pass, since p ** e falls as p grows for every
    e > 0; and, as a second pair for the per-entry weighted pass under
    varied utilities, in the descending order of its terms at ``t_mid``.
    None if the entries already come in descending p, as those of the
    realized families do."""
    probs, utils = scheme.dist.probs, scheme.util.utils
    kept = partial(compress, selectors=probs)
    if all(map(ge, kept(probs), islice(kept(probs), 1, None))):
        return None
    from array import array  # a curve that sorts nothing never imports it

    varied = utils.count(utils[0]) != len(utils)
    if varied:
        # sorted() takes every key, in entry order, before it moves an entry
        keys = list(map(pow, kept(probs), _WeightedExponents(kept(utils), t_mid)))
        weighted = tuple(
            array("d", sorted(kept(v), key=partial(next, iter(keys)), reverse=True))
            for v in (probs, utils)
        )
        del keys  # before the next copies: the peak is that of one order
    by_p = array("d", sorted(kept(probs), reverse=True))
    if not varied:  # a constant utility: one order serves every pass
        same = array("d", utils[:1]) * len(by_p)
        return by_p, same, (by_p, same)
    utils_p = array("d", sorted(kept(utils), key=partial(next, kept(probs)), reverse=True))
    return by_p, utils_p, weighted


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
    (t, measure) at which one of those raises, for a value that is not
    finite too, raises the same error here.  A measure that is not a
    :class:`Measure` and a t that is not a real number raise
    InvalidParameter before any sum; no t gives no rows.
    What the pointwise calls would repeat is done once:

    * Zero probabilities are dropped once per curve of two or more points
      when t and every weighted exponent stay positive along the grid: then
      a zero adds exactly 0.0 to an fsum and no term can overflow, so no
      error names an entry index.  One point has nothing to share the copy
      with, so it sums the scheme as it is.  From _SORTED_CURVE_POINTS
      points on, the copies are the contiguous, sorted ones of
      :func:`_descending_copies`: fsum is correctly rounded, so the order
      of the terms moves no bit, and largest first it runs faster.
    * Per t, the measures that share an exponent share one
      :func:`_term_sums` pass.  Golomb and Hooda-Bhaker raise to ``t``; the
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
    drop = len(ts) > 1 and t_low > 0.0 and not _WeightedExponents(utils, t_low).reaches_zero()
    copies = None
    if drop and len(ts) >= _SORTED_CURVE_POINTS:
        copies = _descending_copies(scheme, check_real(ts[len(ts) // 2], "t"))
    if copies:
        probs, utils, weighted = copies
    else:
        if drop:
            probs, utils = list(compress(probs, probs)), list(compress(utils, probs))
        weighted = probs, utils  # the entries of the per-entry weighted pass
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
        # passes and the weight vectors of each are in the order of the
        # first measure that uses them, so pulling the lazy sums in measure
        # order sums no later measure first: the first error raised is that
        # of the pointwise loop
        sums = {
            e: _term_sums(weighted[0], _WeightedExponents(weighted[1], t), [(None, 0)])
            if e is None else _term_sums(probs, e, [(w, 0) for w in ws.values()])
            for e, ws in passes.items()
        }
        values: dict[tuple[float | None, bool], float] = {}
        for key in keys:
            if key not in values:
                values[key] = next(sums[key[0]])
        rows.append(tuple(values[key] for key in keys))
    return rows


def curve_grid(
    t_min: float, t_max: float, steps: int, extended: bool = False
) -> list[float]:
    """``steps`` equally spaced t values from t_min to t_max, both included.

    The grid is checked before it is built: ``steps`` an integer from 2 to
    MAX_REALIZED_TERMS, both ends finite, t_min below t_max by a finite
    span, and t_min in the t domain (:func:`check_t`).
    """
    t_min, t_max = check_curve_grid(t_min, t_max, steps, extended)
    step = (t_max - t_min) / (steps - 1)
    # pin the endpoint so the grid covers [t_min, t_max] exactly
    ts = [t_min + k * step for k in range(steps - 1)]
    ts.append(t_max)
    return ts


def check_curve_grid(
    t_min: float, t_max: float, steps: int, extended: bool = False
) -> tuple[float, float]:
    """The ends of a :func:`curve_grid` as floats, after every check of the
    grid, which raise as :func:`curve_grid` does."""
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


def weighted_igf_derivative(
    scheme: UtilityInformationScheme, t: float, r: int, *, extended: bool = False
) -> float:
    """r-th t-derivative of :func:`weighted_igf`, computed analytically.

    Each surviving term is ``(u_i * ln p_i) ** r * p_i ** (1 - u_i * (1 - t))``.
    At t = 1 the value equals (``==``) ``(-1) ** r`` times the r-th weighted
    self-information moment, the same sum with no power taken; in
    particular minus the first derivative at t = 1 is the weighted entropy.
    """
    r = check_int(r, "derivative order r", 1)
    t = check_t(t, extended)
    exps = _WeightedExponents(scheme.util.utils, t)
    return next(_term_sums(scheme.dist.probs, exps, ((scheme, r),)))


def _log_unit(base: LogBase) -> float:
    """ln of ``base``, the divisor that takes nats to its unit; a ``base``
    that is not a :class:`LogBase` raises InvalidParameter."""
    if not isinstance(base, LogBase):
        raise InvalidParameter(f"unknown log base {base!r}; expected a LogBase")
    return math.log(2.0) if base is LogBase.TWO else 1.0


def shannon_entropy(
    dist: ProbabilityDistribution, base: LogBase = LogBase.NATURAL
) -> float:
    """Entropy -sum_i p_i * log(p_i), in nats or bits: the weighted one at u = 1."""
    return weighted_entropy(constant_utility_scheme(dist, 1.0), base)


def weighted_entropy(
    scheme: UtilityInformationScheme, base: LogBase = LogBase.NATURAL
) -> float:
    """Utility-weighted entropy -sum_i u_i * p_i * log(p_i), the first moment."""
    unit = _log_unit(base)
    return weighted_self_information_moment(scheme, 1) / unit


def _streamed_entropy(scheme: UtilityInformationScheme) -> float:
    """:func:`weighted_entropy` in nats, bit-equal, of a scheme summed only
    once: its log weights stream through the sum, and no list of them is
    kept in ``_logs``."""
    return _signed(next(_term_sums(scheme.dist.probs, None, ((scheme, 1),), keep_logs=False)), 1)


def self_information_moment(dist: ProbabilityDistribution, r: int) -> float:
    """r-th moment of self-information, sum_i p_i * (-log p_i) ** r.

    The weighted moment at u = 1, non-negative for every r; r = 0 returns
    the total mass and r = 1 the Shannon entropy.
    """
    return weighted_self_information_moment(constant_utility_scheme(dist, 1.0), r)


def weighted_self_information_moment(
    scheme: UtilityInformationScheme, r: int
) -> float:
    """r-th weighted moment, sum_i p_i * (-u_i * log p_i) ** r.

    Non-negative for every r (the signed variant is ``(-1) ** r`` times
    this); r = 0 returns the total mass and r = 1 the weighted entropy.
    """
    r = check_int(r, "moment order r", 0)
    if not r:
        return scheme.dist.total
    return _signed(next(_term_sums(scheme.dist.probs, None, ((scheme, r),))), r)


def weighted_self_information_moments(
    scheme: UtilityInformationScheme, orders: Iterable[int]
) -> Iterator[float]:
    """:func:`weighted_self_information_moment` for each r of ``orders``,
    lazily, every order from one log pass over the scheme.

    Every order is checked before the first sum; each value is summed only
    when it is asked for.
    """
    orders = [check_int(r, "moment order r", 0) for r in orders]
    sums = _term_sums(scheme.dist.probs, None, [(scheme, r) for r in orders if r])
    return (_signed(next(sums), r) if r else scheme.dist.total for r in orders)


def _signed(s: float, r: int) -> float:
    """The kernel sum ``s`` of (w_i * ln p_i) ** r as a moment: negated for
    odd r.  Exact: a negative float to an integer power is the power of its
    magnitude, negated for odd r, and fsum rounds -x as it rounds x;
    ``0.0 - s`` keeps a sum of no terms at +0.0."""
    return 0.0 - s if r % 2 else s
