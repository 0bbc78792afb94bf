"""Finite discrete probability distributions paired with positive utilities.

A scheme couples a probability vector with a utility vector of the same
length.  Distributions come in two kinds: ``complete`` vectors must sum to 1
within ``COMPLETENESS_TOL``, ``generalized`` vectors may sum to anything in
(0, 1].  Zero probabilities are allowed; utilities must be strictly positive.
Every type validates itself on construction and is immutable afterwards.

Three parametric families (uniform, geometric, power law) can be realized
into explicit vectors.  The infinite-support families require an explicit
truncation length so that nothing silently approximates.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import (
    AllZeroProbabilities,
    EmptyInput,
    InvalidParameter,
    LengthMismatch,
    NegativeProbability,
    NonPositiveUtility,
    ProbabilityAboveOne,
    SumExceedsOne,
    SumNotOne,
    TruncationRequired,
    ValidationError,
    check_int,
    check_open,
)

#: Absolute tolerance on |sum(p) - 1| for complete distributions, and the
#: slack allowed above 1 for generalized ones.
COMPLETENESS_TOL = 1e-9


#: Sets a slot past the ``__setattr__`` of :class:`_Frozen`; a global name
#: is found faster than ``object.__setattr__``.
_setattr = object.__setattr__


class _Frozen:
    """Base of the immutable value types.

    Equality, hash and repr run over the slots named in ``_fields``, in
    order; ``__init__`` sets each slot once through ``_set`` and any later
    assignment or deletion raises ``FrozenInstanceError``.
    ``__reduce__`` rebuilds through ``__init__``, so copies and pickles are
    validated again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        """Set the slots, in the order of ``__slots__``, to ``values``."""
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        # dataclasses (and the inspect module it loads) only on this error path
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (type(self), self._values())


class Kind(Enum):
    """Whether a probability vector must sum to 1 or may sum to less."""

    COMPLETE = "complete"
    GENERALIZED = "generalized"


def _as_float_tuple(values: Iterable[object], what: str) -> tuple[float, ...]:
    # a tuple of plain floats comes back as the same object after one C-level
    # pass over the entry types
    out = tuple(values)
    if set(map(type, out)) <= {float}:
        return out
    for x in out:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValidationError(f"{what} entries must be numbers, got {x!r}")
    try:
        return tuple(map(float, out))
    except OverflowError:
        # an int too large for a float; the loop names the first one
        for i, x in enumerate(out):
            try:
                float(x)
            except OverflowError:
                raise ValidationError(
                    f"{what} entry {i} is an integer too large for a float"
                ) from None
        raise


class ProbabilityDistribution(_Frozen):
    """An immutable probability vector with its completeness kind.

    Parameters
    ----------
    probs:
        Probabilities, each in [0, 1].  Zeros are permitted.
    kind:
        ``Kind.COMPLETE`` requires the sum to be 1 within
        ``COMPLETENESS_TOL``; ``Kind.GENERALIZED`` requires it to be
        positive and at most 1 (plus the same slack).
    """

    __slots__ = ("probs", "kind", "total")
    _fields = ("probs", "kind")

    probs: tuple[float, ...]
    kind: Kind
    #: Exactly rounded sum of the entries, as validated; not a field, so it
    #: takes no part in ``==``, ``hash`` or ``repr``.
    total: float

    def __init__(self, probs: Iterable[float], kind: Kind) -> None:
        probs = _as_float_tuple(probs, "probability")
        if not isinstance(kind, Kind):
            raise ValidationError(f"kind must be a Kind, got {kind!r}")
        if len(probs) == 0:
            raise EmptyInput("probability vector must not be empty")
        try:
            total = math.fsum(probs)
        except (ValueError, OverflowError):  # inf + -inf; a finite sum overflowing
            total = math.nan
        if not math.isfinite(total):
            # a non-finite entry gets here, and so do finite entries so large
            # that their sum overflows; the range checks below report those
            for i, p in enumerate(probs):
                if not math.isfinite(p):
                    raise ValidationError(
                        f"probability entry {i} is {p!r}, not a finite number"
                    )
        # min/max instead of a per-element loop: vectors can hold 1e6 entries.
        if not (min(probs) >= 0.0):
            raise NegativeProbability(
                f"probabilities must be >= 0, smallest entry is {min(probs)!r}"
            )
        if not (max(probs) <= 1.0):
            raise ProbabilityAboveOne(
                f"probabilities must be <= 1, largest entry is {max(probs)!r}"
            )
        if kind is Kind.COMPLETE:
            if not (abs(total - 1.0) <= COMPLETENESS_TOL):
                raise SumNotOne(
                    f"complete distribution must sum to 1 within "
                    f"{COMPLETENESS_TOL}, got sum {total!r}"
                )
        else:
            if not (total <= 1.0 + COMPLETENESS_TOL):
                raise SumExceedsOne(
                    f"generalized distribution must sum to at most 1, "
                    f"got sum {total!r}"
                )
            if not (total > 0.0):
                raise AllZeroProbabilities(
                    "generalized distribution must have positive total mass"
                )
        self._set(probs, kind, total)

    def __len__(self) -> int:
        return len(self.probs)


class UtilityDistribution(_Frozen):
    """An immutable vector of strictly positive, finite utilities."""

    __slots__ = _fields = ("utils",)

    utils: tuple[float, ...]

    def __init__(self, utils: Iterable[float]) -> None:
        utils = _as_float_tuple(utils, "utility")
        if len(utils) == 0:
            raise EmptyInput("utility vector must not be empty")
        # a NaN or an infinity makes the float sum non-finite, so only a bad
        # entry, or valid ones whose sum overflows, reach the loop
        if not (min(utils) > 0.0 and sum(utils) < math.inf):
            for u in utils:
                if not (0.0 < u < math.inf):
                    raise NonPositiveUtility(
                        f"utilities must be positive finite numbers, got {u!r}"
                    )
        self._set(utils)

    def __len__(self) -> int:
        return len(self.utils)


class UtilityInformationScheme(_Frozen):
    """A probability distribution paired with per-outcome utilities.

    Optional ``labels`` name the outcomes; they take no part in any
    computation and are only carried through serialization.
    """

    __slots__ = _fields = ("dist", "util", "labels")

    dist: ProbabilityDistribution
    util: UtilityDistribution
    labels: tuple[str, ...] | None

    def __init__(
        self,
        dist: ProbabilityDistribution,
        util: UtilityDistribution,
        labels: Iterable[str] | None = None,
    ) -> None:
        if not isinstance(dist, ProbabilityDistribution):
            raise ValidationError("dist must be a ProbabilityDistribution")
        if not isinstance(util, UtilityDistribution):
            raise ValidationError("util must be a UtilityDistribution")
        if len(dist) != len(util):
            raise LengthMismatch(f"{len(dist)} probabilities but {len(util)} utilities")
        if labels is not None:
            labels = tuple(labels)
            for lab in labels:
                if not isinstance(lab, str):
                    raise ValidationError(f"labels must be strings, got {lab!r}")
            if len(labels) != len(dist):
                raise LengthMismatch(
                    f"{len(dist)} probabilities but {len(labels)} labels"
                )
        self._set(dist, util, labels)

    def __len__(self) -> int:
        return len(self.dist)


def make_complete(probs: Sequence[float]) -> ProbabilityDistribution:
    """Build a complete distribution (entries must sum to 1)."""
    return ProbabilityDistribution(probs, Kind.COMPLETE)


def make_generalized(probs: Sequence[float]) -> ProbabilityDistribution:
    """Build a generalized distribution (entries may sum to less than 1)."""
    return ProbabilityDistribution(probs, Kind.GENERALIZED)


def make_scheme(
    probs: Sequence[float],
    utils: Sequence[float],
    *,
    generalized: bool = False,
    labels: Sequence[str] | None = None,
) -> UtilityInformationScheme:
    """Build a scheme from parallel probability and utility vectors."""
    if len(probs) != len(utils):
        raise LengthMismatch(f"{len(probs)} probabilities but {len(utils)} utilities")
    dist = make_generalized(probs) if generalized else make_complete(probs)
    return UtilityInformationScheme(
        dist, UtilityDistribution(utils),
        labels=None if labels is None else tuple(labels),
    )


def constant_utility_scheme(
    dist: ProbabilityDistribution, u: float
) -> UtilityInformationScheme:
    """Pair a distribution with the constant utility vector (u, u, ...)."""
    return UtilityInformationScheme(dist, UtilityDistribution((float(u),) * len(dist)))


class FamilyKind(Enum):
    UNIFORM = "uniform"
    GEOMETRIC = "geometric"
    BETA_POWER = "beta_power"


class ParametricFamily(_Frozen):
    """One of the three built-in distribution families.

    ``uniform(n)`` puts mass 1/n on n outcomes.  ``geometric(p)`` puts mass
    (1-p) * p**i on outcome i = 0, 1, 2, ...  ``beta_power(beta)`` puts mass
    proportional to i**-beta on outcome i = 1, 2, 3, ... and needs beta > 1
    to normalize.
    """

    __slots__ = _fields = ("kind", "n", "p", "beta")

    kind: FamilyKind
    n: int | None
    p: float | None
    beta: float | None

    def __init__(
        self,
        kind: FamilyKind,
        n: int | None = None,
        p: float | None = None,
        beta: float | None = None,
    ) -> None:
        if kind is FamilyKind.UNIFORM:
            check_int(n, "uniform family n", 1)
        elif kind is FamilyKind.GEOMETRIC:
            p = check_open(p, "geometric family p", 0, 1)
        elif kind is FamilyKind.BETA_POWER:
            beta = check_open(beta, "power-law family beta", 1)
        else:
            raise InvalidParameter(f"unknown family kind {kind!r}")
        self._set(kind, n, p, beta)

    @classmethod
    def uniform(cls, n: int) -> "ParametricFamily":
        return cls(FamilyKind.UNIFORM, n=n)

    @classmethod
    def geometric(cls, p: float) -> "ParametricFamily":
        return cls(FamilyKind.GEOMETRIC, p=p)

    @classmethod
    def beta_power(cls, beta: float) -> "ParametricFamily":
        return cls(FamilyKind.BETA_POWER, beta=beta)


def _check_truncation(truncation: int | None) -> int:
    if truncation is None:
        raise TruncationRequired(
            "this family has infinite support; pass a truncation length"
        )
    return check_int(truncation, "truncation", 1)


#: The most terms :func:`realize_family` builds.
MAX_REALIZED_TERMS = 1_000_000


def realize_family(
    family: ParametricFamily, truncation: int | None = None
) -> ProbabilityDistribution:
    """Materialize a family as an explicit probability vector.

    The uniform family is finite and comes back complete; ``truncation`` is
    ignored for it.  The geometric and power-law families are truncated to
    the first ``truncation`` outcomes and come back generalized, with total
    mass 1 - p**T and sum(i**-beta, i <= T)/zeta(beta) respectively.  A
    family of more than MAX_REALIZED_TERMS terms raises ValidationError
    before any is built.
    """
    n = family.n if family.kind is FamilyKind.UNIFORM else _check_truncation(truncation)
    assert n is not None
    if n > MAX_REALIZED_TERMS:
        raise ValidationError(
            f"the realized family needs at least {n} terms, "
            f"above the cap of {MAX_REALIZED_TERMS}"
        )
    if family.kind is FamilyKind.UNIFORM:
        return ProbabilityDistribution((1.0 / n,) * n, Kind.COMPLETE)

    if family.kind is FamilyKind.GEOMETRIC:
        p = family.p
        assert p is not None
        q = 1.0 - p
        return ProbabilityDistribution(
            tuple(q * p**i for i in range(n)), Kind.GENERALIZED
        )

    # power law: normalize by the full infinite-support constant, so the
    # truncated vector is generalized with mass a bit under 1
    from .closed_forms import zeta

    beta = family.beta
    assert beta is not None
    z = zeta(beta)
    return ProbabilityDistribution(
        tuple(i ** (-beta) / z for i in range(1, n + 1)), Kind.GENERALIZED
    )


_SCHEME_KEYS = {"probabilities", "utilities", "kind", "labels"}


def scheme_from_dict(doc: Mapping[str, object]) -> UtilityInformationScheme:
    """Build a scheme from a parsed JSON document.

    Expected shape: ``{"probabilities": [...], "utilities": [...]?,
    "kind": "complete"|"generalized"?, "labels": [...]?}``.  Missing
    utilities default to 1 everywhere; missing kind defaults to complete.
    Unknown keys are rejected so typos do not pass silently.
    """
    if not isinstance(doc, Mapping):
        raise ValidationError(f"scheme document must be an object, got {type(doc).__name__}")
    unknown = set(doc) - _SCHEME_KEYS
    if unknown:
        raise ValidationError(f"unknown scheme keys: {sorted(unknown)}")
    if "probabilities" not in doc:
        raise ValidationError('scheme document must contain "probabilities"')
    probs = doc["probabilities"]
    if not isinstance(probs, (list, tuple)):
        raise ValidationError('"probabilities" must be an array')

    utils = doc.get("utilities")
    if utils is None:
        utils = [1.0] * len(probs)
    elif not isinstance(utils, (list, tuple)):
        raise ValidationError('"utilities" must be an array')

    kind = doc.get("kind", "complete")
    if kind not in ("complete", "generalized"):
        raise ValidationError(f'"kind" must be "complete" or "generalized", got {kind!r}')

    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, (list, tuple)):
        raise ValidationError('"labels" must be an array of strings')

    return make_scheme(
        probs, utils,
        generalized=(kind == "generalized"),
        labels=labels,
    )


def scheme_to_dict(scheme: UtilityInformationScheme) -> dict[str, object]:
    """Inverse of :func:`scheme_from_dict`; always writes explicit fields."""
    doc: dict[str, object] = {
        "probabilities": list(scheme.dist.probs),
        "utilities": list(scheme.util.utils),
        "kind": scheme.dist.kind.value,
    }
    if scheme.labels is not None:
        doc["labels"] = list(scheme.labels)
    return doc
