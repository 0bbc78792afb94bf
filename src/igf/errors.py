"""Exception taxonomy for the igf package.

Two families matter to callers: :class:`ValidationError` covers malformed
inputs (bad vectors, bad parameters, bad files) and :class:`DomainError`
covers evaluation points outside a function's mathematical domain.  The CLI
maps the first family to exit code 2 and the second to exit code 3.

The checkers at the end, one per kind of scalar parameter and all over one
number reader, raise :class:`InvalidParameter`; ``check_t`` raises
:class:`DomainError` for a t below the default domain.
"""

from __future__ import annotations

import math


class IGFError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(IGFError, ValueError):
    """An input failed a structural or range check at construction time."""


class EmptyInput(ValidationError):
    """A probability or utility vector was empty."""


class NegativeProbability(ValidationError):
    """A probability entry was negative."""


class ProbabilityAboveOne(ValidationError):
    """A probability entry exceeded 1."""


class SumNotOne(ValidationError):
    """A complete distribution's entries did not sum to 1 within tolerance."""


class SumExceedsOne(ValidationError):
    """A generalized distribution's entries summed to more than 1."""


class LengthMismatch(ValidationError):
    """Paired vectors (probabilities, utilities, labels) differ in length."""


class NonPositiveUtility(ValidationError):
    """A utility entry was zero, negative, or not a positive finite number."""


class TruncationRequired(ValidationError):
    """An infinite-support family was realized without a truncation length."""


class InvalidParameter(ValidationError):
    """A scalar parameter was outside its allowed range."""


class AllZeroProbabilities(ValidationError):
    """Every probability was zero, so no normalization is possible."""


class DomainError(IGFError, ValueError):
    """The evaluation point lies outside the function's valid domain."""


def _read_real(value: object, name: str, error: type = InvalidParameter) -> float | None:
    """``value`` as a float if it is an int or a float but not a bool, else
    None; an int too large for a float raises ``error`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} is an integer too large for a float") from None


def check_real(value: object, name: str) -> float:
    """``value`` as a float: any real number but NaN (both infinities pass)."""
    if (x := _read_real(value, name)) is None or math.isnan(x):
        raise InvalidParameter(f"{name} must be a real number, got {value!r}")
    return x


def check_t(t: object, extended: bool) -> float:
    """``t`` as a float: any real number but NaN, and at least 1 unless
    ``extended``; below 1 it raises DomainError, not InvalidParameter."""
    t = check_real(t, "t")
    if not extended and t < 1.0:
        raise DomainError(
            f"t = {t} is below the default domain t >= 1; pass extended=True "
            f"(--extended-t on the command line) to evaluate there"
        )
    return t


def check_int(value: object, name: str, lo: int) -> int:
    """``value`` itself, an integer (not a bool) at least ``lo``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < lo:
        raise InvalidParameter(f"{name} must be an integer >= {lo}, got {value!r}")
    return value


def check_open(value: object, name: str, lo: float, hi: float = math.inf) -> float:
    """``value`` as a float, a real number strictly between ``lo`` and ``hi``."""
    if (x := _read_real(value, name)) is None or not lo < x < hi:
        raise InvalidParameter(f"{name} must lie in ({lo}, {hi}), got {value!r}")
    return x
