"""Exception taxonomy for the igf package.

Two families matter to callers: :class:`ValidationError` covers malformed
inputs (bad vectors, bad parameters, bad files) and :class:`DomainError`
covers evaluation points outside a function's mathematical domain.  The CLI
maps the first family to exit code 2 and the second to exit code 3.
"""

from __future__ import annotations


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
