"""Exception taxonomy shared across the package."""

from __future__ import annotations

__all__ = [
    "LJLabError",
    "DimensionMismatch",
    "NotHermitian",
    "NotInSpan",
    "NotClosed",
    "NotAssociative",
    "EmptyInput",
    "CriteriaDisagree",
    "ValidationError",
]


class LJLabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LJLabError):
    """Operands are not square matrices of one common dimension."""


class NotHermitian(LJLabError):
    """A Hermitian matrix was required."""


class NotInSpan(LJLabError):
    """An observable lies outside the subspace it was required to inhabit."""


class NotClosed(LJLabError):
    """A subspace is not closed under the product an operation needs."""


class NotAssociative(LJLabError):
    """A commuting, Jordan-associative subalgebra was required."""


class EmptyInput(LJLabError):
    """An operation received an empty input list."""


class CriteriaDisagree(LJLabError):
    """Independent classicality criteria returned conflicting verdicts."""


class ValidationError(LJLabError):
    """Malformed input data: bad state matrix, bad JSON payload, bad config."""
