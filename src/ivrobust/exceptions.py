"""Shared exception types."""
from __future__ import annotations


class EstimationError(ValueError):
    """An estimator precondition was violated."""


def _raised(result):
    """A fit's result as it is, or, when the fit failed, its EstimationError raised."""
    if isinstance(result, EstimationError):
        raise result
    return result


class DegenerateInstrumentError(EstimationError):
    """An exposure association needed for a ratio or fit is exactly zero.

    Also raised when a variant's values are so large or small that an
    estimate, ratio, weight or variance overflows or underflows.
    """


class SingularDesignError(EstimationError):
    """The (weighted) design matrix has no unique solution."""


class InsufficientInstrumentsError(EstimationError):
    """Fewer variants than the method's minimum."""


class CsvParseError(ValueError):
    """Malformed summary-data CSV; message carries the offending row."""
