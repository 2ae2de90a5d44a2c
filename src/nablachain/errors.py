"""Exception types shared across the package."""


class NablachainError(Exception):
    """Base class for all domain errors raised by this package."""


class MeaninglessChainError(NablachainError):
    """A chain whose adjacent operators do not compose was applied to a field."""


class SortMismatchError(NablachainError):
    """A field of the wrong sort (scalar vs vector) was supplied."""

    def __init__(self, expected, actual, context=""):
        self.expected = expected
        self.actual = actual
        msg = f"expected {expected.value} input, got {actual.value}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class TermLimitError(NablachainError):
    """A polynomial operation would exceed the configured term budget."""


class FieldFormatError(NablachainError):
    """A field document does not follow the JSON exchange format."""


class NumericalFailureError(NablachainError):
    """A sampled field produced a non-finite value."""


class DepthUnsupportedError(NablachainError):
    """A finite-difference cross-check was requested for a chain deeper than 2."""
