"""Shared exception types."""


class CapExceeded(RuntimeError):
    """An enumeration would produce more items than the configured cap."""


class PrecisionExhausted(RuntimeError):
    """A certified bound could not be achieved within the precision budget."""
