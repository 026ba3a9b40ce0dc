"""Exceptions shared across the package."""


class CapExceeded(RuntimeError):
    """A computation would exceed the configured degree/enumeration cap."""


class NotInvertible(ValueError):
    """A series with vanishing constant term has no convolution inverse."""


class BasisMismatch(TypeError):
    """Operands live in incompatible spaces (e.g. bullet product with a series)."""


class ExpressionError(ValueError):
    """Malformed input: expression text handed to the evaluator, an
    out-of-range command-line value, or a non-integer WQSYM_MAX_DEGREE."""
