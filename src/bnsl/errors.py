"""Shared exception types, mapped onto CLI exit codes, and the integer
and real checks of arguments from outside the program."""

import numbers


class DataError(ValueError):
    """Invalid input data or configuration (CLI exit code 2)."""


class ResourceLimitError(RuntimeError):
    """Instance exceeds a hard resource guard (CLI exit code 3)."""


def integer(value, what: str) -> int:
    """value as an int: a DataError unless it is an integer, bool excluded."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{what} must be an integer, got {value!r}")
    return int(value)


def real(value, what: str) -> float:
    """value as a float: a DataError unless it is a real number, bool
    excluded."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{what} must be a real number, got {value!r}")
    return float(value)
