"""Exception hierarchy shared across the package, and its one rule for numbers.

The CLI maps these onto stable exit codes: input errors exit 2, constraint
violations exit 3 and numerical failures exit 4.

Every numeric parameter is checked by :func:`check_real` (a finite real number,
not a ``bool``, above or at least a lower bound) or :func:`check_int` (a real
number, not a ``bool``, with an integral value of at least a minimum: ``2.0``
and ``numpy.int64(2)`` count, ``2.5`` does not).  Each returns the converted
value or raises :class:`InputError` naming the parameter.  Checks relating two
parameters, such as ``u <= v``, are plain comparisons after these.
"""

import math
import numbers

__all__ = ["RkhsBallError", "InputError", "ConstraintError", "NumericalError",
           "check_real", "check_int"]


class RkhsBallError(Exception):
    """Base class for all package errors."""


class InputError(RkhsBallError):
    """Malformed or out-of-domain input (bad shapes, non-positive widths, ...)."""


class ConstraintError(RkhsBallError):
    """A configuration violates a hard constraint (e.g. tau below the
    theoretical minimum while theory mode is on)."""


class NumericalError(RkhsBallError):
    """A numerical routine failed (non-PSD Gram matrix, root solve divergence)."""


def check_real(value, name: str, low: float = 0.0, *, strict: bool = True) -> float:
    """``value`` as a float when it is a finite real number, not a ``bool``, above
    ``low`` (at least ``low`` when ``strict`` is false); else an input error naming
    the parameter ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise InputError(f"{name} must be finite, got {value!r}")
    if not (number > low if strict else number >= low):
        bound = "greater than" if strict else "at least"
        raise InputError(f"{name} must be {bound} {low:g}, got {value!r}")
    return number


def check_int(value, name: str, low: int = 1) -> int:
    """``value`` as an int when it is a real number, not a ``bool``, with an integral
    value of at least ``low``; else an input error naming the parameter ``name``."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer())):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InputError(f"{name} must be at least {low}, got {value!r}")
    return int(value)
