"""The one admission of scalar numbers at the public boundary: ``real`` and
``integer`` refuse bool, str, None and non-finite reals (a NaN compares
false in every later check, so it would pass them all), and return numpy
scalars and ``Fraction`` as the Python number of the same value."""

import math
import numbers
import operator

from .errors import ConfigError


def _refusal(kind: str, what: str, x, bounds) -> ConfigError:
    limits = " and".join(f" {op} {b}" for op, b in bounds if b is not None)
    return ConfigError(f"need {kind} {what}{limits}, got {x!r}")


def real(x, what: str, *, gt=None, ge=None, lt=None) -> float:
    """``x`` as a finite Python float with x > gt, x >= ge and x < lt for
    each bound given."""
    value = math.nan
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:  # an int or Fraction past the float range
            pass
    if not (
        math.isfinite(value)
        and (gt is None or value > gt)
        and (ge is None or value >= ge)
        and (lt is None or value < lt)
    ):
        raise _refusal("a finite real", what, x, ((">", gt), (">=", ge), ("<", lt)))
    return value


def integer(x, what: str, *, ge=None, le=None) -> int:
    """``x`` as a Python int with x >= ge and x <= le for each bound given,
    read by ``operator.index`` from anything but a bool: a float such as 8.0
    is refused."""
    try:
        value = None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        value = None
    refused = value is None or (ge is not None and value < ge)
    if refused or (le is not None and value > le):
        raise _refusal("an integer", what, x, ((">=", ge), ("<=", le)))
    return value
