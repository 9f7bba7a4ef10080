"""The one admission of numbers at the public boundary: ``real`` admits
scalars and ``reals`` arrays, refusing bool, str, None and non-finite reals
(a NaN compares false in every later check, so it would pass them all) and
reading numpy numbers and ``Fraction`` as the float of the same value;
``integer`` admits integers."""

import math
import numbers
import operator

import numpy as np

from .errors import ConfigError


def _refusal(kind: str, what: str, x, bounds) -> str:
    limits = " and".join(f" {op} {b}" for op, b in bounds if b is not None)
    return f"need {kind} {what}{limits}, got {x!r}"


def _float(x) -> float:
    """``x`` as a float if it is a real number other than a bool, else NaN."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:  # an int or Fraction past the float range
            pass
    return math.nan


def reals(x, what: str, *, gt=None, ge=None, le=None, error=ConfigError) -> np.ndarray:
    """``x`` as a float64 array of finite entries with x > gt, x >= ge and
    x <= le for each bound given, else ``error`` naming ``what`` and the
    first entry refused.  Integer and float arrays are read as they are
    (float64 ones uncopied), anything else entry by entry as ``real`` reads
    a scalar, so a bool array and the rows of a ragged nesting are refused."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "iuf":
        entries = values = x.astype(float, copy=False)
    else:
        try:
            entries = np.array(x, dtype=object)
        except ValueError:  # a nesting numpy cannot lay out as one array
            raise error(f"need a finite real {what}, got a ragged nesting") from None
        values = np.array([_float(v) for v in entries.flat]).reshape(entries.shape)
    ok = np.isfinite(values)
    for holds, bound in ((np.greater, gt), (np.greater_equal, ge), (np.less_equal, le)):
        if bound is not None:
            ok &= holds(values, bound)
    if ok.all():
        return values
    k = int(np.argmin(ok.ravel()))
    index = tuple(map(int, np.unravel_index(k, ok.shape)))
    at = f" at index {index[0] if len(index) == 1 else index}" if index else ""
    shown = entries.ravel()[k : k + 1].tolist()[0]
    bounds = ((">", gt), (">=", ge), ("<=", le))
    raise error(_refusal("a finite real", what, shown, bounds) + at)


def real(x, what: str, *, gt=None, ge=None, lt=None) -> float:
    """``x`` as a finite Python float with x > gt, x >= ge and x < lt for
    each bound given."""
    value = _float(x)
    if not (
        math.isfinite(value)
        and (gt is None or value > gt)
        and (ge is None or value >= ge)
        and (lt is None or value < lt)
    ):
        bounds = ((">", gt), (">=", ge), ("<", lt))
        raise ConfigError(_refusal("a finite real", what, x, bounds))
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
        raise ConfigError(_refusal("an integer", what, x, ((">=", ge), ("<=", le))))
    return value
