"""Exception hierarchy shared by all anisofield modules, and the rules by
which every public entry checks its arguments.

A bad argument, file or config raises InvalidArgument, whose message
names the argument at fault; every rule below raises it.  The other
errors report what the data does to a computation.
"""

import numbers
import operator

import numpy as np

__all__ = [
    "AnisofieldError", "InvalidArgument", "EmbeddingNotPSD", "ZeroVariation",
    "NonFiniteVariation", "OrderTooLow", "NegativeVariance", "TooManyFailures",
]


class AnisofieldError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(AnisofieldError, ValueError):
    """An argument, a file or a config that the call does not accept."""


# --- argument rules ---------------------------------------------------------

def _integer(value, label: str) -> int:
    """``value`` as an int; an InvalidArgument that starts with ``label``
    if it is not an integer (a float, even an integral one, is not, and
    neither is a bool).

    The package's one rule for counts, sizes, levels and dilations.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidArgument(f"{label} is not an integer")


def _dilation(value, name: str = "u") -> int:
    """The dilation factor ``name`` (u or v) as an int >= 1.

    The package's one rule for dilations, which every public entry that
    takes one applies: an InvalidArgument names the argument and its
    value, as in ``dilation u = 2.5 is not an integer`` or
    ``dilation v = 0 must be >= 1``.
    """
    d = _integer(value, f"dilation {name} = {value!r}")
    if d < 1:
        raise InvalidArgument(f"dilation {name} = {d} must be >= 1")
    return d


def _level(nu) -> int:
    """The subsampling level nu as an int >= 0: the package's one rule for
    levels, which every public entry that takes one applies."""
    nu = _integer(nu, f"level nu = {nu!r}")
    if nu < 0:
        raise InvalidArgument("nu must be >= 0")
    return nu


def _seed(value) -> int:
    """The integer seed ``value``, which must be >= 0: the package's one
    rule for an integer seed, whether drawn from, derived from, written
    out or stored in a config."""
    seed = _integer(value, f"seed = {value!r}")
    if seed < 0:
        raise InvalidArgument(f"seed {seed} is negative; a seed is an integer >= 0")
    return seed


def _real(value, label: str):
    """``value``, unless it is not a real number (a bool is not): then an
    InvalidArgument ``<label> <repr of value> is not a real number``.

    The package's one rule for real parameters: Hurst indices, index
    values, window parameters and the parameters a file stores.  The repr
    is made only for the message, and a float (numpy's float64 is one)
    passes the first, cheap isinstance, so the check costs well under a
    microsecond.
    """
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise InvalidArgument(f"{label} {value!r} is not a real number")
    return value


def _reals(value, label: str) -> np.ndarray:
    """``value`` read by ``np.asarray``, unless that fails (a ragged list)
    or gives an array that is not of real numbers (str, complex, object or
    bool): then an InvalidArgument ``<label> must be an array of real
    numbers``.

    The package's one rule for array arguments.  The value is not in the
    message, which an array would swamp.
    """
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):
        array = None
    if array is None or array.dtype.kind not in "iuf":
        raise InvalidArgument(f"{label} must be an array of real numbers")
    return array


def _kind(value, cls: type, label: str):
    """``value``, unless it is not an instance of ``cls``: then an
    InvalidArgument ``<label> <repr of value> is not a <cls>``.

    The package's one rule for its object arguments: a DiscreteFilter, an
    AnisotropicIndex and a Window1DMinus.  The value's repr is made only
    for the message, so the check costs one isinstance on the hot paths.
    """
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise InvalidArgument(f"{label} {value!r} is not {article} {cls.__name__}")
    return value


# --- random generation ----------------------------------------------------

class EmbeddingNotPSD(AnisofieldError):
    """The circulant embedding of a covariance has negative eigenvalues."""


# --- estimators -----------------------------------------------------------

class ZeroVariation(AnisofieldError):
    """A quadratic variation vanished, so its log-ratio is undefined."""


class NonFiniteVariation(AnisofieldError):
    """A quadratic variation is NaN or infinite: the input is not finite."""


# --- asymptotic constants ---------------------------------------------------

class OrderTooLow(AnisofieldError):
    """Filter order is too small for the requested constant to be finite."""


class NegativeVariance(AnisofieldError):
    """Composed limit variance came out negative beyond roundoff."""


# --- evaluation harness -----------------------------------------------------

class TooManyFailures(AnisofieldError):
    """More than the tolerated share of Monte Carlo replicates errored."""
