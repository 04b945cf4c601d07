"""Generalized quadratic variations and log-ratio regularity estimators.

The variation of a sampled process under a dilated filter estimates the
variance of the filtered stationary process; comparing the variations at
two dilations u != v in a log-ratio cancels both the unknown amplitude and
the sampling rate, leaving the regularity exponent.  For projections of a
2-d field the projected process is smoother by 1/2, so the directional
estimate subtracts that offset.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (
    InvalidArgument, NonFiniteVariation, ZeroVariation, _dilation, _integer, _kind, _level,
    _reals,
)
from .filters import DiscreteFilter, apply_filter, binomial_filter
from .projection import project_axis  # perfbench/spans.py wraps this name by getattr

__all__ = [
    "quad_variation",
    "estimate_H",
    "log_ratio_at_level",
    "check_level",
    "estimate_projection",
    "estimate_pair",
]

# Variations below this are treated as exact annihilation rather than
# small stochastic values.
_ZERO_VARIATION = 1e-300


def _summands(n_steps: int, a: DiscreteFilter, u: int) -> int:
    """Number of filtered samples a series of n_steps + 1 values has under
    the filter dilated by u."""
    return n_steps - (a.length - 1) * u + 1


def quad_variation(path, a: DiscreteFilter, u: int):
    """Mean of squared filtered samples over all admissible offsets.

    ``path`` holds the values X(k/N), k = 0..N, of a sampled process, or
    an array of such series along its last axis.  Averages
    (sum_k a_k X((p + k*u)/N))^2 for p = 0..N - l*u, normalizing by the
    number of terms; raises InvalidArgument when there are fewer than two
    terms.  Returns a float for one series and an array of the leading
    shape otherwise, each entry equal bit for bit to the float its series
    gives on its own.
    """
    x = np.atleast_1d(np.asarray(_reals(path, "path"), dtype=float))
    _kind(a, DiscreteFilter, "filter")
    u = _dilation(u)
    if _summands(x.shape[-1] - 1, a, u) < 2:
        raise InvalidArgument(
            f"{x.shape[-1]} values leave fewer than two summands for a "
            f"{a.length}-tap filter at dilation {u}"
        )
    z = apply_filter(a, x, u)
    # np.mean's reduction and division, along the last axis
    v = np.add.reduce(z * z, axis=-1) / z.shape[-1]
    return float(v) if x.ndim == 1 else v


def _check_variations(a: DiscreteFilter, u: int, v_u, v: int, v_v) -> None:
    """Raise for the first series, in order, whose variation at dilation
    u, or else at v, is not finite or vanished."""
    variations = np.column_stack((np.ravel(v_u), np.ravel(v_v))).ravel().tolist()
    for var, d in zip(variations, itertools.cycle((u, v))):
        if not math.isfinite(var):
            raise NonFiniteVariation(
                f"variation is {var} (dilation {d}): the path holds "
                "NaN or infinite values"
            )
        if var < _ZERO_VARIATION:
            raise ZeroVariation(
                f"variation vanished (filter order {a.order} "
                "annihilates this path)"
            )


def _log(x):
    """math.log of a float, or of each entry of an array.

    numpy's log can differ from math.log in the last bit, and an estimate
    must not depend on whether its series came alone or in a block.
    """
    if np.ndim(x) == 0:
        return math.log(x)
    return np.fromiter(map(math.log, x.flat), float, x.size).reshape(x.shape)


def log_ratio_at_level(
    values, nu: int, a: DiscreteFilter, u: int, v: int
):
    """(log(V_u / V_v) / (2 log(u / v)), V_v, V_u) on ``values[..., ::2^nu]``.

    V_d is the variation at dilation d of the step-2^nu subsample of a
    sampled process.  ``values`` is one series or an array of series
    along its last axis; the three results are floats for one series and
    arrays of the leading shape otherwise.
    """
    nu = _level(nu)
    u, v = _dilation(u), _dilation(v, "v")
    if u == v:
        raise InvalidArgument("need two distinct dilation factors")
    x = _reals(values, "values")[..., :: 1 << nu]
    v_u = quad_variation(x, a, u)
    v_v = quad_variation(x, a, v)
    _check_variations(a, u, v_u, v, v_v)
    return _log(v_u / v_v) / (2.0 * math.log(u / v)), v_v, v_u


def estimate_H(path: np.ndarray, a: DiscreteFilter, u: int, v: int):
    """Log-ratio estimate of the Hölder exponent of a 1-d sampled process
    from its values X(k/N), k = 0..N.

    Returns log(V_u / V_v) / (2 log(u / v)); consistent when the filter
    order exceeds the true exponent.  Invariant under path scaling since
    the ratio cancels amplitude.  ``path`` may also be an array of paths
    along its last axis, which gives an array of the leading shape, each
    entry equal bit for bit to the float its path gives alone.
    """
    return log_ratio_at_level(path, 0, a, u, v)[0]


def check_level(M: int, nu: int, a: DiscreteFilter, u: int) -> None:
    """Reject a subsampling level nu of an M-step series that the
    directional estimate cannot use.

    M must be an integer, the stride 2^nu must divide it and leave at
    least 8 steps, and the filter dilated by u must leave at least two
    summands on them.
    """
    M = _integer(M, f"grid size M = {M!r}")
    nu = _level(nu)
    steps = M >> nu
    if M % (1 << nu) != 0 or steps < 8:
        raise InvalidArgument(
            f"grid size {M} at subsampling 2^{nu} leaves fewer than 8 steps"
        )
    check_span(steps, a, u, f"grid size {M} at subsampling 2^{nu}")


def check_span(n_steps: int, a: DiscreteFilter, u: int, what: str) -> None:
    """Reject a series of n_steps steps on which the filter dilated by u
    leaves fewer than two summands; ``what`` names the series."""
    n_steps = _integer(n_steps, f"n_steps = {n_steps!r}")
    _kind(a, DiscreteFilter, "filter")
    u = _dilation(u)
    if _summands(n_steps, a, u) < 2:
        raise InvalidArgument(
            f"{what} leaves {n_steps} steps, "
            f"too few for a {a.length}-tap filter at dilation {u}"
        )


def estimate_projection(
    values: np.ndarray,
    nu: int = 0,
    a: DiscreteFilter | None = None,
    u: int = 2,
    v: int = 1,
):
    """(h, T_1, T_2): the directional index of one axis projection at
    subsampling level nu, with its two variations.

    ``values`` is a projection at k/M, k = 0..M (see ``project_axis``), or
    an array of projections along its last axis, which gives arrays of
    the leading shape.  It is strided by 2^nu (step 2^nu / M); T_1 and T_2
    are its variations at the dilations v and u, and
    ``h = log(T_2 / T_1) / (2 log(u / v)) - 1/2``, the 1/2 correcting for
    the hyperplane average.
    """
    values = _reals(values, "values")
    if a is None:
        a = binomial_filter(2)
    u, v = _dilation(u), _dilation(v, "v")
    check_level(values.shape[-1] - 1, nu, a, max(u, v))
    r, t1, t2 = log_ratio_at_level(values, nu, a, u, v)
    return r - 0.5, t1, t2


def estimate_pair(
    projections: np.ndarray,
    nus: tuple[int, ...] = (0,),
    a: DiscreteFilter | None = None,
) -> np.ndarray:
    """Both directional indices at each level in nus.

    ``projections`` has shape (..., 2, M+1): its last two axes hold the
    horizontal and the vertical ``project_axis`` of one field, as rows in
    the order of ``DIRECTIONS``; any other shape raises InvalidArgument.
    Returns an array of shape (..., len(nus), 2) whose entry [..., i, 0]
    is h_h and [..., i, 1] is h_v at level nus[i].  Each level is
    estimated on all projections at once with the dilations u = 2, v = 1,
    and a block gives, bit for bit, the estimates of its fields one at a
    time.
    """
    levels = [_level(nu) for nu in nus] if np.iterable(nus) else []
    if not levels:
        raise InvalidArgument(
            f"nus = {nus!r}: estimate_pair needs a sequence of at least one level nu"
        )
    projections = _reals(projections, "projections")
    if projections.shape[-2:-1] != (2,):
        raise InvalidArgument(
            f"projections of shape {projections.shape}: estimate_pair needs shape (..., 2, M+1)"
        )
    return np.stack([estimate_projection(projections, nu, a)[0] for nu in levels], axis=-2)
