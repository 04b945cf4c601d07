"""Generalized quadratic variations and log-ratio regularity estimators.

The variation of a sampled process under a dilated filter estimates the
variance of the filtered stationary process; comparing the variations at
two dilations u != v in a log-ratio cancels both the unknown amplitude and
the sampling rate, leaving the regularity exponent.  For projections of a
2-d field the projected process is smoother by 1/2, so the directional
estimate subtracts that offset.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    EqualDilations,
    GridTooCoarse,
    NonFiniteVariation,
    PathTooShort,
    ZeroVariation,
)
from .filters import DiscreteFilter, apply_filter, binomial_filter
from .projection import project_axis
from .synthesis import GridField2D, SampledPath

__all__ = [
    "PairEstimate",
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


def quad_variation(path, a: DiscreteFilter, u: int) -> float:
    """Mean of squared filtered samples over all admissible offsets.

    ``path`` holds the values X(k/N), k = 0..N, of a sampled process.
    Averages (sum_k a_k X((p + k*u)/N))^2 for p = 0..N - l*u, normalizing
    by the number of terms; raises PathTooShort when there are fewer than
    two terms.
    """
    x = np.asarray(path, dtype=float)
    if _summands(x.size - 1, a, u) < 2:
        raise PathTooShort(
            f"{x.size} values leave fewer than two summands for a "
            f"{a.length}-tap filter at dilation {u}"
        )
    z = apply_filter(a, x, u)
    return float(np.mean(z * z))


def _checked_variation(x: np.ndarray, a: DiscreteFilter, u: int) -> float:
    v = quad_variation(x, a, u)
    if not math.isfinite(v):
        raise NonFiniteVariation(
            f"variation is {v} (dilation {u}): the path holds "
            "NaN or infinite values"
        )
    if v < _ZERO_VARIATION:
        raise ZeroVariation(
            f"variation vanished (filter order {a.order} "
            "annihilates this path)"
        )
    return v


def log_ratio_at_level(
    values, nu: int, a: DiscreteFilter, u: int, v: int
) -> tuple[float, float, float]:
    """(log(V_u / V_v) / (2 log(u / v)), V_v, V_u) on ``values[::2^nu]``.

    V_d is the variation at dilation d of the step-2^nu subsample of a
    sampled process.
    """
    if u == v:
        raise EqualDilations("need two distinct dilation factors")
    x = np.asarray(values)[:: 1 << nu]
    v_u = _checked_variation(x, a, u)
    v_v = _checked_variation(x, a, v)
    return math.log(v_u / v_v) / (2.0 * math.log(u / v)), v_v, v_u


def estimate_H(path: SampledPath, a: DiscreteFilter, u: int, v: int) -> float:
    """Log-ratio estimate of the Hölder exponent of a 1-d sampled process.

    Returns log(V_u / V_v) / (2 log(u / v)); consistent when the filter
    order exceeds the true exponent.  Invariant under path scaling since
    the ratio cancels amplitude.
    """
    return log_ratio_at_level(path.values, 0, a, u, v)[0]


def check_level(M: int, nu: int, a: DiscreteFilter, u: int) -> None:
    """Reject a subsampling level nu of an M-step series that the
    directional estimate cannot use.

    The stride 2^nu must divide M and leave at least 8 steps, and the
    filter dilated by u must leave at least two summands on them.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    steps = M >> nu
    if M % (1 << nu) != 0 or steps < 8:
        raise GridTooCoarse(
            f"grid size {M} at subsampling 2^{nu} leaves fewer than 8 steps"
        )
    if _summands(steps, a, u) < 2:
        raise GridTooCoarse(
            f"grid size {M} at subsampling 2^{nu} leaves {steps} steps, "
            f"too few for a {a.length}-tap filter at dilation {u}"
        )


def estimate_projection(
    values: np.ndarray,
    nu: int = 0,
    a: DiscreteFilter | None = None,
    u: int = 2,
    v: int = 1,
) -> tuple[float, float, float]:
    """(h, T_1, T_2): the directional index of one axis projection at
    subsampling level nu, with its two variations.

    ``values`` is a projection at k/M, k = 0..M (see ``project_axis``).
    It is strided by 2^nu (step 2^nu / M); T_1 and T_2 are its variations
    at the dilations v and u, and
    ``h = log(T_2 / T_1) / (2 log(u / v)) - 1/2``, the 1/2 correcting for
    the hyperplane average.
    """
    if a is None:
        a = binomial_filter(2)
    check_level(values.size - 1, nu, a, max(u, v))
    r, t1, t2 = log_ratio_at_level(values, nu, a, u, v)
    return r - 0.5, t1, t2


class PairEstimate(NamedTuple):
    """Estimates for both axes and their difference."""

    h_h: float
    h_v: float
    difference: float


def estimate_pair(
    field: GridField2D,
    nus: tuple[int, ...] = (0,),
    a: DiscreteFilter | None = None,
) -> tuple[PairEstimate, ...]:
    """Both directional indices and their difference at each level in nus.

    Projects the field once per axis and estimates each level on those
    projections with the dilations u = 2, v = 1.
    """
    if a is None:
        a = binomial_filter(2)
    horizontal = project_axis(field, "horizontal")
    vertical = project_axis(field, "vertical")
    out = []
    for nu in nus:
        h_h = estimate_projection(horizontal, nu, a)[0]
        h_v = estimate_projection(vertical, nu, a)[0]
        out.append(PairEstimate(h_h, h_v, h_h - h_v))
    return tuple(out)
