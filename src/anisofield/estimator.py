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
from dataclasses import dataclass
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
    "VariationSpec",
    "EstimateResult",
    "PairEstimate",
    "quad_variation",
    "estimate_H",
    "log_ratio_at_level",
    "estimate_direction",
    "estimate_pair",
]

# Variations below this are treated as exact annihilation rather than
# small stochastic values.
_ZERO_VARIATION = 1e-300


@dataclass(frozen=True)
class VariationSpec:
    """A variation statistic: filter, dilation factor, and sample count N."""

    filter: DiscreteFilter
    dilation: int
    n_steps: int

    def __post_init__(self):
        if self.dilation < 1:
            raise ValueError("dilation must be >= 1")
        span = (self.filter.length - 1) * self.dilation
        if self.n_steps - span + 1 < 2:
            raise ValueError(
                f"N={self.n_steps} leaves fewer than two summands for a "
                f"filter spanning {span} steps"
            )


def quad_variation(path: SampledPath, spec: VariationSpec) -> float:
    """Mean of squared filtered samples over all admissible offsets.

    Averages (sum_k a_k X((p + k*u)/N))^2 for p = 0..N - l*u, normalizing
    by the number of terms.
    """
    x = np.asarray(path.values, dtype=float)
    N = spec.n_steps
    if x.size < N + 1:
        raise PathTooShort(f"path has {x.size} values, need {N + 1}")
    z = apply_filter(spec.filter, x[: N + 1], spec.dilation)
    return float(np.mean(z * z))


def _checked_variation(path: SampledPath, spec: VariationSpec) -> float:
    v = quad_variation(path, spec)
    if not math.isfinite(v):
        raise NonFiniteVariation(
            f"variation is {v} (dilation {spec.dilation}): the path holds "
            "NaN or infinite values"
        )
    if v < _ZERO_VARIATION:
        raise ZeroVariation(
            f"variation vanished (filter order {spec.filter.order} "
            "annihilates this path)"
        )
    return v


def _log_ratio(
    path: SampledPath, a: DiscreteFilter, u: int, v: int
) -> tuple[float, float, float]:
    """(log(V_u / V_v) / (2 log(u / v)), V_u, V_v) over the whole path."""
    if u == v:
        raise EqualDilations("need two distinct dilation factors")
    N = path.n_steps
    v_u = _checked_variation(path, VariationSpec(a, u, N))
    v_v = _checked_variation(path, VariationSpec(a, v, N))
    return math.log(v_u / v_v) / (2.0 * math.log(u / v)), v_u, v_v


def estimate_H(path: SampledPath, a: DiscreteFilter, u: int, v: int) -> float:
    """Log-ratio estimate of the Hölder exponent of a 1-d sampled process.

    Returns log(V_u / V_v) / (2 log(u / v)); consistent when the filter
    order exceeds the true exponent.  Invariant under path scaling since
    the ratio cancels amplitude.
    """
    return _log_ratio(path, a, u, v)[0]


@dataclass(frozen=True)
class EstimateResult:
    """A directional regularity estimate with its variations (T_1, T_2)."""

    value: float
    variations: tuple[float, float]
    direction: str | None = None
    nu: int | None = None

    @property
    def out_of_range(self) -> bool:
        """True when the raw estimate falls outside (0, 1).

        Estimates are reported unclamped; synthesis bias can push them
        past the admissible range.
        """
        return not 0.0 < self.value < 1.0


def log_ratio_at_level(
    values: np.ndarray, nu: int, a: DiscreteFilter, u: int, v: int
) -> tuple[float, float, float]:
    """(estimate, V_u, V_v) of the log-ratio on ``values[::2^nu]``.

    The step-2^nu subsample of a sampled process, estimated as by
    :func:`estimate_H`, with both variations returned alongside.
    """
    return _log_ratio(SampledPath(values=values[:: 1 << nu]), a, u, v)


def _check_level(M: int, nu: int) -> None:
    if nu < 0:
        raise ValueError("nu must be >= 0")
    stride = 1 << nu
    if M % stride != 0 or M // stride < 8:
        raise GridTooCoarse(
            f"grid size {M} at subsampling 2^{nu} leaves fewer than 8 steps"
        )


def _projected_index(
    values: np.ndarray, nu: int, a: DiscreteFilter
) -> tuple[float, float, float]:
    """(index estimate, T_1, T_2) of one axis projection at level nu."""
    h, t2, t1 = log_ratio_at_level(values, nu, a, 2, 1)
    return h - 0.5, t1, t2


def estimate_direction(
    field: GridField2D,
    direction: str,
    nu: int = 0,
    a: DiscreteFilter | None = None,
) -> EstimateResult:
    """Directional index estimate from one field at subsampling level nu.

    Projects the field on the given axis, strides the projection by 2^nu
    (step 2^nu / M), computes the variations of the base and 2-dilated
    filter at that step, and returns
    ``log(T_2 / T_1) / (2 log 2) - 1/2``, the 1/2 correcting for the
    hyperplane average.
    """
    if a is None:
        a = binomial_filter(2)
    _check_level(field.grid_size, nu)
    proj = project_axis(field, direction)
    value, t1, t2 = _projected_index(proj.values, nu, a)
    return EstimateResult(
        value=value,
        variations=(t1, t2),
        direction=direction,
        nu=nu,
    )


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

    Projects the field once per axis and strides each projection per
    level, so the estimates equal those of :func:`estimate_direction` bit
    for bit.
    """
    if a is None:
        a = binomial_filter(2)
    for nu in nus:
        _check_level(field.grid_size, nu)
    horizontal = project_axis(field, "horizontal").values
    vertical = project_axis(field, "vertical").values
    out = []
    for nu in nus:
        h_h = _projected_index(horizontal, nu, a)[0]
        h_v = _projected_index(vertical, nu, a)[0]
        out.append(PairEstimate(h_h, h_v, h_h - h_v))
    return tuple(out)
