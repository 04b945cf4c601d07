"""Asymptotic constants of the quadratic-variation estimator.

Three families of constants control the estimator's limit behavior: the
mean constant ``E`` (integral of the squared transfer function against the
power-law density), the covariance constants ``C`` (twice the summed
squared Fourier coefficients of the two-scale transfer product against the
same density), and the limit variance ``gamma`` obtained by composing the
two through the log-ratio delta method.

Each Fourier coefficient is a finite sum over the filter taps, the filtered
fractional covariance (Istas & Lang 1997; Kent & Wood 1997):

    Gamma(p) = -pi / (Gamma(2H+1) sin(pi H)) * sum_jk a_j a_k |p + j u - k v|^(2H)

At integer H = n the sum and sin(pi H) vanish together, and the limit is
2 (-1)^(n+1) / (2n)! * sum_jk a_j a_k x^(2n) log|x|.  The covariance series
is cut where an analytic bound on the coefficients' power-law decay
certifies the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EqualDilations,
    NegativeVariance,
    OrderTooLow,
    TailNotConverged,
)
# cross_transfer, transfer_sq: unused here; the benchmark's tracer wraps them.
from .filters import DiscreteFilter, cross_transfer, transfer_sq

__all__ = [
    "AsymptoticConstants",
    "E_const",
    "Gamma_fourier",
    "C_const",
    "gamma_const",
    "asymptotic_constants",
]

_C_RTOL = 1e-6      # certified relative error of C, per truncation and roundoff
_P_LIMIT = 1 << 16  # largest series cutoff C_const sums to
_EPS = float(np.finfo(float).eps)


def _fourier_terms(a: DiscreteFilter, u: int, v: int, H: float, p):
    """Gamma(p) and an estimate of its roundoff, eps times the summed
    magnitudes of the terms that cancel in it."""
    p = np.asarray(p, dtype=float)
    if u == v:
        # Gamma is even in p for equal dilations; this keeps it so exactly.
        p = np.abs(p)
    n = round(H)
    if H == n:
        # sin(pi H) and the sum vanish together; take their ratio's limit.
        scale = 2.0 * (-1.0) ** (n + 1) / math.factorial(2 * n)

        def power(x):
            ax = np.abs(x)
            return ax ** (2 * n) * np.log(np.where(ax == 0.0, 1.0, ax))
    else:
        scale = -math.pi / (math.gamma(2.0 * H + 1.0) * math.sin(math.pi * H))

        def power(x):
            return np.abs(x) ** (2.0 * H)

    total = np.zeros_like(p)
    size = np.zeros_like(p)
    for j, aj in enumerate(a.coeffs):
        for k, ak in enumerate(a.coeffs):
            term = aj * ak * power(p + (j * u - k * v))
            total += term
            size += np.abs(term)
    return scale * total, abs(scale) * _EPS * size


def E_const(a: DiscreteFilter, u: int, H: float) -> float:
    """Mean constant u^{2H} * integral |P_a(e^{-i xi})|^2 |xi|^{-2H-1} dxi.

    Finite exactly when the filter order exceeds H.
    """
    if u < 1:
        raise ValueError("dilation factor must be >= 1")
    return float(u) ** (2.0 * H) * Gamma_fourier(a, 1, 1, H, 0)


def Gamma_fourier(a: DiscreteFilter, u: int, v: int, H: float, p):
    """Fourier coefficient of the two-scale transfer product against the
    power-law density: integral e^{-ip xi} h_a^{u,v}(xi) |xi|^{-2H-1} dxi.

    Accepts an integer p or an integer array.  The value is real; it
    decays in |p| like |p|^(2H - 2K) for a filter of order K, and is not
    symmetric in the sign of p unless u == v.
    """
    if u < 1 or v < 1:
        raise ValueError("dilation factors must be >= 1")
    if H <= 0.0:
        raise ValueError(f"H={H} must be positive")
    if a.order <= H:
        raise OrderTooLow(f"filter order {a.order} must exceed H={H}")
    val, _ = _fourier_terms(a, u, v, H, p)
    return float(val) if val.ndim == 0 else val


def C_const(a: DiscreteFilter, u: int, v: int, H: float) -> float:
    """Covariance constant 2 * sum over all integers p of the squared
    Fourier coefficients.  Finite when the filter order exceeds H + 1/4.

    The series is summed to a cutoff P fixed beforehand.  For a filter of
    order K and span l, the taps act as a K-th order difference at each
    scale, so for |p| > L = l max(u, v)

        |Gamma(p)| <= B (|p| - L)^(2H - 2K),
        B = 2 |cos(pi H)| Gamma(2K - 2H) (uv)^K m_K^2,
        m_K = sum_j |a_j| j^K / K!,

    and the tail beyond P is at most 4 B^2 (P - L)^(-e) / e with
    e = 4K - 4H - 1.  P makes that tail at most 1e-6 of the lower bound
    2 * sum_{|p| <= L} Gamma(p)^2 on C (Gamma(0) alone can vanish, as for
    u, v = 2, 1 at H = 1/2).  TailNotConverged is raised when P would
    exceed a fixed budget or the summed roundoff exceeds the same tolerance.
    """
    if a.order <= H + 0.25:
        raise OrderTooLow(
            f"filter order {a.order} must exceed H + 1/4 = {H + 0.25}"
        )
    K = a.order
    e = 4.0 * K - 4.0 * H - 1.0
    span = (a.length - 1) * max(u, v)
    head = Gamma_fourier(a, u, v, H, np.arange(-span, span + 1))
    target = _C_RTOL * 2.0 * float(np.sum(head * head))
    m_k = sum(abs(c) * j**K for j, c in enumerate(a.coeffs)) / math.factorial(K)
    bound = (
        2.0 * abs(math.cos(math.pi * H)) * math.gamma(2.0 * K - 2.0 * H)
        * float(u * v) ** K * m_k**2
    )
    reach = (4.0 * bound**2 / (e * target)) ** (1.0 / e)
    if span + reach > _P_LIMIT:
        raise TailNotConverged(
            f"certifying the tail at H={H} needs a cutoff of {span + reach:.3g} "
            f"terms, above the budget of {_P_LIMIT}"
        )
    P = span + max(1, math.ceil(reach))
    g, err = _fourier_terms(a, u, v, H, np.arange(-P, P + 1))
    total = 2.0 * float(np.sum(g * g))
    roundoff = 2.0 * float(np.sum(err * (2.0 * np.abs(g) + err)))
    if roundoff > _C_RTOL * total:
        raise TailNotConverged(
            f"roundoff {roundoff:g} in the series at H={H} is above "
            f"{_C_RTOL:g} of its sum {total:g}"
        )
    return total


def gamma_const(a: DiscreteFilter, u: int, v: int, H: float) -> float:
    """Limit variance of the two-scale log-ratio exponent estimator.

    Composes the mean and covariance constants through the delta method:
    (C_uu/E_u^2 + C_vv/E_v^2 - 2 C_uv/(E_u E_v)) / (4 log^2(u/v)).
    """
    return asymptotic_constants(a, u, v, H).gamma


@dataclass(frozen=True)
class AsymptoticConstants:
    """Bundle of constants for one (filter, u, v, H) configuration."""

    E_u: float
    E_v: float
    C_uu: float
    C_vv: float
    C_uv: float
    gamma: float
    H: float
    u: int
    v: int
    filter: DiscreteFilter


def asymptotic_constants(
    a: DiscreteFilter, u: int, v: int, H: float
) -> AsymptoticConstants:
    """Compute every constant the CLT needs for one configuration."""
    if u == v:
        raise EqualDilations("gamma is undefined for equal dilations")
    e_u = E_const(a, u, H)
    e_v = E_const(a, v, H)
    c_uu = C_const(a, u, u, H)
    c_vv = C_const(a, v, v, H)
    c_uv = C_const(a, u, v, H)
    quad_form = c_uu / e_u**2 + c_vv / e_v**2 - 2.0 * c_uv / (e_u * e_v)
    gamma = quad_form / (4.0 * math.log(u / v) ** 2)
    if gamma < -1e-9:
        raise NegativeVariance(
            f"gamma={gamma:g} is negative beyond roundoff; the mean and "
            "covariance constants are inconsistent"
        )
    return AsymptoticConstants(
        E_u=e_u,
        E_v=e_v,
        C_uu=c_uu,
        C_vv=c_vv,
        C_uv=c_uv,
        gamma=max(gamma, 0.0),
        H=float(H),
        u=int(u),
        v=int(v),
        filter=a,
    )
