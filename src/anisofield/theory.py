"""Asymptotic constants of the quadratic-variation estimator.

Three families of constants control the estimator's limit behavior: the
mean constant ``E`` (integral of the squared transfer function against the
power-law density), the covariance constants ``C`` (twice the summed
squared Fourier coefficients of the two-scale transfer product against the
same density), and the limit variance ``gamma`` obtained by composing the
two through the log-ratio delta method.

Each Fourier coefficient is a finite sum over the filter taps, the filtered
fractional covariance (Istas & Lang 1997; Kent & Wood 1997), with
x = p + j u - k v:

    Gamma(p) = -pi / (Gamma(2H+1) sin(pi H)) * sum_jk a_j a_k |x|^(2H)

A filter of order K annihilates x^(2n) for n < K, so with n the integer
nearest H (at most K - 1) the sum is taken of x^(2n) (|x|^(2(H-n)) - 1),
which vanishes with sin(pi H) at H = n and keeps one formula at every H:

    Gamma(p) = (-1)^(n+1) / (Gamma(2H+1) sinc(H-n))
               * sum_jk a_j a_k x^(2n) 2 log|x| exprel(2 (H-n) log|x|)

Beyond |p| = 2 l max(u, v) the binomial series of |x|^(2H) in the taps'
offsets sums the squared coefficients in closed form, one Hurwitz zeta
value per power of |p|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exprel, gammaln, zeta

from .errors import EqualDilations, NegativeVariance, OrderTooLow
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

# Binomial-series terms kept in the tail of C.  Beyond |p| = 2 l max(u, v)
# the offsets are at most |p|/2, so the m-th term shrinks like 2^-m and the
# dropped ones are about 2^-40 of the tail.
_TAIL_TERMS = 40


def _offsets(a: DiscreteFilter, u: int, v: int) -> np.ndarray:
    """The tap offsets j u - k v as an (l+1, l+1) float array."""
    taps = np.arange(a.length, dtype=float)
    return np.subtract.outer(u * taps, v * taps)


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
    if not H > 0.0:
        raise ValueError(f"H={H} must be positive")
    if a.order <= H:
        raise OrderTooLow(f"filter order {a.order} must exceed H={H}")
    p = np.asarray(p, dtype=float)
    if u == v:
        # Gamma is even in p for equal dilations; this keeps it so exactly.
        p = np.abs(p)
    n = min(round(H), a.order - 1)
    x = p[..., None, None] + _offsets(a, u, v)
    ax = np.abs(x)
    log_x = np.log(np.where(ax == 0.0, 1.0, ax))
    terms = x ** (2 * n) * 2.0 * log_x * exprel(2.0 * (H - n) * log_x)
    if n == 0:
        terms -= (ax == 0.0) / H  # |0|^(2H) - 0^0
    scale = (-1.0) ** (n + 1) / (math.gamma(2.0 * H + 1.0) * np.sinc(H - n))
    val = scale * (terms @ a.coeffs @ a.coeffs)
    return float(val) if val.ndim == 0 else val


def C_const(a: DiscreteFilter, u: int, v: int, H: float) -> float:
    """Covariance constant 2 * sum over all integers p of the squared
    Fourier coefficients.  Finite when the filter order exceeds H + 1/4.

    The coefficients are summed up to |p| = P = 2 l max(u, v).  Beyond P
    the binomial series of |p + d|^(2H) in the offsets d = j u - k v gives

        Gamma(p) = sum_{m >= 2K} c_m sgn(p)^m |p|^(2H - m),
        c_m = 2 cos(pi H) (-1)^m Gamma(m - 2H) / m! * sum_jk a_j a_k d^m,

    and only even m + m' survive the sum over both signs of p, so the tail
    is 2 sum_q (c*c)_{2q} zeta(4K + 2q - 4H, P + 1) in Hurwitz zeta values.
    """
    if a.order <= H + 0.25:
        raise OrderTooLow(
            f"filter order {a.order} must exceed H + 1/4 = {H + 0.25}"
        )
    K = a.order
    P = 2 * (a.length - 1) * max(u, v)
    head = Gamma_fourier(a, u, v, H, np.arange(-P, P + 1))
    m = np.arange(2 * K, 2 * K + _TAIL_TERMS)
    moments = _offsets(a, u, v) ** m[:, None, None] @ a.coeffs @ a.coeffs
    c = (
        2.0 * math.cos(math.pi * H) * (-1.0) ** m
        * np.exp(gammaln(m - 2.0 * H) - gammaln(m + 1.0)) * moments
    )
    even = np.convolve(c, c)[::2]
    s = 4 * K + 2 * np.arange(even.size)
    tail = 2.0 * float(even @ zeta(s - 4.0 * H, P + 1.0))
    return 2.0 * (float(head @ head) + tail)


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


def asymptotic_constants(
    a: DiscreteFilter, u: int, v: int, H: float
) -> AsymptoticConstants:
    """Compute every constant the CLT needs for one configuration."""
    if u == v:
        raise EqualDilations("gamma is undefined for equal dilations")
    # E grows like 1/H and C like 1/H^2: below H ~ 1e-154 they overflow,
    # and opposite infinities in the tap sum give NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        e_u = E_const(a, u, H)
        e_v = E_const(a, v, H)
        c_uu = C_const(a, u, u, H)
        c_vv = C_const(a, v, v, H)
        c_uv = C_const(a, u, v, H)
    if not np.isfinite([e_u, e_v, c_uu, c_vv, c_uv]).all():
        raise ValueError(f"the asymptotic constants at H={H} are not finite")
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
    )
