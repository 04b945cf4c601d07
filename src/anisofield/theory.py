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
nearest H (at most K - 1) and d = H - n the sum is taken of
x^(2n) (|x|^(2d) - 1), which vanishes with sin(pi H) at H = n and keeps one
formula at every H:

    Gamma(p) = (-1)^(n+1) / (Gamma(2H+1) sinc(d))
               * sum_jk a_j a_k x^(2n) expm1(2 d log|x|) / d

with 2 log|x| in place of expm1(2 d log|x|) / d at d = 0.  expm1 keeps the
difference free of cancellation as d shrinks.

Beyond |p| = 2 l max(u, v) the binomial series of |x|^(2H) in the taps'
offsets sums the squared coefficients in closed form, one Hurwitz zeta
value per power of |p|.  The zeta values come from the Euler-Maclaurin
formula: ten terms of the series, then the integral of the rest and its
Bernoulli corrections B_2 ... B_14.

A bundle of constants is one pass: the tap sums of the four dilation pairs
(1, 1), (u, u), (v, v) and (u, v) are evaluated on one stacked offsets
array and one shared grid of p; each C sums its squares up to its own
cutoff, and the tails take their zeta values from one call over the
distinct cutoffs.  E_const, Gamma_fourier and C_const run the same code
for one pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NegativeVariance, OrderTooLow, _dilation, _kind, _real
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

# Euler-Maclaurin for the Hurwitz zeta: terms summed one by one, and
# B_2j / (2j)! for j = 1..7.  From q = 5 on (the smallest cutoff P + 1),
# the first dropped correction, B_16, stays below 4e-17 of the sum (checked
# in 30-digit arithmetic for 1 < s <= 400 and q up to 257).
_ZETA_TERMS = 10
_BERNOULLI = np.array([
    1 / 12,
    -1 / 720,
    1 / 30240,
    -1 / 1209600,
    1 / 47900160,
    -691 / 1307674368000,
    1 / 74724249600,
])
_ZETA_SHIFTS = np.arange(_ZETA_TERMS, -1, -1.0)
_RISING = np.arange(2.0 * len(_BERNOULLI) - 1)


def _hurwitz_zeta(s: np.ndarray, q) -> np.ndarray:
    """zeta(s, q) = sum over k >= 0 of (k + q)^-s, for an array of s > 1
    and a q, or an array of q, that broadcasts against it."""
    q = np.asarray(q, dtype=float)[..., None]
    x = q + _ZETA_TERMS
    # x^-s, then the summed terms (q + k)^-s from the smallest, k = 9..0
    powers = (q + _ZETA_SHIFTS) ** -s[..., None]
    # s(s+1)...(s+2j-2) / x^(2j-1) for j = 1..7 in the even columns
    rising = np.cumprod((s[..., None] + _RISING) / x, axis=-1)
    # the rest: x^-s (x/(s-1) + 1/2 + sum_j B_2j/(2j)! rising_j)
    rest = x[..., 0] / (s - 1.0) + 0.5 + rising[..., ::2] @ _BERNOULLI
    return powers[..., 1:].sum(axis=-1) + powers[..., 0] * rest


def _offsets(a: DiscreteFilter, pairs) -> np.ndarray:
    """The tap offsets j u - k v of each dilation pair (u, v), as a
    (len(pairs), l+1, l+1) float array."""
    taps = np.arange(a.length, dtype=float)
    u, v = np.array(pairs, dtype=float).T[..., None, None]
    return u * taps[:, None] - v * taps


def _tap_sums(a: DiscreteFilter, H: float, offsets: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gamma by the closed form of the module docstring, at the float
    points p and the tap offsets ``offsets`` broadcast as
    x = p[..., None, None] + offsets: stacked pairs' offsets of shape
    (k, 1, l+1, l+1) take one row of a (k, n) array p each."""
    n = min(round(H), a.order - 1)
    d = H - n
    x = p[..., None, None] + offsets
    ax = np.abs(x)
    log_x = np.log(np.where(ax == 0.0, 1.0, ax))
    # (|x|^(2d) - 1)/d, and its limit 2 log|x| at d = 0
    terms = np.expm1(2.0 * d * log_x) / d if d else 2.0 * log_x
    if n:
        terms *= x ** (2 * n)
    else:
        terms -= (ax == 0.0) / H  # |0|^(2H) - 0^0
    sinc = math.sin(math.pi * d) / (math.pi * d) if d else 1.0
    scale = (-1.0) ** (n + 1) / (math.gamma(2.0 * H + 1.0) * sinc)
    return scale * (terms @ a.coeffs @ a.coeffs)


def _constants(a: DiscreteFilter, H: float, pairs) -> tuple[float, np.ndarray]:
    """E at dilation 1 and the covariance constant C of each dilation pair
    (u, v), in one pass over the series of C_const's docstring.

    The tap sums of (1, 1) and of every pair are evaluated together, on
    one grid |p| <= the largest cutoff; each C sums its squares up to its
    own cutoff P = 2 l max(u, v), the rest of the grid masked.  The pairs'
    binomial moments come from one stacked power, and their tails' zeta
    values from one _hurwitz_zeta call, one row per distinct cutoff.
    """
    K = a.order
    cutoffs = [2 * (a.length - 1) * max(pair) for pair in pairs]
    top = max(cutoffs)
    pairs = [(1, 1), *pairs]
    offsets = _offsets(a, pairs)
    grid = np.arange(-top, top + 1.0)
    # Gamma is even in p for equal dilations; this keeps it so exactly.
    p = np.where([[u == v] for u, v in pairs], np.abs(grid), grid)
    taps = _tap_sums(a, H, offsets[:, None], p)
    head = np.where(np.abs(grid) <= np.array(cutoffs)[:, None], taps[1:], 0.0)
    m = np.arange(2 * K, 2 * K + _TAIL_TERMS, dtype=float)
    moments = offsets[1:, None] ** m[:, None, None] @ a.coeffs @ a.coeffs
    # (-1)^m Gamma(m - 2H) / m! as a running product: its value at m = 2K,
    # then the ratio -(m - 1 - 2H) / m of each term to the one before
    ratios = (2.0 * H + 1.0 - m) / m
    ratios[0] = math.exp(math.lgamma(2 * K - 2.0 * H) - math.lgamma(2 * K + 1.0))
    c = 2.0 * math.cos(math.pi * H) * np.cumprod(ratios) * moments
    even = np.array([np.convolve(row, row)[::2] for row in c])  # (c*c)_2q per pair
    distinct = sorted(set(cutoffs))
    # zeta(4K + 2q - 4H, P + 1), 4K + 2q being 2m
    zeta = _hurwitz_zeta(2.0 * m - 4.0 * H, np.array(distinct)[:, None] + 1.0)
    tail = 2.0 * np.vecdot(even, zeta[[distinct.index(P) for P in cutoffs]])
    return float(taps[0, top]), 2.0 * (np.vecdot(head, head) + tail)


def _checked(a: DiscreteFilter, u, v, H, covariance: bool = False) -> tuple[int, int]:
    """The dilations u and v as ints, once the filter, u, v and H are valid
    for E and Gamma (order > H) or, with ``covariance``, for C (order >
    H + 1/4)."""
    _kind(a, DiscreteFilter, "filter")
    u, v = _dilation(u), _dilation(v, "v")
    if not _real(H, "H =") > 0.0:
        raise InvalidArgument(f"H={H} must be positive")
    if a.order <= H + 0.25 * covariance:
        bound = f"H + 1/4 = {H + 0.25}" if covariance else f"H={H}"
        raise OrderTooLow(f"filter order {a.order} must exceed {bound}")
    return u, v


def E_const(a: DiscreteFilter, u: int, H: float) -> float:
    """Mean constant u^{2H} * integral |P_a(e^{-i xi})|^2 |xi|^{-2H-1} dxi.

    Finite exactly when the filter order exceeds H.
    """
    return Gamma_fourier(a, 1, 1, H, 0) * float(_dilation(u)) ** (2.0 * H)


def Gamma_fourier(a: DiscreteFilter, u: int, v: int, H: float, p):
    """Fourier coefficient of the two-scale transfer product against the
    power-law density: integral e^{-ip xi} h_a^{u,v}(xi) |xi|^{-2H-1} dxi.

    Accepts an integer p or an integer array.  The value is real; it
    decays in |p| like |p|^(2H - 2K) for a filter of order K, and is not
    symmetric in the sign of p unless u == v.
    """
    u, v = _checked(a, u, v, H)
    if np.asarray(p).dtype.kind not in "iu":
        raise InvalidArgument(f"p = {p!r} is not an integer or an array of integers")
    p = np.asarray(p, dtype=float)
    # Gamma is even in p for equal dilations; this keeps it so exactly.
    val = _tap_sums(a, H, _offsets(a, [(u, v)])[0], np.abs(p) if u == v else p)
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
    u, v = _checked(a, u, v, H, covariance=True)
    return float(_constants(a, H, [(u, v)])[1][0])


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
    u, v = _checked(a, u, v, H, covariance=True)
    if u == v:
        raise InvalidArgument("gamma is undefined for equal dilations")
    # E grows like 1/H and C like 1/H^2: below H ~ 1e-154 they overflow,
    # and opposite infinities in the tap sum give NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        e_1, c = _constants(a, H, [(u, u), (v, v), (u, v)])
    e_u = e_1 * float(u) ** (2.0 * H)  # as E_const scales E at dilation 1
    e_v = e_1 * float(v) ** (2.0 * H)
    c_uu, c_vv, c_uv = c.tolist()
    if not all(map(math.isfinite, (e_u, e_v, c_uu, c_vv, c_uv))):
        raise InvalidArgument(f"the asymptotic constants at H={H} are not finite")
    quad_form = c_uu / e_u**2 + c_vv / e_v**2 - 2.0 * c_uv / (e_u * e_v)
    gamma = quad_form / (4.0 * math.log(u / v) ** 2)
    if gamma < -1e-9:
        raise NegativeVariance(
            f"gamma={gamma:g} is negative beyond roundoff; the mean and "
            "covariance constants are inconsistent"
        )
    return AsymptoticConstants(e_u, e_v, c_uu, c_vv, c_uv, max(gamma, 0.0))
