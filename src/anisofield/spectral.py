"""Anisotropic index functions, power-law spectral densities, and the
windowed frequency-space projection of a density onto a single axis.

The index h assigns a regularity in (0, 1) to every direction; it is even
and 0-homogeneous by construction.  The associated density on the plane is
``|xi|^(-2 h(xi) - 2)``.  Projecting the density against a normalized
window concentrates it on one axis, and for large offsets the projected
density decays like ``|p|^(-2 h(axis) - 2)``, which is what makes the
directional index recoverable from projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure, ZeroFrequency

_SQRT_TWO_PI = float(np.sqrt(2.0 * np.pi))

__all__ = [
    "AnisotropicIndex",
    "Window1DMinus",
    "density",
    "radon_density",
    "parse_index",
    "parse_window",
]


@dataclass(frozen=True)
class AnisotropicIndex:
    """Directional regularity index of a 2-d field, split by axis.

    The index is ``h_v`` where ``|xi_1| < |xi_2|`` and ``h_h`` otherwise
    (ties go to the horizontal branch); equal values give a constant index.
    """

    h_h: float
    h_v: float

    def __post_init__(self):
        for val in (self.h_h, self.h_v):
            if not 0.0 < val < 1.0:
                raise ValueError(f"index value {val} outside (0, 1)")

    def evaluate(self, xi) -> np.ndarray:
        """Index value for each frequency in ``xi`` (shape ``(..., 2)``).

        Depends on the direction only, with xi and -xi giving the same
        value, so evenness and 0-homogeneity hold exactly.
        """
        xi = np.asarray(xi, dtype=float)
        if xi.shape[-1] != 2:
            raise ValueError("the index is defined for d = 2 only")
        return np.where(
            np.abs(xi[..., 0]) < np.abs(xi[..., 1]), self.h_v, self.h_h
        )


def density(index: AnisotropicIndex, xi):
    """Evaluate the power-law density ``|xi|^(-2 h(xi) - 2)`` of the index
    at one frequency or an array of them.

    The density carries no amplitude: every estimate is a log-ratio of
    variations, in which a constant factor cancels.

    ``xi`` has shape ``(2,)`` or ``(..., 2)``.  Raises ZeroFrequency if any
    point is the origin, where the density is singular.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != 2:
        raise ValueError(f"frequency dimension {xi.shape[-1]} != 2")
    r2 = np.sum(xi * xi, axis=-1)
    if np.any(r2 == 0.0):
        raise ZeroFrequency("density is singular at the zero frequency")
    h = index.evaluate(xi)
    out = r2 ** (-(h + 1.0))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Window1DMinus:
    """Scalar window on the projection hyperplane coordinate.

    Two profiles: an indicator (default support [0, 1]) and a Gaussian
    bump ``exp(-(x - center)^2 / (2 sigma^2))``, which is rapidly
    decreasing and has no compact support.
    """

    profile: str  # "indicator" | "gaussian"
    sigma: float = 0.0
    center: float = 0.0
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.profile == "indicator":
            if not self.hi > self.lo:
                raise ValueError("indicator window needs hi > lo")
        elif self.profile == "gaussian":
            if self.sigma <= 0.0:
                raise ValueError("gaussian window needs sigma > 0")
        else:
            raise ValueError(f"unknown window profile {self.profile!r}")

    @classmethod
    def indicator_unit(cls) -> "Window1DMinus":
        return cls("indicator")

    @classmethod
    def indicator(cls, lo: float, hi: float) -> "Window1DMinus":
        return cls("indicator", lo=lo, hi=hi)

    @classmethod
    def gaussian(cls, sigma: float, center: float = 0.0) -> "Window1DMinus":
        return cls("gaussian", sigma=sigma, center=center)

    @property
    def support(self):
        """Compact support as (lo, hi), or None for the Gaussian profile."""
        if self.profile == "indicator":
            return (self.lo, self.hi)
        return None

    @property
    def integral(self) -> float:
        """Integral over the real line, used for normalization."""
        if self.profile == "indicator":
            return self.hi - self.lo
        return self.sigma * _SQRT_TWO_PI

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.profile == "indicator":
            out = np.where((x >= self.lo) & (x <= self.hi), 1.0, 0.0)
        else:
            z = (x - self.center) / self.sigma
            out = np.exp(-0.5 * z * z)
        return float(out) if out.ndim == 0 else out


# Successive quadrature budgets tried before giving up.
_QUAD_LIMITS = (100, 400, 1600)
_QUAD_RTOL = 1e-6


def _quad_stable(f, lo, hi, points=None):
    """scipy quad with escalating subdivision budgets; returns (val, err)."""
    from scipy import integrate  # here: no pipeline or CLI path runs quadrature

    last = None
    for limit in _QUAD_LIMITS:
        val, err = integrate.quad(
            f, lo, hi, points=points, limit=limit, epsabs=0.0, epsrel=1e-9
        )
        if err <= _QUAD_RTOL * max(abs(val), 1e-300):
            return val, err
        last = (val, err)
    return last


def radon_density(index: AnisotropicIndex, window_sq: Window1DMinus, p: float) -> float:
    """Project the density onto one axis against a normalized window.

    Computes ``integral f((gamma, p)) w(gamma) dgamma`` over the hyperplane
    coordinate gamma, with ``w`` the window profile normalized to unit
    integral.  For large |p| the result decays like
    ``|p|^(-2 h(axis) - 2)`` where the axis is the projection direction.
    """
    if p == 0.0:
        raise ZeroFrequency("projected density is singular at p = 0")
    norm = window_sq.integral

    def integrand(gamma: float) -> float:
        r2 = gamma * gamma + p * p
        h = index.h_v if abs(gamma) < abs(p) else index.h_h
        return r2 ** (-(h + 1.0)) * window_sq(gamma) / norm

    # The axis-pair exponent switches at |gamma| = |p|; hand that point and
    # the window landmarks to the subdivision.
    kinks = [-abs(p), abs(p)]
    sup = window_sq.support
    if sup is not None:
        lo, hi = sup
    else:
        # The Gaussian profile underflows to exact float zero well inside
        # 40 sigma, so nothing is lost by stopping there.
        reach = 40.0 * window_sq.sigma
        lo = window_sq.center - reach
        hi = window_sq.center + reach
        kinks += [
            window_sq.center - 8.0 * window_sq.sigma,
            window_sq.center,
            window_sq.center + 8.0 * window_sq.sigma,
        ]
    pts = sorted(q for q in set(kinks) if lo < q < hi) or None
    total, total_err = _quad_stable(integrand, lo, hi, points=pts)
    if total_err > _QUAD_RTOL * max(abs(total), 1e-300):
        raise QuadratureFailure(
            f"projected density at p={p:g}: error {total_err:g} "
            f"exceeds {_QUAD_RTOL:g} relative"
        )
    return total


def parse_index(text: str) -> AnisotropicIndex:
    """Parse config syntax ``constant:0.5`` or ``axes:0.7,0.2``."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    try:
        values = [float(tok) for tok in rest.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad index spec {text!r}") from exc
    if (kind, len(values)) in (("constant", 1), ("axes", 2)):
        # constant:h is the index (h, h)
        return AnisotropicIndex(values[0], values[-1])
    raise ValueError(f"bad index spec {text!r}")


def parse_window(text: str) -> Window1DMinus:
    """Parse window syntax ``indicator`` or ``gaussian:SIGMA[,CENTER]``."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "indicator":
        return Window1DMinus.indicator_unit()
    if kind == "gaussian":
        try:
            values = [float(tok) for tok in rest.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError(f"bad window spec {text!r}") from exc
        if len(values) == 1:
            return Window1DMinus.gaussian(values[0])
        if len(values) == 2:
            return Window1DMinus.gaussian(values[0], center=values[1])
    raise ValueError(f"bad window spec {text!r}")
