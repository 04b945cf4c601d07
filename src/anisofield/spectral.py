"""Anisotropic index functions, power-law spectral densities, and the
windowed frequency-space projection of a density onto a single axis.

The index h assigns a regularity in (0, 1) to every direction; it is even
and 0-homogeneous by construction.  The associated density on the plane is
``|xi|^(-2 h(xi) - 2)``.  Projecting the density against a normalized
window concentrates it on one axis, and for large offsets the projected
density decays like ``|p|^(-2 h(axis) - 2)``, which is what makes the
directional index recoverable from projections.  That projection is one
fixed composite Gauss-Legendre sum over pieces graded geometrically about
the density's peak, checked by comparing a 16- and a 32-point rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgument, QuadratureFailure, _kind, _real, _reals

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
            _real(val, "index value")
            if not 0.0 < val < 1.0:
                raise InvalidArgument(f"index value {val} outside (0, 1)")

    def evaluate(self, xi) -> np.ndarray:
        """Index value for each frequency in ``xi`` (shape ``(..., 2)``).

        Depends on the direction only, with xi and -xi giving the same
        value, so evenness and 0-homogeneity hold exactly.
        """
        xi = np.asarray(_reals(xi, "xi"), dtype=float)
        if xi.shape[-1] != 2:
            raise InvalidArgument("the index is defined for d = 2 only")
        return np.where(
            np.abs(xi[..., 0]) < np.abs(xi[..., 1]), self.h_v, self.h_h
        )


def density(index: AnisotropicIndex, xi):
    """Evaluate the power-law density ``|xi|^(-2 h(xi) - 2)`` of the index
    at one frequency or an array of them.

    The density carries no amplitude: every estimate is a log-ratio of
    variations, in which a constant factor cancels.

    ``xi`` has shape ``(2,)`` or ``(..., 2)``.  Raises InvalidArgument if
    any point is the origin, where the density is singular, or NaN, or if
    ``index`` is not an AnisotropicIndex; an infinite frequency has
    density 0.
    """
    _kind(index, AnisotropicIndex, "index")
    xi = np.asarray(_reals(xi, "xi"), dtype=float)
    if xi.shape[-1] != 2:
        raise InvalidArgument(f"frequency dimension {xi.shape[-1]} != 2")
    x1, x2 = xi[..., 0], xi[..., 1]
    r2 = x1 * x1 + x2 * x2
    if np.any(r2 == 0.0):
        raise InvalidArgument("density is singular at the zero frequency")
    if np.isnan(r2).any():
        raise InvalidArgument("density needs frequencies that are not NaN")
    h = index.evaluate(xi)
    out = r2 ** (-(h + 1.0))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Window1DMinus:
    """Gaussian window ``exp(-(x - center)^2 / (2 sigma^2))`` on the
    projection hyperplane coordinate, which is rapidly decreasing and has
    no compact support.

    Where a window is optional, None stands for the indicator of the grid
    footprint [0, 1].
    """

    sigma: float
    center: float = 0.0

    def __post_init__(self):
        _real(self.sigma, "window sigma")
        _real(self.center, "window center")
        if not (0.0 < self.sigma < math.inf and math.isfinite(self.center)):
            raise InvalidArgument(
                "gaussian window needs a finite sigma > 0 and a finite center, "
                f"got sigma {self.sigma}, center {self.center}"
            )

    @property
    def integral(self) -> float:
        """Integral over the real line, used for normalization."""
        return self.sigma * _SQRT_TWO_PI

    def __call__(self, x):
        z = (np.asarray(_reals(x, "x"), dtype=float) - self.center) / self.sigma
        out = np.exp(-0.5 * z * z)
        return float(out) if out.ndim == 0 else out


# Largest relative gap allowed between the 16- and 32-point rules.
_QUAD_RTOL = 1e-6


@lru_cache(maxsize=2)
def _gauss_legendre(n: int):
    # imported on first use: loading numpy.polynomial at import costs ~5 ms
    from numpy.polynomial.legendre import leggauss

    return leggauss(n)


def radon_density(
    index: AnisotropicIndex, window_sq: Window1DMinus | None, p: float
) -> float:
    """Project the density onto one axis against a normalized window.

    Computes ``integral density(index, (gamma, p)) w(gamma) dgamma`` over
    the hyperplane coordinate gamma, with ``w`` the window normalized to
    unit integral, or the indicator of [0, 1] when ``window_sq`` is None.
    For large |p| the result decays like ``|p|^(-2 h(axis) - 2)`` where
    the axis is the projection direction.

    The integral is one composite Gauss-Legendre sum.  The pieces end at
    the window ends (0 and 1 without a window, center +- 40 sigma for the
    Gaussian, whose profile underflows well inside that), at +-|p| 2^k for
    k = 0, 1, ... until they pass the window, and for the Gaussian at
    center + sigma {-8, ..., 8}.  The pieces thus grow geometrically away from the
    density's peak at gamma = 0, the exponent switch at |gamma| = |p|
    falls on a piece end, and the complex poles at +-i|p| stay at least
    a half-length away from every piece, so both rules converge
    geometrically on each.  Every piece takes the 16- and the 32-point
    rule; QuadratureFailure is raised unless the two sums agree within
    ``_QUAD_RTOL`` relative (so also when the value overflows or
    underflows to zero), and the 32-point sum is returned.  A p of 0, where
    the density is singular, or one that is not a finite real number
    raises InvalidArgument, and so does a window that is neither None nor
    a Window1DMinus.
    """
    _real(p, "p =")
    if p == 0.0:
        raise InvalidArgument("projected density is singular at p = 0")
    if not math.isfinite(p):
        raise InvalidArgument(f"projected density needs a finite p, got {p}")
    a = abs(p)
    if window_sq is None:
        lo, hi, marks, integral = 0.0, 1.0, [], 1.0
    else:
        _kind(window_sq, Window1DMinus, "window")
        reach = 40.0 * window_sq.sigma
        lo, hi = window_sq.center - reach, window_sq.center + reach
        marks = window_sq.center + window_sq.sigma * np.arange(-8.0, 9.0)
        integral = window_sq.integral
    steps = math.ceil(math.log2(max(-lo, hi)) - math.log2(a))
    graded = np.ldexp(a, np.arange(steps + 2))
    cuts = np.unique(np.clip(np.concatenate([[lo, hi], -graded, graded, marks]), lo, hi))
    mid = 0.5 * (cuts[1:] + cuts[:-1])[:, None]
    half = 0.5 * (cuts[1:] - cuts[:-1])[:, None]
    sums = []
    for n in (16, 32):
        x, w = _gauss_legendre(n)
        gamma = mid + half * x
        points = np.stack([gamma, np.full_like(gamma, p)], axis=-1)
        weight = 1.0 if window_sq is None else window_sq(gamma)
        # a value that overflows, or underflows to zero, fails the check below
        with np.errstate(all="ignore"):
            f = density(index, points) * weight
        sums.append(float(np.sum(half * w * f)) / integral)
    coarse, fine = sums
    if not abs(fine - coarse) < _QUAD_RTOL * abs(fine):
        raise QuadratureFailure(
            f"projected density at p={p:g}: the 16- and 32-point rules give "
            f"{coarse:g} and {fine:g}, not within {_QUAD_RTOL:g} relative"
        )
    return fine


def parse_index(text: str) -> AnisotropicIndex:
    """Parse config syntax ``constant:0.5`` or ``axes:0.7,0.2``."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    try:
        values = [float(tok) for tok in rest.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidArgument(f"bad index spec {text!r}") from exc
    if (kind, len(values)) in (("constant", 1), ("axes", 2)):
        # constant:h is the index (h, h)
        return AnisotropicIndex(values[0], values[-1])
    raise InvalidArgument(f"bad index spec {text!r}")


def parse_window(text: str) -> Window1DMinus:
    """Parse window syntax ``gaussian:SIGMA[,CENTER]``; no window is the
    plain line sum, so no spec stands for it."""
    kind, _, rest = text.partition(":")
    if kind.strip().lower() == "gaussian":
        try:
            values = [float(tok) for tok in rest.split(",") if tok.strip()]
            if len(values) in (1, 2):
                return Window1DMinus(*values)
        except ValueError as exc:
            raise InvalidArgument(f"bad window spec {text!r}: {exc}") from exc
    raise InvalidArgument(f"bad window spec {text!r}")
