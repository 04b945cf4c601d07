"""The spectral model of a field: its anisotropic index, the power-law
density of the index, the Gaussian projection window, and the parsers of
the index and window specs.

The index h assigns a regularity in (0, 1) to every direction; it is even
and 0-homogeneous by construction.  The associated density on the plane is
``|xi|^(-2 h(xi) - 2)``.  Its Radon transform onto one axis decays like
``|p|^(-2 h(axis) - 2)`` for large offsets, which is what makes the
directional index recoverable from projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, _kind, _real, _reals

__all__ = [
    "AnisotropicIndex",
    "Window1DMinus",
    "density",
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

    def __call__(self, x):
        z = (np.asarray(_reals(x, "x"), dtype=float) - self.center) / self.sigma
        out = np.exp(-0.5 * z * z)
        return float(out) if out.ndim == 0 else out


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
