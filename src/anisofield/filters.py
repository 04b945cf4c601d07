"""Discrete filter algebra for generalized quadratic variations.

A filter ``a = (a_0, ..., a_l)`` of order ``K`` annihilates sampled
polynomials of degree ``K - 1``: its moments ``sum_k a_k k^r`` vanish for
``r < K`` while the K-th moment does not.  Dilating a filter by an integer
factor spreads its coefficients with zeros in between and preserves the
order, which is what makes two-scale log-ratio estimation of regularity
possible.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgument, _dilation, _integer, _kind, _reals

__all__ = [
    "DiscreteFilter",
    "infer_order",
    "transfer_sq",
    "cross_transfer",
    "apply_filter",
    "binomial_filter",
    "parse_filter",
]

# Moment r is considered zero below _REL_TOL * max|a_k| * l**r.  Exact
# integer filters dominate usage; the tolerance only guards float inputs.
_REL_TOL = 1e-9


def infer_order(coeffs) -> int:
    """Return the smallest K >= 1 with a non-vanishing K-th moment.

    Raises InvalidArgument at a NaN or infinite coefficient, when the
    coefficients do not sum to zero (order 0 is not a valid variation
    filter) and when every moment up to r = l is below tolerance.
    """
    a = np.asarray(_reals(coeffs, "coefficients"), dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise InvalidArgument("coefficients must be a non-empty 1-d sequence")
    scale = float(np.abs(a).max())  # NaN or inf at a NaN or infinite coefficient
    if not math.isfinite(scale):
        bad = np.flatnonzero(~np.isfinite(a))[0]
        raise InvalidArgument(f"filter coefficient {bad} is {a[bad]}, not a finite number")
    if scale == 0.0:
        raise InvalidArgument("all coefficients are zero")
    l = a.size - 1
    # every moment sum_k a_k k^r, r = 0..l, in one product (0**0 == 1); not
    # a matrix product, which would be a 2-d run's first BLAS gemv and raised
    # the forked pool workers' peak RSS by about 0.3 MB (numpy 2.4, OpenBLAS)
    k = np.arange(a.size, dtype=float)
    moments = np.vecdot(k ** k[:, None], a)
    for r, moment in enumerate(moments.tolist()):
        if abs(moment) > _REL_TOL * scale * float(l) ** r:
            if r == 0:
                raise InvalidArgument(
                    f"coefficients sum to {moment:g}, not zero"
                )
            return r
    raise InvalidArgument(
        f"moments up to r={l} all below tolerance; degenerate filter"
    )


class DiscreteFilter:
    """Immutable coefficient vector with a cached order.

    The order K satisfies l >= K >= 1 where l + 1 is the length; this is
    checked at construction.
    """

    def __init__(self, coeffs):
        arr = np.array(_reals(coeffs, "coefficients"), dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidArgument("a filter needs at least two coefficients")
        self._order = infer_order(arr)
        arr.flags.writeable = False
        self._coeffs = arr

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def order(self) -> int:
        return self._order

    @property
    def length(self) -> int:
        """Number of coefficients, l + 1."""
        return self._coeffs.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteFilter):
            return NotImplemented
        return (
            self._coeffs.shape == other._coeffs.shape
            and bool(np.all(self._coeffs == other._coeffs))
        )

    def __hash__(self) -> int:
        return hash(self._coeffs.tobytes())

    def __repr__(self) -> str:
        inner = ",".join(f"{c:g}" for c in self._coeffs)
        return f"DiscreteFilter(({inner}), order={self._order})"


def binomial_filter(order: int) -> DiscreteFilter:
    """Increment filter of the given order, a_k = (-1)^(K-k) C(K, k).

    ``binomial_filter(2)`` is the second difference (1, -2, 1).
    """
    order = _integer(order, f"filter order = {order!r}")
    if order < 1:
        raise InvalidArgument("order must be >= 1")
    coeffs = [(-1.0) ** (order - k) * math.comb(order, k) for k in range(order + 1)]
    return DiscreteFilter(coeffs)


def _poly_unit_circle(a: DiscreteFilter, xi):
    """Evaluate P_a(e^{-i xi}) = sum_k a_k e^{-ik xi} (vectorized in xi)."""
    _kind(a, DiscreteFilter, "filter")
    xi = np.asarray(_reals(xi, "xi"), dtype=float)
    k = np.arange(a.length)
    phases = np.exp(-1j * np.multiply.outer(xi, k))
    return phases @ a.coeffs


def transfer_sq(a: DiscreteFilter, xi):
    """Squared transfer function |P_a(e^{-i xi})|^2.

    2*pi-periodic, even, and O(xi^{2K}) near the origin.  Accepts scalars
    or arrays.
    """
    val = np.abs(_poly_unit_circle(a, xi)) ** 2
    return float(val) if val.ndim == 0 else val


def cross_transfer(a: DiscreteFilter, u: int, v: int, xi):
    """Two-scale transfer product P_a(e^{-iu xi}) * conj(P_a(e^{-iv xi}))."""
    u, v = _dilation(u), _dilation(v, "v")
    xi = np.asarray(_reals(xi, "xi"), dtype=float)
    val = _poly_unit_circle(a, u * xi) * np.conj(_poly_unit_circle(a, v * xi))
    return complex(val) if val.ndim == 0 else val


def apply_filter(a: DiscreteFilter, values, u: int = 1) -> np.ndarray:
    """Filtered series Z_p = sum_k a_k x_{p + k*u} for every admissible p,
    along the last axis of ``values``.

    The last axis of the result has length ``n - l*u``, n being that of
    ``values`` (empty input raises).  Each series is filtered with the same
    operations as on its own, so the result does not depend on how many
    series are stacked.
    """
    x = np.atleast_1d(np.asarray(_reals(values, "values"), dtype=float))
    _kind(a, DiscreteFilter, "filter")
    u = _dilation(u)
    span = (a.length - 1) * u
    count = x.shape[-1] - span
    if count < 1:
        raise InvalidArgument("input shorter than the dilated filter")
    out = np.zeros(x.shape[:-1] + (count,))
    for k, c in enumerate(a.coeffs):
        if c != 0.0:
            out += c * x[..., k * u : k * u + count]
    return out


def parse_filter(text: str) -> DiscreteFilter:
    """Parse a comma-separated coefficient list such as ``"1,-2,1"``."""
    try:
        coeffs = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidArgument(f"bad filter spec {text!r}") from exc
    return DiscreteFilter(coeffs)
