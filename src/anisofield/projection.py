"""Discrete windowed Radon transforms of a grid field along its two axes.

The horizontal projection averages the field over the second coordinate
and is indexed by the first; the vertical one is its transpose.  Averaging
over a hyperplane raises the regularity of the projected process by 1/2
in two dimensions, which the estimators correct for.

Only the two grid axes are supported: a projection along an arbitrary
direction would need an off-lattice resampling rule that the grid does
not define.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument, _integer, _kind, _reals
from .spectral import Window1DMinus

__all__ = ["DIRECTIONS", "project_axis"]

DIRECTIONS = ("horizontal", "vertical")


def _accumulate_columns(grid, stride=1, weights=None) -> np.ndarray:
    """Sum of the columns 0, stride, 2*stride, ... of ``grid``, optionally
    weighted, added in index-ascending order.

    The columns are laid out as contiguous rows, and ``np.add.reduce``
    over axis 0 of a C-contiguous array adds those rows one after another
    (no pairwise blocking applies along the outer axis).  So the result
    does not depend on the memory layout of ``grid``: transposing the
    field swaps the two projection directions bit for bit, and windowed
    sums with unit weights match the plain ones exactly.
    """
    rows = np.ascontiguousarray(grid.T[::stride])
    if weights is not None:
        rows = weights[:, None] * rows
    return np.add.reduce(rows, axis=0)


def project_axis(
    field: np.ndarray,
    direction: str,
    window: Window1DMinus | None = None,
    m_sub: int | None = None,
) -> np.ndarray:
    """Projected values at k/M (k = 0..M) along one grid axis, read-only.

    ``field`` holds the (M+1) x (M+1) samples of a field on the unit grid,
    entry (k1, k2) at (k1/M, k2/M), as ``afb_sra`` and ``read_field``
    return them.

    The grid lines at j/m_sub (j = 0..m_sub) orthogonal to the axis are
    weighted by the window, summed and normalized by m_sub, which must
    divide the grid size M (default m_sub = M).  Without a window (None,
    the grid footprint [0, 1]) the lines are summed unweighted, so a
    constant field c projects to c * (m_sub + 1) / m_sub.  A Gaussian
    window is evaluated on [0, 1] only, i.e. truncated.
    """
    if direction not in DIRECTIONS:
        raise InvalidArgument(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    field = _reals(field, "field")
    if field.ndim != 2 or field.shape[0] != field.shape[1]:
        raise InvalidArgument("field values must be a square matrix")
    M = field.shape[0] - 1
    m_sub = M if m_sub is None else _integer(m_sub, f"m_sub = {m_sub!r}")
    if not 1 <= m_sub <= M:
        raise InvalidArgument("m_sub must lie in 1..M")
    if M % m_sub != 0:
        raise InvalidArgument("m_sub must divide the grid size")
    weights = None
    if window is not None:
        _kind(window, Window1DMinus, "window")
        weights = np.asarray(window(np.arange(m_sub + 1) / m_sub), dtype=float)
    grid = field if direction == "horizontal" else field.T
    values = _accumulate_columns(grid, M // m_sub, weights) / m_sub
    values.flags.writeable = False
    return values
