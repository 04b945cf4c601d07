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

import csv
from dataclasses import dataclass

import numpy as np

from .errors import WindowOutOfSupport
from .spectral import Window1DMinus
from .synthesis import GridField2D

__all__ = [
    "DIRECTIONS",
    "ProjectionResult",
    "project_axis",
    "project_window",
    "projection_to_csv",
]

DIRECTIONS = ("horizontal", "vertical")


@dataclass(frozen=True)
class ProjectionResult:
    """Projected values at k/M for k = 0..M along one grid axis."""

    values: np.ndarray
    direction: str
    window: Window1DMinus

    @property
    def grid_size(self) -> int:
        return self.values.size - 1

    @property
    def positions(self) -> np.ndarray:
        return np.arange(self.values.size) / self.grid_size


def _check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


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


def project_axis(field: GridField2D, direction: str) -> ProjectionResult:
    """Average the field over the orthogonal coordinate, divided by M.

    The sum runs over all M+1 grid lines but is normalized by M (the grid
    step count), so a constant field c projects to c * (M+1) / M.
    """
    _check_direction(direction)
    M = field.grid_size
    grid = field.values if direction == "horizontal" else field.values.T
    values = _accumulate_columns(grid) / M
    values.flags.writeable = False
    return ProjectionResult(
        values=values,
        direction=direction,
        window=Window1DMinus.indicator_unit(),
    )


def project_window(
    field: GridField2D,
    direction: str,
    window: Window1DMinus,
    m_sub: int | None = None,
) -> ProjectionResult:
    """Windowed projection with the hyperplane sum discretized at 1/m_sub.

    Grid lines at j/m_sub (j = 0..m_sub) are weighted by the window and
    summed, normalized by m_sub; m_sub must divide the grid size.  With the
    unit indicator window and m_sub = M this reproduces
    :func:`project_axis` exactly.  Windows with compact support must fit
    inside the grid footprint [0, 1]; the Gaussian profile is evaluated on
    [0, 1] only, i.e. truncated.
    """
    _check_direction(direction)
    M = field.grid_size
    if m_sub is None:
        m_sub = M
    if not 1 <= m_sub <= M:
        raise ValueError("m_sub must lie in 1..M")
    if M % m_sub != 0:
        raise ValueError("m_sub must divide the grid size")
    sup = window.support
    if sup is not None and (sup[0] < 0.0 or sup[1] > 1.0):
        raise WindowOutOfSupport(
            f"window support {sup} exceeds the grid footprint [0, 1]"
        )
    stride = M // m_sub
    weights = np.asarray(window(np.arange(m_sub + 1) / m_sub), dtype=float)
    grid = field.values if direction == "horizontal" else field.values.T
    values = _accumulate_columns(grid, stride, weights) / m_sub
    values.flags.writeable = False
    return ProjectionResult(values=values, direction=direction, window=window)


def projection_to_csv(result: ProjectionResult, path) -> None:
    """Two-column CSV export (position t, projected value)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "value"])
        M = result.grid_size
        for k, val in enumerate(result.values):
            writer.writerow([repr(k / M), repr(float(val))])
