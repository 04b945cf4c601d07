"""Slow, literal reference evaluations that the fast library paths are
checked against, and the closed form of the projected density that
criterion 6 reads.  Not collected as tests (no ``test_`` prefix)."""

import numpy as np
from scipy.special import beta, betainc

from anisofield import (
    DIRECTIONS,
    DiscreteFilter,
    density,
    derived_stream,
    estimate_H,
    fbm_path,
    project_axis,
)
from anisofield import synthesis


def _fft_order_frequencies(M):
    """Frequency indices n in FFT storage order, covering -M+1..M.

    Index M holds the Nyquist term; n = +M and n = -M give identical
    complex exponentials on the half-integer grid, so the wrap is exact.
    """
    n = np.arange(2 * M)
    return np.where(n <= M, n, n - 2 * M)


def full_grid_amplitude(model, M):
    """Square root of the density evaluated at every point of the (2M)^2
    frequency grid pi * {-M+1..M}^2 in FFT order, zero at the origin."""
    xi = np.pi * _fft_order_frequencies(M).astype(float)
    pts = np.stack(np.broadcast_arrays(xi[:, None], xi[None, :]), axis=-1)
    flat = pts.reshape(-1, 2)
    nonzero = np.any(flat != 0.0, axis=1)
    vals = np.zeros(flat.shape[0])
    vals[nonzero] = density(model, flat[nonzero])
    return np.sqrt(vals).reshape(2 * M, 2 * M)


def shaped_noise_whole(model, M, seed):
    """The (2M) x (2M) shaped noise behind ``afb_sra``, in FFT order: all
    values drawn at once and multiplied by the full-grid amplitude."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2 * M, 2 * M, 2)).view(np.complex128)[..., 0]
    return z * full_grid_amplitude(model, M)


def projections_by_einsum(model, M, seed):
    """The projections of ``afb_sra(model, M, seed, projected=True)``, with
    the two line-sum reductions by ``einsum`` over the whole shaped draw,
    not by BLAS dots block by block."""
    z = shaped_noise_whole(model, M, seed)
    w = synthesis._line_sum_weights(M)
    sums = np.fft.fft(np.stack([np.einsum("ij,j->i", z, w), np.einsum("i,ij->j", w, z)]))
    return (np.pi / M) * sums[:, : M + 1].real - (M + 1) / M * (np.pi * z.real.sum())


def afb_sra_direct(model, M, seed):
    """The discretized spectral sum behind ``afb_sra``, term by term.

    Same noise draw and frequency grid as ``afb_sra``, but the double sum
    over n1, n2 in -M+1..M is evaluated literally at O(M^4) cost.  Returns
    the (real, imaginary) field values, each anchored at the origin.
    """
    weighted = shaped_noise_whole(model, M, seed)
    n = _fft_order_frequencies(M)
    k = np.arange(M + 1)
    phase = np.exp(-2j * np.pi * np.outer(n, k) / (2 * M))
    y = np.pi * np.einsum("ab,ak,bl->kl", weighted, phase, phase)
    return tuple(part - part[0, 0] for part in (y.real, y.imag))


def fgn_pair(H, n, seed):
    """The two independent exact fGn samples ``(real, imag)`` of one
    transform of the 1-d route, as contiguous arrays."""
    y = synthesis._fgn_transforms(H, n, [seed])[0]
    return np.ascontiguousarray(y.real), np.ascontiguousarray(y.imag)


def axis_projections(field):
    """The horizontal and the vertical projection of a field, as the rows
    of a (2, M+1) array: what ``afb_sra(..., projected=True)`` computes
    without the field."""
    return np.stack([project_axis(field, d) for d in DIRECTIONS])


def estimate_1d_per_pair(spec, cell, first, count):
    """What ``harness._estimate_1d`` returns for replicates first ..
    first+count-1, one pair and one path at a time: each pair from its own
    ``fbm_path`` call and each path of the block estimated on its own."""
    hurst, n_steps, coeffs, u, v, seed = spec
    filt = DiscreteFilter(coeffs)
    end = first + count
    out = []
    for pair in range(first // 2, (end + 1) // 2):
        paths = fbm_path(hurst, n_steps, derived_stream(seed, cell, pair))
        for rep in range(max(first, 2 * pair), min(2 * pair + 2, end)):
            out.append(estimate_H(paths[rep % 2], filt, u, v))
    return out


def _incomplete_beta(x, a, b):
    """B(x; a, b), the unregularized incomplete beta function."""
    return betainc(a, b, x) * beta(a, b)


def radon_indicator_exact(index, p):
    """The density's Radon transform over the grid footprint: the integral
    of ``density(index, (gamma, p))`` over gamma in [0, 1], in closed form.

    Substituting gamma = |p| tan(phi) turns each branch of the integrand
    into |p|^(-2h-1) cos^(2h)(phi), whose integral is an incomplete beta:
    h_v below the switch at gamma = |p| (phi = pi/4), h_h from there to
    gamma = 1 when |p| < 1.
    """
    p = abs(p)
    h_h, h_v = index.h_h, index.h_v
    total = p ** (-2 * h_v - 1) * 0.5 * _incomplete_beta(
        min(0.5, 1 / (1 + p * p)), 0.5, h_v + 0.5
    )
    if p < 1:
        total += p ** (-2 * h_h - 1) * 0.5 * (
            _incomplete_beta(0.5, h_h + 0.5, 0.5)
            - _incomplete_beta(p * p / (1 + p * p), h_h + 0.5, 0.5)
        )
    return total
