"""Slow, literal reference evaluations that the fast library paths are
checked against.  Not collected as tests (no ``test_`` prefix)."""

import numpy as np

from anisofield import density


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
