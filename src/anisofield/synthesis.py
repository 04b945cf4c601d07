"""Random generation: exact fractional Gaussian noise / fractional
Brownian motion in 1D, and approximate anisotropic fields in 2D.

The 1D route embeds the fGn autocovariance in a circulant matrix
(Davies-Harte / Dietrich-Newsam) whose FFT diagonalization gives an exact
Gaussian sample in O(n log n).  The 2D route discretizes the spectral
representation of the field: complex white noise is shaped by the square
root of the density on a (2M) x (2M) frequency grid and pushed through one
inverse-style FFT; the real and the imaginary part, each re-anchored at the
origin, are two independent fields on the (M+1) x (M+1) unit grid.  The
real field's two axis projections come from the same noise without the
field: two weighted reductions and two 1-d FFTs of length 2M.  Both
outputs read one stream of row blocks of the shaped noise, so neither
holds the whole (2M) x (2M) draw.

The 1D route yields a pair as well: the real and the imaginary part of its
transform are two independent exact fGn samples.

All generators are pure functions of (parameters, seed).  Seeds go through
numpy's SeedSequence / PCG64 machinery and a Monte Carlo batch spawns one
stream per transform, so output never depends on scheduling and is stable
when the replicate count changes.
"""

from __future__ import annotations

import struct
from functools import lru_cache

import numpy as np
from scipy import fft as sp_fft

from .errors import (
    EmbeddingNotPSD,
    MalformedFieldFile,
    MalformedPathFile,
    PathTooShort,
)
from .spectral import AnisotropicIndex, density

__all__ = [
    "derived_stream",
    "fgn_autocovariance",
    "fgn_exact",
    "fbm_path",
    "afb_sra",
    "check_grid",
    "write_field",
    "read_field",
    "field_to_csv",
    "write_path_csv",
    "read_path_csv",
]

# Eigenvalues of the embedding down to -_CLAMP_REL * max are float noise
# and clamped to zero; anything more negative raises EmbeddingNotPSD.
_CLAMP_REL = 1e-8

_NO_SEED = 0xFFFFFFFFFFFFFFFF  # header sentinel for "seed unknown"

# Complex noise values drawn and shaped at a time for either 2-d output
# (0.5 MB): whole rows, all 2M of them up to M = 64.
_NOISE_BLOCK = 2**15


def derived_stream(base_seed: int, *key: int) -> np.random.SeedSequence:
    """Child stream for one replicate; stable under growing batch sizes."""
    return np.random.SeedSequence(base_seed, spawn_key=tuple(key))


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, int) and seed < 0:
        raise ValueError(f"seed {seed} is negative; a seed is an integer >= 0")
    return np.random.default_rng(seed)


def _draw_complex_noise(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """I.i.d. complex normals of the given shape, unit variance per component."""
    return rng.standard_normal((*shape, 2)).view(np.complex128)[..., 0]


def fgn_autocovariance(H: float, lags) -> np.ndarray:
    """Autocovariance of unit-step fGn: (|k+1|^2H - 2|k|^2H + |k-1|^2H)/2."""
    k = np.asarray(lags, dtype=float)
    two_h = 2.0 * H
    return 0.5 * (
        np.abs(k + 1.0) ** two_h
        - 2.0 * np.abs(k) ** two_h
        + np.abs(k - 1.0) ** two_h
    )


@lru_cache(maxsize=32)
def _embedding_sqrt(H: float, n: int) -> np.ndarray:
    """sqrt(eigenvalues / m) of the circulant embedding for n fGn values.

    The first row periodizes the autocovariance over m = 2(n-1) points.
    This minimal embedding of fGn is nonnegative definite for every H in
    (0, 1) (Dietrich & Newsam 1997; Craigmile 2003), so the eigenvalues
    are computed once: negative ones down to -_CLAMP_REL of the largest
    are rounding and clamped to zero, and anything below raises
    EmbeddingNotPSD.
    """
    r = fgn_autocovariance(H, np.arange(n))
    lam = np.fft.fft(np.concatenate([r, r[n - 2 : 0 : -1]])).real
    if lam.min() < -_CLAMP_REL * lam.max():
        raise EmbeddingNotPSD(
            f"the circulant embedding of {n} fGn values at H={H} has "
            f"eigenvalue {lam.min():.3g} against a largest of {lam.max():.3g}"
        )
    out = np.sqrt(np.maximum(lam, 0.0) / lam.size)
    out.flags.writeable = False
    return out


def fgn_exact(H: float, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Two independent exact samples of n stationary fractional Gaussian
    noise increments, ``(real, imag)``, from one transform.

    Complex white noise w = a + ib (a, b independent standard normal
    vectors) is shaped by the square roots of the circulant embedding's
    eigenvalues and transformed, y = F diag(amp) w.  Then E[y y^H] = 2C,
    where C is the embedded circulant covariance, and E[y y^T] = 0 because
    E[w w^T] = E[a a^T] - E[b b^T] = 0.  Hence Re y and Im y each have
    covariance Re C, and their cross-covariance is (C-bar - C)/2i.  The
    eigenvalues are real and even, so C is real: each part has covariance C,
    whose leading n x n block is exactly the fGn autocovariance, and the
    cross-covariance vanishes.  Jointly Gaussian and uncorrelated, the two
    parts are independent.
    """
    if not 0.0 < H < 1.0:
        raise ValueError("H must lie in (0, 1)")
    if n < 2:
        raise ValueError("need n >= 2 samples")
    amp = _embedding_sqrt(float(H), int(n))
    z = _draw_complex_noise(_rng(seed), amp.shape)
    z *= amp  # in place: no temporary of the embedding's size
    spectrum = np.fft.fft(z)[:n]
    return np.ascontiguousarray(spectrum.real), np.ascontiguousarray(spectrum.imag)


def _fbm_from_fgn(fgn: np.ndarray, H: float) -> np.ndarray:
    N = fgn.size
    values = np.empty(N + 1)
    values[0] = 0.0
    np.cumsum(fgn, out=values[1:])
    values[1:] *= float(N) ** (-H)
    values.flags.writeable = False
    return values


def fbm_path(H: float, N: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Two independent fractional Brownian motions sampled at k/N,
    k = 0..N, with X(0) = 0: the paths of the real and of the imaginary
    fGn sample of :func:`fgn_exact`, as read-only arrays of N + 1 values.

    Cumulative sums of exact fGn scaled by N^{-H}, so Var X(k/N) = (k/N)^2H
    holds in law exactly.
    """
    real, imag = fgn_exact(H, N, seed)
    return _fbm_from_fgn(real, H), _fbm_from_fgn(imag, H)


@lru_cache(maxsize=1)
def _sra_amplitude(index: AnisotropicIndex, M: int) -> np.ndarray:
    """Square root of the density on the frequency quadrant pi * {0..M}^2,
    zero at the origin.

    The density depends on |xi_1| and |xi_2| only, so the quadrant holds
    every amplitude of the (2M) x (2M) frequency grid pi * {-M+1..M}^2:
    frequency (n_1, n_2) takes entry (|n_1|, |n_2|) (see _shape_noise).
    Only the latest table is kept: runs synthesize one cell at a time, and
    at M = 512 a table takes 2 MB.
    """
    xi = np.pi * np.arange(M + 1, dtype=float)
    pts = np.stack(np.broadcast_arrays(xi[:, None], xi[None, :]), axis=-1)
    quadrant = np.zeros((M + 1, M + 1))
    quadrant.flat[1:] = density(index, pts.reshape(-1, 2)[1:])
    np.sqrt(quadrant, out=quadrant)
    quadrant.flags.writeable = False
    return quadrant


def _shape_noise(z: np.ndarray, quadrant: np.ndarray, first: int = 0) -> None:
    """Multiply rows first, first+1, ... of the (2M) x (2M) noise, held in
    z, in place by the amplitude of each frequency, in FFT storage order.

    Rows and columns 0..M hold the frequencies 0..M and take the
    quadrant's rows and columns as they are; rows and columns M+1..2M-1
    hold -M+1..-1 and take the quadrant's M-1..1 mirrored.  The products
    are those of a multiply by the full (2M) x (2M) table.
    """
    M = quadrant.shape[0] - 1
    split = min(max(M + 1 - first, 0), len(z))  # rows of z that are in 0..M
    head = quadrant[first : first + split]
    tail = quadrant[2 * M - first - split : 2 * M - first - len(z) : -1]
    for rows, amplitude in ((z[:split], head), (z[split:], tail)):
        rows[:, : M + 1] *= amplitude
        rows[:, M + 1 :] *= amplitude[:, M - 1 : 0 : -1]


def _shaped_noise(rng: np.random.Generator, quadrant: np.ndarray):
    """Yield ``(first, z)``: the rows first, first+1, ... of the shaped
    (2M) x (2M) noise, drawn and shaped in blocks of about _NOISE_BLOCK
    values.

    The rows are the same numbers as one draw of all 2M rows.  The block
    is dropped before the next one is drawn, and a consumer drops its
    reference at the end of its loop body, so at most one block is alive.
    """
    M = quadrant.shape[0] - 1
    block = min(max(_NOISE_BLOCK // (2 * M), 1), 2 * M)
    for first in range(0, 2 * M, block):
        z = _draw_complex_noise(rng, (block, 2 * M))
        _shape_noise(z, quadrant, first)
        yield first, z
        del z


def check_grid(M: int) -> None:
    """Reject a grid size that field synthesis cannot use."""
    if M < 4 or M & (M - 1):
        raise ValueError("grid size must be a power of two >= 4")


def _anchored(block: np.ndarray) -> np.ndarray:
    values = block - block[0, 0]
    values[0, 0] = 0.0
    values.flags.writeable = False
    return values


@lru_cache(maxsize=1)
def _line_sum_weights(M: int) -> np.ndarray:
    """w(n) = sum_{k=0..M} exp(-i pi n k / M) for n = 0..2M-1, read-only.

    The transform of the indicator of 0..M on 2M points, in closed form:
    M + 1 at n = 0, 1 at every other even n and -i cot(pi n / 2M) at odd n.
    """
    w = np.ones(2 * M, dtype=complex)
    w[0] = M + 1
    odd = np.arange(1, 2 * M, 2)
    w[odd] = -1j / np.tan(np.pi * odd / (2 * M))
    w.flags.writeable = False
    return w


def _projections_of_spectrum(blocks, M: int) -> np.ndarray:
    """The horizontal and the vertical projection of the real field of
    :func:`afb_sra`, as a read-only (2, M+1) array, from the row blocks of
    its shaped noise.

    Summing the spectral sum over k_2 = 0..M replaces the k_2 transform by
    the weights w, so the horizontal line sums are pi * FFT(z w) for the
    shaped noise z; the vertical ones are pi * FFT(w z).  Anchoring
    subtracts the origin value F_00 = pi Re sum(z) from each of the M + 1
    points of a line, and the projection divides by M.

    Each block is reduced as it arrives.  The reductions run through
    einsum, not a matrix product: a threaded BLAS would compete with the
    other workers of a run for the CPUs.
    """
    w = _line_sum_weights(M)
    rows = np.empty(2 * M, dtype=complex)
    cols = np.zeros(2 * M, dtype=complex)
    total = 0.0
    for first, z in blocks:
        rows[first : first + len(z)] = np.einsum("ij,j->i", z, w)
        cols += np.einsum("i,ij->j", w[first : first + len(z)], z)
        total += z.real.sum()
        del z
    sums = sp_fft.fft(np.stack([rows, cols]), axis=1, overwrite_x=True)
    values = (np.pi / M) * sums[:, : M + 1].real - (M + 1) / M * (np.pi * total)
    values.flags.writeable = False
    return values


def afb_sra(index: AnisotropicIndex, M: int, seed, *, projected: bool = False):
    """Two independent approximate anisotropic fractional Brownian fields,
    or the two axis projections of the first.

    Shapes (2M)^2 complex white-noise draws by the density square root on
    the frequency grid pi * {-M+1..M}^2 and evaluates the discretized
    spectral sum by one 2M x 2M FFT, in O(M^2 log M).  Only the (M+1)^2
    outputs on the unit grid are needed, so each row block of the shaped
    noise is transformed along axis 1 and keeps M+1 columns; the axis-0
    transform then runs once over the (2M) x (M+1) result and keeps M+1
    rows.

    Returns ``(real_field, imag_field)``: the real and the imaginary part
    of the sum as read-only (M+1) x (M+1) arrays, entry (k1, k2) at
    (k1/M, k2/M), each anchored so that its origin value is exactly zero.
    For circular complex noise the two parts are Gaussian with the same
    covariance, sum_n g(n)^2 cos(theta_n(k - k')), and their
    cross-covariance is sum_n g(n)^2 sin(theta_n(k - k')).  That sum
    vanishes because g is even in each coordinate: the terms n and -n
    cancel, and on the Nyquist row n_1 = M, which has no mirror, the terms
    (M, n_2) and (M, -n_2) cancel instead (likewise on the Nyquist column
    n_2 = M).  So the two fields are independent with the same law.  The
    overall amplitude carries an arbitrary calibration; every downstream
    estimator is invariant under global scaling.

    With ``projected=True`` the same noise gives the read-only (2, M+1)
    array that ``axis_projections`` makes of the real field, computed by
    two weighted reductions of the shaped noise and two 2M-point FFTs,
    with no field built.  It agrees with that pipeline to rounding (about
    1e-15 of the largest value), not bit for bit.
    """
    check_grid(M)
    # The table first: its temporaries and the noise then do not coexist.
    quadrant = _sra_amplitude(index, int(M))
    blocks = _shaped_noise(_rng(seed), quadrant)
    if projected:
        return _projections_of_spectrum(blocks, M)
    y = np.empty((2 * M, M + 1), dtype=complex)
    for first, z in blocks:
        y[first : first + len(z)] = sp_fft.fft(z, axis=1, overwrite_x=True)[:, : M + 1]
        del z
    y = sp_fft.fft(y, axis=0, overwrite_x=True)[: M + 1]
    y *= np.pi
    return _anchored(y.real), _anchored(y.imag)


# --- field file format ------------------------------------------------------
#
# Binary header: magic "AFB1", u32 grid size M, f64 h_h, f64 h_v, u64 seed,
# all little-endian, followed by row-major f64 field values.

_HEADER = struct.Struct("<4sIddQ")


def write_field(values: np.ndarray, path, params=None, seed=None) -> None:
    """Serialize a square field to the AFB1 binary format, with its true
    ``(h_h, h_v)`` and seed when known.

    The header holds a seed in 0..2^64-2; 2^64-1 marks an unknown seed.
    """
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("field values must be a square matrix")
    if seed is not None and not 0 <= seed < _NO_SEED:
        raise ValueError(
            f"seed {seed} is outside 0..2^64-2, the range a field file holds"
        )
    h_h, h_v = params if params is not None else (float("nan"),) * 2
    seed = seed if seed is not None else _NO_SEED
    header = _HEADER.pack(b"AFB1", values.shape[0] - 1, h_h, h_v, seed)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_field(path) -> tuple[np.ndarray, tuple[float, float] | None, int | None]:
    """Read a field written by :func:`write_field`; returns the read-only
    values, the true ``(h_h, h_v)`` and the seed, each None if unknown.

    Raises MalformedFieldFile unless the file is exactly one AFB1 header
    followed by the (M+1)^2 values its grid size M calls for.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"AFB1":
        raise MalformedFieldFile(f"{path}: not an AFB1 field file")
    if len(raw) < _HEADER.size:
        raise MalformedFieldFile(
            f"{path}: {len(raw)} bytes, shorter than the {_HEADER.size}-byte header"
        )
    _, M, h_h, h_v, seed = _HEADER.unpack_from(raw)
    expected = _HEADER.size + 8 * (M + 1) ** 2
    if len(raw) != expected:
        raise MalformedFieldFile(
            f"{path}: header grid size M={M} needs {expected} bytes, "
            f"file has {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    values = values.reshape(M + 1, M + 1).copy()
    values.flags.writeable = False
    params = None if np.isnan(h_h) or np.isnan(h_v) else (h_h, h_v)
    return values, params, None if seed == _NO_SEED else int(seed)


def field_to_csv(values: np.ndarray, path) -> None:
    """Plain CSV dump of the field values, for debugging."""
    np.savetxt(path, values, delimiter=",", fmt="%.17g")


def write_path_csv(values: np.ndarray, path, hurst=None, seed=None) -> None:
    """Two-column CSV (t, value) of a series at t = k/N, k = 0..N, with the
    true Hurst index and the seed, when known, in comments.

    The positions need N >= 1, so the series must hold two or more values.
    """
    n = values.size - 1
    if n < 1:
        raise PathTooShort(
            f"a path CSV needs at least two values, got {values.size}"
        )
    with open(path, "w", newline="") as fh:
        if hurst is not None:
            fh.write(f"# hurst = {float(hurst)!r}\n")
        if seed is not None:
            fh.write(f"# seed = {seed}\n")
        fh.write("t,value\n")
        for k, val in enumerate(values):
            fh.write(f"{k / n!r},{float(val)!r}\n")


def read_path_csv(path) -> tuple[np.ndarray, float | None, int | None]:
    """Read a path written by :func:`write_path_csv`; returns the read-only
    values, the true Hurst index and the seed, each None if unknown.

    Raises MalformedPathFile, naming the file and the line, at a row that
    is not two numbers t,value or at a ``# hurst`` or ``# seed`` comment
    whose value does not parse.
    """
    hurst = None
    seed = None
    values = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            if line.startswith("#"):
                key, _, val = line.lstrip("#").partition("=")
                key = key.strip().lower()
                try:
                    if key == "hurst":
                        hurst = float(val)
                    elif key == "seed":
                        seed = int(val)
                except ValueError:
                    raise MalformedPathFile(
                        f"{where}: {key} comment {line!r} does not parse"
                    ) from None
                continue
            cells = [cell.strip() for cell in line.split(",")]
            if len(cells) != 2:
                raise MalformedPathFile(
                    f"{where}: expected two columns t,value, found {len(cells)}"
                )
            if [cell.lower() for cell in cells] == ["t", "value"]:
                continue
            try:
                _, value = map(float, cells)
            except ValueError:
                raise MalformedPathFile(
                    f"{where}: row {line!r} is not two numbers t,value"
                ) from None
            values.append(value)
    arr = np.asarray(values)
    arr.flags.writeable = False
    return arr, hurst, seed
