"""Random generation: exact fractional Gaussian noise / fractional
Brownian motion in 1D, and approximate anisotropic fields in 2D.

The 1D route embeds the fGn autocovariance in a circulant matrix
(Davies-Harte / Dietrich-Newsam) whose FFT diagonalization gives an exact
Gaussian sample in O(n log n).  The 2D route discretizes the spectral
representation of the field: complex white noise is shaped by the square
root of the density on a (2M) x (2M) frequency grid and pushed through one
inverse-style FFT; the real and the imaginary part, each re-anchored at the
origin, are two independent fields on the (M+1) x (M+1) unit grid.

The 1D route yields a pair as well: the real and the imaginary part of its
transform are two independent exact fGn samples.

All generators are pure functions of (parameters, seed).  Seeds go through
numpy's SeedSequence / PCG64 machinery and a Monte Carlo batch spawns one
stream per transform, so output never depends on scheduling and is stable
when the replicate count changes.  The evaluation harness takes a 2D
replicate i from stream (c, i), using the real field, and a 1D replicate i
from stream (c, floor(i/2)), using the real path for even i and the
imaginary path for odd i.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as sp_fft

from .errors import EmbeddingNotPSD, MalformedFieldFile, PathTooShort
from .spectral import SpectralModel, density

__all__ = [
    "SampledPath",
    "GridField2D",
    "derived_stream",
    "fgn_autocovariance",
    "fgn_exact",
    "fbm_path",
    "afb_sra",
    "write_field",
    "read_field",
    "field_to_csv",
    "write_path_csv",
    "read_path_csv",
]

# Eigenvalues of the embedding below -_CLAMP_REL * max are treated as
# float noise and clamped; anything more negative triggers a doubling.
_CLAMP_REL = 1e-8
_MAX_DOUBLINGS = 2

_NO_SEED = 0xFFFFFFFFFFFFFFFF  # header sentinel for "seed unknown"


@dataclass(frozen=True)
class SampledPath:
    """Process values at k/N for k = 0..N, plus optional ground truth."""

    values: np.ndarray
    hurst_true: float | None = None

    @property
    def n_steps(self) -> int:
        return self.values.size - 1

    @property
    def step(self) -> float:
        return 1.0 / self.n_steps


@dataclass(frozen=True)
class GridField2D:
    """(M+1) x (M+1) samples of a field on the unit grid {(k1/M, k2/M)}."""

    values: np.ndarray
    params_true: tuple[float, float] | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("field values must be a square matrix")

    @property
    def grid_size(self) -> int:
        return self.values.shape[0] - 1


def derived_stream(base_seed: int, *key: int) -> np.random.SeedSequence:
    """Child stream for one replicate; stable under growing batch sizes."""
    return np.random.SeedSequence(base_seed, spawn_key=tuple(key))


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
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
    fGn embeddings are nonnegative definite in theory; tiny negative
    eigenvalues are clamped and real failures retried on a doubled grid.
    """
    size = n
    for _ in range(_MAX_DOUBLINGS + 1):
        r = fgn_autocovariance(H, np.arange(size))
        row = np.concatenate([r, r[size - 2 : 0 : -1]])
        lam = np.fft.fft(row).real
        top = lam.max()
        floor = lam.min()
        if floor >= -_CLAMP_REL * top:
            lam = np.maximum(lam, 0.0)
            out = np.sqrt(lam / lam.size)
            out.flags.writeable = False
            return out
        size = 2 * size - 1  # doubles the embedding size 2(size-1)
    raise EmbeddingNotPSD(
        f"negative embedding eigenvalues persist for H={H} after "
        f"{_MAX_DOUBLINGS} doublings"
    )


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
    spectrum = np.fft.fft(amp * z)[:n]
    return np.ascontiguousarray(spectrum.real), np.ascontiguousarray(spectrum.imag)


def _fbm_from_fgn(fgn: np.ndarray, H: float) -> SampledPath:
    N = fgn.size
    values = np.empty(N + 1)
    values[0] = 0.0
    np.cumsum(fgn, out=values[1:])
    values[1:] *= float(N) ** (-H)
    values.flags.writeable = False
    return SampledPath(values=values, hurst_true=float(H))


def fbm_path(H: float, N: int, seed) -> tuple[SampledPath, SampledPath]:
    """Two independent fractional Brownian motions sampled at k/N,
    k = 0..N, with X(0) = 0: the paths of the real and of the imaginary
    fGn sample of :func:`fgn_exact`.

    Cumulative sums of exact fGn scaled by N^{-H}, so Var X(k/N) = (k/N)^2H
    holds in law exactly.
    """
    real, imag = fgn_exact(H, N, seed)
    return _fbm_from_fgn(real, H), _fbm_from_fgn(imag, H)


@lru_cache(maxsize=1)
def _sra_amplitude(model: SpectralModel, M: int) -> np.ndarray:
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
    quadrant.flat[1:] = density(model, pts.reshape(-1, 2)[1:])
    np.sqrt(quadrant, out=quadrant)
    quadrant.flags.writeable = False
    return quadrant


def _shape_noise(z: np.ndarray, quadrant: np.ndarray) -> None:
    """Multiply the (2M) x (2M) noise z in place by the amplitude of each
    frequency, in FFT storage order.

    Rows and columns 0..M of z hold the frequencies 0..M and take the
    quadrant's rows and columns as they are; rows and columns M+1..2M-1
    hold -M+1..-1 and take the quadrant's M-1..1 mirrored.  The products
    are those of a multiply by the full (2M) x (2M) table.
    """
    M = quadrant.shape[0] - 1
    head, tail = slice(0, M + 1), slice(M + 1, None)
    mirrored = slice(M - 1, 0, -1)
    z[head, head] *= quadrant
    z[head, tail] *= quadrant[:, mirrored]
    z[tail, head] *= quadrant[mirrored]
    z[tail, tail] *= quadrant[mirrored, mirrored]


def _field_params(model: SpectralModel) -> tuple[float, float]:
    return (model.index.h_h, model.index.h_v)


def _power_of_two(M: int) -> bool:
    return M >= 2 and (M & (M - 1)) == 0


def _anchored(block: np.ndarray, model: SpectralModel, seed) -> GridField2D:
    values = block - block[0, 0]
    values[0, 0] = 0.0
    values.flags.writeable = False
    return GridField2D(
        values=values,
        params_true=_field_params(model),
        seed=seed if isinstance(seed, int) else None,
    )


def afb_sra(model: SpectralModel, M: int, seed) -> tuple[GridField2D, GridField2D]:
    """Two independent approximate anisotropic fractional Brownian fields.

    Shapes (2M)^2 complex white-noise draws by the density square root on
    the frequency grid pi * {-M+1..M}^2 and evaluates the discretized
    spectral sum by one 2M x 2M FFT, in O(M^2 log M).  Only the (M+1)^2
    outputs on the unit grid are needed, so the transform runs along axis
    1, keeps M+1 columns, then runs along axis 0 and keeps M+1 rows.

    Returns ``(real_field, imag_field)``: the real and the imaginary part
    of the sum, each anchored so that its origin value is exactly zero.
    For circular complex noise the two parts are Gaussian with the same
    covariance, sum_n g(n)^2 cos(theta_n(k - k')), and their
    cross-covariance is sum_n g(n)^2 sin(theta_n(k - k')).  That sum
    vanishes because g is even in each coordinate: the terms n and -n
    cancel, and on the Nyquist row n_1 = M, which has no mirror, the terms
    (M, n_2) and (M, -n_2) cancel instead (likewise on the Nyquist column
    n_2 = M).  So the two fields are independent with the same law.  The
    overall amplitude carries an arbitrary calibration; every downstream
    estimator is invariant under global scaling.
    """
    if model.dim != 2:
        raise ValueError("field synthesis requires a 2-d model")
    if not _power_of_two(M) or M < 4:
        raise ValueError("grid size must be a power of two >= 4")
    # The table first: its temporaries and the noise then do not coexist.
    quadrant = _sra_amplitude(model, int(M))
    z = _draw_complex_noise(_rng(seed), (2 * M, 2 * M))
    _shape_noise(z, quadrant)
    y = sp_fft.fft(z, axis=1, overwrite_x=True)[:, : M + 1]
    y = sp_fft.fft(y, axis=0, overwrite_x=True)[: M + 1]
    y *= np.pi
    return _anchored(y.real, model, seed), _anchored(y.imag, model, seed)


# --- field file format ------------------------------------------------------
#
# Binary header: magic "AFB1", u32 grid size M, f64 h_h, f64 h_v, u64 seed,
# all little-endian, followed by row-major f64 field values.

_HEADER = struct.Struct("<4sIddQ")


def write_field(field: GridField2D, path) -> None:
    """Serialize a field to the AFB1 binary format.

    The header holds a seed in 0..2^64-2; 2^64-1 marks an unknown seed.
    """
    if field.seed is not None and not 0 <= field.seed < _NO_SEED:
        raise ValueError(
            f"seed {field.seed} is outside 0..2^64-2, the range a field file holds"
        )
    if field.params_true is not None:
        h_h, h_v = field.params_true
    else:
        h_h = h_v = float("nan")
    seed = field.seed if field.seed is not None else _NO_SEED
    header = _HEADER.pack(b"AFB1", field.grid_size, h_h, h_v, seed)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field(path) -> GridField2D:
    """Read a field written by :func:`write_field`.

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
    return GridField2D(
        values=values,
        params_true=params,
        seed=None if seed == _NO_SEED else int(seed),
    )


def field_to_csv(field: GridField2D, path) -> None:
    """Plain CSV dump of the field values, for debugging."""
    np.savetxt(path, field.values, delimiter=",", fmt="%.17g")


def write_path_csv(path_obj: SampledPath, path, seed: int | None = None) -> None:
    """Two-column CSV (t, value) with ground truth carried in comments.

    The positions t = k/N need N >= 1, so the path must hold two or more
    values.
    """
    n = path_obj.n_steps
    if n < 1:
        raise PathTooShort(
            f"a path CSV needs at least two values, got {path_obj.values.size}"
        )
    with open(path, "w", newline="") as fh:
        if path_obj.hurst_true is not None:
            fh.write(f"# hurst = {path_obj.hurst_true!r}\n")
        if seed is not None:
            fh.write(f"# seed = {seed}\n")
        fh.write("t,value\n")
        for k, val in enumerate(path_obj.values):
            fh.write(f"{k / n!r},{float(val)!r}\n")


def read_path_csv(path) -> tuple[SampledPath, int | None]:
    """Read a path written by :func:`write_path_csv`; returns (path, seed)."""
    hurst = None
    seed = None
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line.lstrip("#").partition("=")
                key = key.strip().lower()
                if key == "hurst":
                    hurst = float(val)
                elif key == "seed":
                    seed = int(val)
                continue
            if line.lower().startswith("t,"):
                continue
            values.append(float(line.split(",")[-1]))
    arr = np.asarray(values)
    arr.flags.writeable = False
    return SampledPath(values=arr, hurst_true=hurst), seed
