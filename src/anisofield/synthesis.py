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
transform are two independent exact fGn samples.  It also takes a batch of
seeds: each seed's noise is one row of one array, and the rows are shaped,
transformed and summed together, each bit for bit as its seed alone.

Every transform is numpy's FFT (``numpy.fft``, 2.0 or newer), run in place
through its ``out`` argument: a 1D batch's noise is drawn, shaped and
transformed in one array, and so is each 2D row block.

All generators are pure functions of (parameters, seed).  Seeds go through
numpy's SeedSequence / PCG64 machinery and a Monte Carlo batch spawns one
stream per transform, so output never depends on scheduling and is stable
when the replicate count changes.
"""

from __future__ import annotations

import contextlib
import csv
import operator
import struct
import sys
from functools import lru_cache

import numpy as np

from .errors import EmbeddingNotPSD, InvalidArgument, _integer, _kind, _real, _reals, _seed
from .spectral import AnisotropicIndex, density

__all__ = [
    "derived_stream",
    "fgn_autocovariance",
    "fbm_path",
    "afb_sra",
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
# (0.5 MB): whole rows, all 2M of them up to M = 64.  A quarter of it is
# about the frequencies per row chunk of the amplitude table's build.
_NOISE_BLOCK = 2**15


def derived_stream(base_seed: int, *key: int) -> np.random.SeedSequence:
    """Child stream for one replicate; stable under growing batch sizes.

    The base seed and each key are integers >= 0; an InvalidArgument
    names any other.
    """
    return np.random.SeedSequence(_seed(base_seed), spawn_key=tuple(map(_stream_key, key)))


def _stream_key(value) -> int:
    key = _integer(value, f"stream key = {value!r}")
    if key < 0:
        raise InvalidArgument(f"stream key = {key} must be >= 0")
    return key


def _rng(seed) -> np.random.Generator:
    """The generator of ``seed``: an integer >= 0, a list of them (one
    seed's entropy) or a SeedSequence; an InvalidArgument naming any
    other."""
    try:
        operator.index(seed)
    except TypeError:
        pass
    else:
        # an integer-like seed, a bool included, takes the one seed rule
        seed = _seed(seed)
    try:
        # numpy would read a bool in a list as an integer of the entropy
        if isinstance(seed, (list, tuple)) and any(isinstance(s, bool) for s in seed):
            raise TypeError
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise InvalidArgument(
            f"seed {seed!r} is not an integer >= 0, a list of them or a SeedSequence"
        ) from None


def _draw_complex_noise(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """I.i.d. complex normals of the given shape, unit variance per component,
    in one contiguous array that a transform can overwrite.

    The normals fill the real and imaginary parts in storage order, so the
    values are those of ``rng.standard_normal((*shape, 2))`` read as complex.
    """
    z = np.empty(shape, dtype=np.complex128)
    rng.standard_normal(out=z.view(np.float64))
    return z


def fgn_autocovariance(H: float, lags) -> np.ndarray:
    """Autocovariance of unit-step fGn: (|k+1|^2H - 2|k|^2H + |k-1|^2H)/2."""
    k = np.asarray(_reals(lags, "lags"), dtype=float)
    two_h = 2.0 * _real(H, "H =")
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


def _fgn_transforms(H: float, n: int, seeds: list) -> np.ndarray:
    """The first n values of the transforms whose real and imaginary parts
    are two independent exact samples of n stationary fractional Gaussian
    noise increments, one row per seed, as a view of the whole
    (len(seeds), m) array.

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

    The noise of each seed is drawn into its own row, and the rows are
    shaped by one multiply and transformed by one FFT along the rows, in
    place: a row equals the transform of its seed alone bit for bit, and
    a batch allocates one array of its embeddings' size.
    """
    n = _integer(n, f"n = {n!r} samples")
    _real(H, "H =")
    if not 0.0 < H < 1.0:
        raise InvalidArgument("H must lie in (0, 1)")
    if n < 2:
        raise InvalidArgument("need n >= 2 samples")
    if not seeds:
        raise InvalidArgument("need at least one seed")
    amp = _embedding_sqrt(float(H), n)
    z = np.empty((len(seeds), amp.size), dtype=np.complex128)
    for row, seed in zip(z, seeds):
        _rng(seed).standard_normal(out=row.view(np.float64))
    z *= amp
    np.fft.fft(z, axis=1, out=z)
    return z[:, :n]


def fbm_path(H: float, N: int, seed):
    """Two independent fractional Brownian motions sampled at k/N,
    k = 0..N, with X(0) = 0: the paths of the real and of the imaginary
    fGn sample of one transform (see _fgn_transforms), as read-only arrays
    of N + 1 values.

    Cumulative sums of exact fGn scaled by N^{-H}, so Var X(k/N) = (k/N)^2H
    holds in law exactly.

    ``seed`` may also be a list of SeedSequences (see
    :func:`derived_stream`), a batch: then the result is one read-only
    (len(seed), 2, N + 1) array whose entry j holds, bit for bit, the two
    paths of ``fbm_path(H, N, seed[j])``.  The batch's transforms run as
    one, which is the cheaper route to many pairs.
    """
    batch = isinstance(seed, list) and all(
        isinstance(s, np.random.SeedSequence) for s in seed
    )
    y = _fgn_transforms(H, N, seed if batch else [seed])
    values = np.empty((len(y), 2, y.shape[1] + 1))
    values[:, :, 0] = 0.0
    # one sequential sum per part, as for each path alone
    np.cumsum(y.real, axis=1, out=values[:, 0, 1:])
    np.cumsum(y.imag, axis=1, out=values[:, 1, 1:])
    values[:, :, 1:] *= float(N) ** (-H)
    values.flags.writeable = False
    return values if batch else tuple(values[0])


# The one cached amplitude table, keyed by (index, M); see _sra_amplitude.
_AMPLITUDE: dict = {}


def _sra_amplitude(index: AnisotropicIndex, M: int) -> np.ndarray:
    """Square root of the density at the frequencies pi * (n_1, n_2),
    n_1, n_2 = 0..M, as a read-only (M+1) x (M+1) table, zero at the
    origin.

    The density depends on |xi_1| and |xi_2| only, so this quadrant holds
    every amplitude of the (2M) x (2M) grid: frequency (n_1, n_2) takes
    entry (|n_1|, |n_2|), and _shape_noise reads the mirrored rows and
    columns through reversed views.

    The rows are filled a chunk of about _NOISE_BLOCK / 4 points at a time
    (15 rows at M = 512, one chunk up to M = 64), so no grid of every
    point and none of the density's temporaries at that size exist, and
    the build peaks below synthesis.  Only one table is kept: runs
    synthesize one cell at a time, and at M = 512 a table takes 2 MB.  A
    call for another (index, M) drops the cached table before it builds
    the new one.
    """
    key = (index, M)
    if key in _AMPLITUDE:
        return _AMPLITUDE[key]
    _AMPLITUDE.clear()
    xi = np.pi * np.arange(M + 1, dtype=float)
    table = np.empty((M + 1, M + 1))
    rows = max(_NOISE_BLOCK // 4 // (M + 1), 1)
    for first in range(0, M + 1, rows):
        pts = np.empty((min(rows, M + 1 - first), M + 1, 2))
        pts[..., 0] = xi[first : first + len(pts), None]
        pts[..., 1] = xi
        if first == 0:
            pts[0, 0] = xi[1]  # stands in for the singular origin, zeroed below
        table[first : first + len(pts)] = density(index, pts)
        del pts
    np.sqrt(table, out=table)
    table[0, 0] = 0.0
    table.flags.writeable = False
    _AMPLITUDE[key] = table
    return table


def _shape_noise(z: np.ndarray, table: np.ndarray, first: int = 0) -> None:
    """Multiply rows first, first+1, ... of the (2M) x (2M) noise, held in
    z, in place by the amplitude of each frequency, in FFT storage order.

    Rows 0..M hold the frequencies 0..M and take the quadrant's rows as
    they are; rows M+1..2M-1 hold -M+1..-1 and take its rows M-1..1.
    Within a row, columns 0..M take the quadrant row and columns
    M+1..2M-1 the view of its entries M-1..1, so no copy of the mirror is
    made.  Each is one complex multiply, so the products are those of a
    multiply by the full (2M) x (2M) table, bit for bit, signed zeros at
    the zero-amplitude origin included.
    """
    M = len(table) - 1
    split = min(max(M + 1 - first, 0), len(z))  # rows of z that are in 0..M
    groups = (
        (z[:split], table[first : first + split]),
        (z[split:], table[2 * M - first - split : 2 * M - first - len(z) : -1]),
    )
    # numpy casts the amplitudes to complex through its ufunc buffers, and
    # with the default size of 8192 values it copies these strided rows
    # through them too, to lengthen its inner loop; with one row's worth
    # the buffers take a few KB and the multiply runs on the rows in
    # place.  Leaving the errstate context restores the buffer size.
    with np.errstate():
        np.setbufsize(16 * (M // 16 + 1))
        for part, rows in groups:
            part[:, : M + 1] *= rows
            part[:, M + 1 :] *= rows[:, M - 1 : 0 : -1]


def _shaped_noise(rng: np.random.Generator, table: np.ndarray):
    """Yield ``(first, z)``: the rows first, first+1, ... of the shaped
    (2M) x (2M) noise, drawn and shaped in blocks of about _NOISE_BLOCK
    values.

    The rows are the same numbers as one draw of all 2M rows.  The block
    is dropped before the next one is drawn, and a consumer drops its
    reference at the end of its loop body, so at most one block is alive.
    """
    M = len(table) - 1
    block = min(max(_NOISE_BLOCK // (2 * M), 1), 2 * M)
    for first in range(0, 2 * M, block):
        z = _draw_complex_noise(rng, (block, 2 * M))
        _shape_noise(z, table, first)
        yield first, z
        del z


def check_grid(M: int) -> None:
    """Reject a grid size that field synthesis cannot use."""
    M = _integer(M, f"grid size M = {M!r}")
    if M < 4 or M & (M - 1):
        raise InvalidArgument("grid size must be a power of two >= 4")


def _anchored(block: np.ndarray) -> np.ndarray:
    values = block - block[0, 0]
    values[0, 0] = 0.0
    values.flags.writeable = False
    return values


def _line_sum_weights(M: int) -> np.ndarray:
    """w(n) = sum_{k=0..M} exp(-i pi n k / M) for n = 0..2M-1.

    The transform of the indicator of 0..M on 2M points, in closed form:
    M + 1 at n = 0, 1 at every other even n and -i cot(pi n / 2M) at odd n.
    """
    w = np.ones(2 * M, dtype=complex)
    w[0] = M + 1
    odd = np.arange(1, 2 * M, 2)
    w[odd] = -1j / np.tan(np.pi * odd / (2 * M))
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

    Each block is reduced as it arrives, by ``np.vecdot`` against the
    conjugated weights: one BLAS dot per row and per column, of at most 2M
    values, into one (2, 2M) array of line sums that one FFT along its
    rows then transforms in place.  The OpenBLAS bundled with numpy 2.4
    (0.3.31) runs a dot of up to 10000 values on one thread and splits
    longer ones over its threads, so up to M = 4096 the reductions neither
    compete with the other workers of a run for the CPUs nor depend on
    the thread count; a matrix product would run threaded.
    """
    w_conj = _line_sum_weights(M).conj()
    sums = np.zeros((2, 2 * M), dtype=complex)  # line sums by rows, by columns
    total = 0.0
    for first, z in blocks:
        sums[0, first : first + len(z)] = np.vecdot(w_conj, z)
        sums[1] += np.vecdot(w_conj[first : first + len(z)], z, axis=0)
        total += z.real.sum()
        del z
    np.fft.fft(sums, axis=1, out=sums)
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
    rows.  Both transforms run in place.  Each block is shaped by the
    cached quadrant of amplitudes, its mirrored rows and columns read
    through views (see _shape_noise); shaping takes a few KB of buffers,
    so the (2M) x (M+1) output buffer is allocated before the first block
    is drawn.  A call for a new (index, M) first drops the previous table,
    then builds its own in row chunks, before any noise is drawn.

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
    array whose rows are the real field's horizontal and vertical
    ``project_axis``, computed by two weighted reductions of the shaped
    noise and two 2M-point FFTs, with no field built.  It agrees with
    those projections to rounding (about 1e-15 of the largest value), not
    bit for bit.
    """
    _kind(index, AnisotropicIndex, "index")
    check_grid(M)
    table = _sra_amplitude(index, int(M))
    blocks = _shaped_noise(_rng(seed), table)
    if projected:
        return _projections_of_spectrum(blocks, M)
    y = np.empty((2 * M, M + 1), dtype=complex)
    for first, z in blocks:
        np.fft.fft(z, axis=1, out=z)
        y[first : first + len(z)] = z[:, : M + 1]
        del z
    np.fft.fft(y, axis=0, out=y)
    y = y[: M + 1]
    y *= np.pi
    return _anchored(y.real), _anchored(y.imag)


# --- file formats -----------------------------------------------------------
#
# Field files: binary header magic "AFB1", u32 grid size M, f64 h_h, f64 h_v,
# u64 seed, all little-endian, followed by row-major f64 field values.
# Paths, projections and every table of results: CSV through _write_csv.

_MAGIC = b"AFB1"
_HEADER = struct.Struct("<4sIddQ")


def write_field(values: np.ndarray, path, params=None, seed=None) -> None:
    """Serialize a square field to the AFB1 binary format, with its true
    ``(h_h, h_v)`` and seed when known.

    The header holds a seed in 0..2^64-2; 2^64-1 marks an unknown seed.
    ``params`` must be a pair of real numbers.  Each check runs before the
    file is opened.
    """
    values = _reals(values, "values")
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise InvalidArgument("field values must be a square matrix")
    if seed is None:
        seed = _NO_SEED
    elif not 0 <= _integer(seed, f"seed = {seed!r}") < _NO_SEED:
        raise InvalidArgument(
            f"seed {seed} is outside 0..2^64-2, the range a field file holds"
        )
    try:
        h_h, h_v = (float("nan"),) * 2 if params is None else params
    except (TypeError, ValueError):
        raise InvalidArgument(f"params {params!r} is not a pair (h_h, h_v)") from None
    for value in (h_h, h_v):
        _real(value, "params entry")
    header = _HEADER.pack(_MAGIC, values.shape[0] - 1, h_h, h_v, seed)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_field(path) -> tuple[np.ndarray, tuple[float, float] | None, int | None]:
    """Read a field written by :func:`write_field`; returns the read-only
    values, the true ``(h_h, h_v)`` and the seed, each None if unknown.

    Raises InvalidArgument unless the file is exactly one AFB1 header
    followed by the (M+1)^2 values its grid size M calls for.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:len(_MAGIC)] != _MAGIC:
        raise InvalidArgument(f"{path}: not an AFB1 field file")
    if len(raw) < _HEADER.size:
        raise InvalidArgument(
            f"{path}: {len(raw)} bytes, shorter than the {_HEADER.size}-byte header"
        )
    _, M, h_h, h_v, seed = _HEADER.unpack_from(raw)
    expected = _HEADER.size + 8 * (M + 1) ** 2
    if len(raw) != expected:
        raise InvalidArgument(
            f"{path}: header grid size M={M} needs {expected} bytes, "
            f"file has {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    values = values.reshape(M + 1, M + 1).copy()
    values.flags.writeable = False
    params = None if np.isnan(h_h) or np.isnan(h_v) else (h_h, h_v)
    return values, params, None if seed == _NO_SEED else int(seed)


def _is_field_file(path) -> bool:
    """Whether the file at ``path`` starts with the AFB1 magic."""
    with open(path, "rb") as fh:
        return fh.read(len(_MAGIC)) == _MAGIC


def field_to_csv(values: np.ndarray, path) -> None:
    """Plain CSV dump of the field values, for debugging."""
    np.savetxt(path, values, delimiter=",", fmt="%.17g")


def _write_csv(path, header, rows, comments=()) -> None:
    """Write a table as CSV to the file ``path``, or to stdout when no
    path is given: a ``# key = value`` line per ``(key, value)`` of
    ``comments`` whose value is not None, then the header, then the rows.

    Every table the package writes goes through here, with one rule per
    cell: None is an empty cell, an int or a str is written as it is, and
    any other number as ``repr(float(x))``, the shortest text that reads
    back to the same float.  Lines end in a bare newline, so the same
    values give the same bytes on every run and platform.
    """

    def cell(x):
        if x is None:
            return ""
        return x if isinstance(x, (int, str)) else repr(float(x))

    target = open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)
    with target as fh:
        for key, value in comments:
            if value is not None:
                fh.write(f"# {key} = {cell(value)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([cell(x) for x in row] for row in rows)


def write_path_csv(values: np.ndarray, path, hurst=None, seed=None) -> None:
    """Two-column CSV (t, value) of a series at t = k/N, k = 0..N, with the
    true Hurst index and the seed, when known, in ``# hurst = ...`` and
    ``# seed = ...`` comments (see _write_csv).

    The series must be 1-d, and the positions need N >= 1, so it must hold
    two or more values.  The Hurst index must be a real number, and the
    seed an integer >= 0, so that :func:`read_path_csv` reads it back.
    Each check runs before the file is opened.
    """
    values = _reals(values, "values")
    if values.ndim != 1:
        raise InvalidArgument(f"a path CSV needs a 1-d series, got shape {values.shape}")
    n = values.size - 1
    if n < 1:
        raise InvalidArgument(
            f"a path CSV needs at least two values, got {values.size}"
        )
    hurst = None if hurst is None else float(_real(hurst, "hurst ="))
    seed = None if seed is None else _seed(seed)
    rows = ((k / n, val) for k, val in enumerate(values))
    _write_csv(path, ["t", "value"], rows, [("hurst", hurst), ("seed", seed)])


def read_path_csv(path) -> tuple[np.ndarray, float | None, int | None]:
    """Read a path written by :func:`write_path_csv`; returns the read-only
    values, the true Hurst index and the seed, each None if unknown.

    Raises InvalidArgument, naming the file and the line, at a row that
    is not two numbers t,value or at a ``# hurst`` or ``# seed`` comment
    whose value does not parse, and naming the file when it holds fewer
    than the two values a path needs.
    """
    hurst = None
    seed = None
    values = []
    # undecodable bytes become U+FFFD, so such a row is malformed like any other
    with open(path, errors="replace") as fh:
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
                    raise InvalidArgument(
                        f"{where}: {key} comment {line!r} does not parse"
                    ) from None
                continue
            cells = [cell.strip() for cell in line.split(",")]
            if len(cells) != 2:
                raise InvalidArgument(
                    f"{where}: expected two columns t,value, found {len(cells)}"
                )
            if [cell.lower() for cell in cells] == ["t", "value"]:
                continue
            try:
                _, value = map(float, cells)
            except ValueError:
                raise InvalidArgument(
                    f"{where}: row {line!r} is not two numbers t,value"
                ) from None
            values.append(value)
    if len(values) < 2:
        raise InvalidArgument(
            f"{path}: a path CSV needs at least two values, found {len(values)}"
        )
    arr = np.asarray(values)
    arr.flags.writeable = False
    return arr, hurst, seed
