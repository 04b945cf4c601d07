import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from anisofield import (
    AnisotropicIndex,
    EvalReport,
    EvalRow1D,
    InvalidArgument,
    afb_sra,
    density,
    derived_stream,
    emit_table,
    fbm_path,
    fgn_autocovariance,
    field_to_csv,
    parse_index,
    read_field,
    read_path_csv,
    write_field,
    write_path_csv,
)
from anisofield import synthesis
from oracles import (
    afb_sra_direct, axis_projections, fgn_pair, full_grid_amplitude, projections_by_einsum,
    shaped_noise_whole,
)

# fGn lag-1 autocovariance at H=0.7: (2^1.4 - 2)/2
R1_H07 = 0.3195079107728942


class TestFgn:
    def test_brownian_increments_uncorrelated(self):
        x = fgn_pair(0.5, 1_000_000, 42)[0]
        corr = float(np.mean(x[1:] * x[:-1]) / x.var())
        assert abs(corr) <= 0.003

    def test_lag_one_autocovariance(self):
        x = fgn_pair(0.7, 1_000_000, 43)[0]
        assert float(np.mean(x[1:] * x[:-1])) == pytest.approx(R1_H07, abs=0.005)

    def test_determinism(self):
        assert np.array_equal(fgn_pair(0.3, 4096, 7)[0], fgn_pair(0.3, 4096, 7)[0])
        assert not np.array_equal(fgn_pair(0.3, 4096, 7)[0], fgn_pair(0.3, 4096, 8)[0])

    @pytest.mark.parametrize("H", [0.2, 0.55, 0.8])
    def test_autocovariance_lags_0_to_5(self, H):
        # Independent streams give an honest Monte Carlo standard error;
        # the real and the imaginary sample are checked separately.
        streams, n = 400, 512
        prods = np.zeros((2, streams, 6))
        for i in range(streams):
            for part, x in enumerate(fgn_pair(H, n, derived_stream(1000, i))):
                for k in range(6):
                    prods[part, i, k] = np.mean(x[k:] * x[: n - k])
        target = fgn_autocovariance(H, np.arange(6))
        means = prods.mean(axis=1)
        ses = prods.std(axis=1, ddof=1) / np.sqrt(streams)
        assert np.all(np.abs(means - target) <= 4.0 * ses)

    @pytest.mark.parametrize("H", [0.2, 0.7])
    @pytest.mark.parametrize("n", [8, 33])
    def test_pair_covariances_exact(self, monkeypatch, n, H):
        # Both parts are linear in the noise; pushing each unit noise
        # component through gives their covariances exactly.
        m = synthesis._embedding_sqrt(H, n).size
        units = np.eye(2 * m)  # real and imaginary parts in storage order
        noise = iter(units)

        class UnitNoise:
            def standard_normal(self, out):
                out[:] = next(noise)

        monkeypatch.setattr(synthesis, "_rng", lambda seed: UnitNoise())
        maps = np.array([fgn_pair(H, n, 0) for _ in units])
        re, im = maps[:, 0], maps[:, 1]
        k = np.arange(n)
        toeplitz = fgn_autocovariance(H, k[:, None] - k[None, :])
        assert np.abs(re.T @ re - toeplitz).max() <= 1e-12
        assert np.abs(im.T @ im - toeplitz).max() <= 1e-12
        assert np.abs(re.T @ im).max() <= 1e-12

    def test_pair_cross_products(self):
        # Real x imaginary lag products over independent streams are
        # centred at zero, in both orders.
        H, n, reps, lags = 0.7, 64, 2000, 4
        cross = np.empty((reps, 2 * lags - 1))
        for i in range(reps):
            re, im = fgn_pair(H, n, derived_stream(7, i))
            cross[i, :lags] = [np.mean(re[k:] * im[: n - k]) for k in range(lags)]
            cross[i, lags:] = [np.mean(im[k:] * re[: n - k]) for k in range(1, lags)]
        se = cross.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(cross.mean(axis=0)) <= 5.0 * se)

    def test_validation(self):
        with pytest.raises(ValueError):
            fgn_pair(1.0, 100, 0)
        with pytest.raises(ValueError):
            fgn_pair(0.5, 1, 0)

    @pytest.mark.parametrize(
        ("synthesize", "n", "seed", "message"),
        [
            (fbm_path, 64.5, 1, "n = 64.5 samples is not an integer"),
            (fbm_path, 64, [], "need at least one seed"),
        ],
        ids=["fbm-length", "empty-batch"],
    )
    def test_rejected_before_any_work(self, monkeypatch, synthesize, n, seed, message):
        built = []
        monkeypatch.setattr(synthesis, "_embedding_sqrt", lambda *args: built.append(args))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synthesize(0.5, n, seed)
        assert built == []

    def test_non_psd_covariance_rejected(self, monkeypatch):
        # a covariance the embedding cannot make nonnegative definite
        from anisofield import EmbeddingNotPSD
        from anisofield import synthesis as synth_mod

        def spiky(H, lags):
            k = np.asarray(lags, dtype=float)
            return np.where(k == 1.0, 0.99, np.where(k == 0.0, 1.0, 0.0))

        monkeypatch.setattr(synth_mod, "fgn_autocovariance", spiky)
        synth_mod._embedding_sqrt.cache_clear()
        try:
            with pytest.raises(EmbeddingNotPSD):
                fgn_pair(0.313, 3, 0)
        finally:
            synth_mod._embedding_sqrt.cache_clear()

    @pytest.mark.parametrize("n", [2, 3, 33, 4097, 16384])
    def test_minimal_embedding_nonnegative_for_every_H(self, n):
        # the minimal embedding of fGn is nonnegative definite on (0, 1),
        # so it is built once and never raises for a true fGn covariance
        grid = np.concatenate([
            [1e-6, 1e-4, 1e-3],
            np.linspace(0.01, 0.99, 99),
            1.0 - np.logspace(-3, -9, 7),
        ])
        for H in grid:
            amp = synthesis._embedding_sqrt.__wrapped__(float(H), n)
            assert amp.size == 2 * (n - 1) and np.all(np.isfinite(amp))


class TestFbm:
    def test_starts_at_zero(self):
        for path in fbm_path(0.7, 128, 5):
            assert path[0] == 0.0

    @pytest.mark.parametrize(
        ("N", "k"),
        [(2, 1), (2, 3), (3, 5), (255, 64), (255, 65), (4096, 3), (4096, 4), (4096, 5)],
    )
    def test_batch_rows_equal_single_pairs(self, N, k):
        # bit for bit, with batches on both sides of the harness's chunk of
        # _NOISE_BLOCK // (2(N - 1)) pairs: 64 at N = 255, 4 at N = 4096
        streams = [derived_stream(4, N, j) for j in range(k)]
        batch = fbm_path(0.7, N, streams)
        assert batch.shape == (k, 2, N + 1) and not batch.flags.writeable
        for j, stream in enumerate(streams):
            real, imag = fbm_path(0.7, N, stream)
            assert not real.flags.writeable and not imag.flags.writeable
            assert batch[j, 0].tobytes() == real.tobytes()
            assert batch[j, 1].tobytes() == imag.tobytes()

    def test_list_of_ints_is_a_batch(self):
        # a list is a batch of seeds, not one seed's entropy as for numpy
        batch = fbm_path(0.5, 16, [1, 2])
        assert batch.shape == (2, 2, 17)
        for j, seed in enumerate([1, 2]):
            assert batch[j].tobytes() == np.array(fbm_path(0.5, 16, seed)).tobytes()

    @pytest.mark.parametrize(
        "seed", [1.5, "x", [np.random.SeedSequence(1), 3, "x"]], ids=["float", "str", "mixed-list"]
    )
    def test_seed_of_another_kind_named(self, aniso_model, seed):
        # one InvalidArgument names the seed on both routes that draw
        # noise: fbm_path reads a list as a batch and names its entry that
        # is not a seed, and afb_sra takes no list
        def message(value):
            return f"^seed = {re.escape(repr(value))} is not an integer >= 0 or a SeedSequence$"

        entry = seed[-1] if isinstance(seed, list) else seed
        with pytest.raises(InvalidArgument, match=message(entry)):
            fbm_path(0.5, 16, seed)
        with pytest.raises(InvalidArgument, match=message(seed)):
            afb_sra(aniso_model, 8, seed)

    def test_unit_time_variance(self):
        vals = np.array(
            [fbm_path(0.5, 64, derived_stream(2, i))[0][-1] for i in range(10_000)]
        )
        assert float(vals.var()) == pytest.approx(1.0, abs=0.05)

    def test_increment_variance_scaling(self):
        # E[(X(t + 1/N) - X(t))^2] = N^(-2H); per-path means are i.i.d.
        H, N, reps = 0.7, 256, 400
        per_path = np.empty(reps)
        for i in range(reps):
            v = fbm_path(H, N, derived_stream(3, i))[0]
            per_path[i] = np.mean(np.diff(v) ** 2)
        target = float(N) ** (-2 * H)
        se = per_path.std(ddof=1) / np.sqrt(reps)
        assert abs(per_path.mean() - target) <= 3.0 * se


@pytest.fixture(scope="module")
def aniso_model():
    return AnisotropicIndex(0.7, 0.2)


class TestSra:
    def test_origin_anchored(self, aniso_model):
        for field in afb_sra(aniso_model, 16, 11):
            assert field[0, 0] == 0.0

    def test_real_and_finite(self, aniso_model):
        field = afb_sra(aniso_model, 16, 11)[0]
        assert field.dtype == np.float64
        assert np.all(np.isfinite(field))
        assert field.shape == (17, 17)

    def test_determinism(self, aniso_model):
        a = afb_sra(aniso_model, 16, 3)
        b = afb_sra(aniso_model, 16, 3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("M", [4, 8])
    def test_fft_matches_direct_sum(self, aniso_model, M):
        for seed in range(5):
            fast = afb_sra(aniso_model, M, seed)
            slow = afb_sra_direct(aniso_model, M, seed)
            for field, values in zip(fast, slow):
                assert np.abs(field - values).max() <= 1e-9

    @pytest.mark.parametrize("shape", [(5,), (3, 8)])
    def test_complex_noise_reads_pairs_of_normals(self, shape):
        # the same numbers as a draw of (*shape, 2) normals read as complex
        z = synthesis._draw_complex_noise(np.random.default_rng(11), shape)
        pairs = np.random.default_rng(11).standard_normal((*shape, 2))
        assert z.flags.c_contiguous and z.shape == shape
        assert z.tobytes() == pairs.view(np.complex128)[..., 0].tobytes()

    @pytest.mark.parametrize("M", [4, 8, 64, 256, 512])
    @pytest.mark.parametrize(
        "index", [AnisotropicIndex(0.3, 0.3), AnisotropicIndex(0.7, 0.2)]
    )
    def test_mirrored_amplitude_table(self, index, M):
        # the table is the full grid's quadrant n_1, n_2 = 0..M, and shaping
        # by it, through reversed views of its rows and columns, multiplies
        # every noise term by its full-grid amplitude bit for bit; at
        # M = 256 and 512 the rows are built in 9 and 35 chunks.  The seeds
        # give the origin noise, whose amplitude is zero, each combination
        # of signs: the shaped origin keeps the signed zeros of the complex
        # product
        full = full_grid_amplitude(index, M)
        table = synthesis._sra_amplitude(index, M)
        assert table.shape == (M + 1, M + 1)
        assert not table.flags.writeable
        assert table.tobytes() == full[: M + 1, : M + 1].tobytes()
        signs = set()
        bufsize = np.getbufsize()
        for seed in (0, 1, 4, 9):
            z = synthesis._draw_complex_noise(np.random.default_rng(seed), (2 * M, 2 * M))
            signs.add((z[0, 0].real > 0, z[0, 0].imag > 0))
            expected = z * full
            # blocks of 3 rows straddle row M, where the mirroring starts
            for block in (3, 2 * M):
                shaped = z.copy()
                for first in range(0, 2 * M, block):
                    synthesis._shape_noise(shaped[first : first + block], table, first)
                assert shaped.tobytes() == expected.tobytes()
        assert len(signs) == 4
        assert np.getbufsize() == bufsize  # shaping restores numpy's setting

    @pytest.mark.parametrize("M", [128, 256])
    def test_row_blocks_match_one_whole_draw(self, aniso_model, M):
        # several noise blocks per field from M = 128 on: the field is the
        # pruned 2M x 2M FFT of all (2M)^2 values drawn and shaped at once
        for seed in range(2):
            y = np.pi * np.fft.fft2(shaped_noise_whole(aniso_model, M, seed))
            y = y[: M + 1, : M + 1]
            for field, part in zip(afb_sra(aniso_model, M, seed), (y.real, y.imag)):
                expected = part - part[0, 0]
                scale = np.abs(expected).max()
                assert np.abs(field - expected).max() <= 1e-12 * scale

    @pytest.mark.parametrize(
        "M, projected, bound",
        [
            (64, False, 1.6),
            (128, False, 1.2),
            (256, False, 1.0),
            (512, False, 1.0),
            (64, True, 1.6),
            (512, True, 0.1),
        ],
    )
    def test_peak_memory_below_one_whole_draw(self, aniso_model, M, projected, bound):
        # peak traced allocation in units of one (2M)^2 complex array;
        # the amplitude table is cached by a first call.  Shaping adds a
        # few KB (see test_shaping_takes_a_few_kb).  At M = 64 one block
        # holds the whole draw and the field route's (2M) x (M+1) output
        # buffer sits beside it, about 1.53; the bound leaves no room for
        # shaping casts at numpy's default ufunc buffer size, nor for the
        # temporaries of a per-block column mirror of the table.
        afb_sra(aniso_model, M, 0, projected=projected)
        tracemalloc.start()
        try:
            afb_sra(aniso_model, M, 1, projected=projected)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (16 * (2 * M) ** 2) < bound

    @pytest.mark.parametrize("M, first", [(64, 0), (512, 512)])
    def test_shaping_takes_a_few_kb(self, aniso_model, M, first):
        # peak traced allocation of shaping one noise block in place, in
        # units of the block: the whole draw at M = 64, and at M = 512 the
        # block whose first row is row M, so that it takes both quadrant
        # rows and mirrored ones.  The ufunc buffers held to one row's
        # worth read about 0.02; at numpy's default buffer size the cast
        # of the amplitudes to complex takes about three quarters
        table = synthesis._sra_amplitude(aniso_model, M)
        rows = min(synthesis._NOISE_BLOCK // (2 * M), 2 * M)
        z = synthesis._draw_complex_noise(np.random.default_rng(2), (rows, 2 * M))
        tracemalloc.start()
        try:
            synthesis._shape_noise(z, table, first)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / z.nbytes < 0.05

    def test_cell_switch_builds_one_table_at_a_time(self):
        # peak traced allocation in units of one M = 512 quadrant table,
        # when a first cell's table is cached and a second cell is
        # synthesized: the chunked build holds the new table and one
        # small chunk's temporaries, and synthesis one noise block beside
        # it; a table 2M columns wide, or build chunks of 63 rows, would
        # not fit
        M = 512
        afb_sra(AnisotropicIndex(0.7, 0.2), M, 0, projected=True)
        tracemalloc.start()
        try:
            afb_sra(AnisotropicIndex(0.5, 0.5), M, 1, projected=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * (M + 1) ** 2) < 1.5

    def test_old_table_dropped_before_the_next_is_built(self, monkeypatch):
        # the cache holds one table, and a new cell's table is built only
        # once nothing refers to the previous cell's table any more
        M = 16
        first, second = AnisotropicIndex(0.7, 0.2), AnisotropicIndex(0.5, 0.5)
        afb_sra(first, M, 0, projected=True)
        old = weakref.ref(synthesis._sra_amplitude(first, M))
        assert old() is not None
        dropped = []

        def density_after_the_drop(index, xi):
            dropped.append(old() is None)
            return density(index, xi)

        monkeypatch.setattr(synthesis, "density", density_after_the_drop)
        afb_sra(second, M, 0, projected=True)
        assert dropped == [True]
        table = synthesis._sra_amplitude(second, M)
        assert synthesis._sra_amplitude(second, M) is table  # a hit builds nothing
        assert dropped == [True]

    def test_pair_law(self, aniso_model):
        # The real and imaginary parts of one transform are independent
        # fields with the same law: zero cross-covariance at and between
        # grid points, equal increment variances in both directions.
        M, reps = 16, 2000
        points = [(1, 1), (4, 9), (8, 8), (16, 3), (16, 16)]
        rows, cols = np.array(points).T
        cross, incr = [], []
        for i in range(reps):
            fields = afb_sra(aniso_model, M, derived_stream(6, i))
            re, im = fields
            cross.append(np.outer(re[rows, cols], im[rows, cols]).ravel())
            incr.append([
                np.mean(np.diff(re, axis=0) ** 2) - np.mean(np.diff(im, axis=0) ** 2),
                np.mean(np.diff(re, axis=1) ** 2) - np.mean(np.diff(im, axis=1) ** 2),
                (re[8, 9] - re[8, 8]) ** 2 - (im[8, 9] - im[8, 8]) ** 2,
            ])
        for stat in (np.array(cross), np.array(incr)):
            se = stat.std(axis=0, ddof=1) / np.sqrt(reps)
            assert np.all(np.abs(stat.mean(axis=0)) <= 5.0 * se)

    def test_pair_covariances_exact(self, aniso_model, monkeypatch):
        # Both fields are linear in the noise; pushing each unit noise
        # component through gives their covariances exactly.
        M = 8
        basis = np.eye(2 * (2 * M) ** 2)
        units = basis.reshape(-1, 2 * M, 2 * M, 2).view(np.complex128)[..., 0]
        noise = iter(units)
        monkeypatch.setattr(
            synthesis, "_draw_complex_noise", lambda rng, shape: next(noise).copy()
        )
        maps = np.array([
            [f.ravel() for f in afb_sra(aniso_model, M, 0)] for _ in basis
        ])
        re, im = maps[:, 0], maps[:, 1]
        scale = np.abs(re.T @ re).max()
        assert np.abs(re.T @ re - im.T @ im).max() <= 1e-12 * scale
        assert np.abs(re.T @ im).max() <= 1e-12 * scale

    def test_grid_validation(self, aniso_model):
        with pytest.raises(ValueError):
            afb_sra(aniso_model, 12, 0)
        with pytest.raises(ValueError):
            afb_sra(aniso_model, 2, 0)

    def test_non_integer_grid_named(self, aniso_model):
        # a float grid size, even an integral one, fails before any work
        with pytest.raises(ValueError, match=r"^grid size M = 64\.0 is not an integer$"):
            afb_sra(aniso_model, 64.0, 0)

    def test_gaussianity(self):
        # Standardize by the pooled moments (per-field standardization
        # biases the kurtosis badly under spatial correlation), then use
        # per-field moment means as i.i.d. replicates for the error bar.
        model = AnisotropicIndex(0.5, 0.5)
        reps = 200
        fields = [
            afb_sra(model, 32, derived_stream(4, i))[0].ravel()
            for i in range(reps)
        ]
        pooled = np.concatenate(fields)
        mu, sd = pooled.mean(), pooled.std()
        m3 = np.array([np.mean(((f - mu) / sd) ** 3) for f in fields])
        m4 = np.array([np.mean(((f - mu) / sd) ** 4) for f in fields])
        for stat, target in ((m3, 0.0), (m4, 3.0)):
            se = stat.std(ddof=1) / np.sqrt(reps)
            assert abs(stat.mean() - target) <= 5.0 * se


class TestProjectedSra:
    """``afb_sra(..., projected=True)`` against the field it skips."""

    @pytest.mark.parametrize("M", [4, 8, 64, 512])
    @pytest.mark.parametrize("index", ["constant:0.5", "axes:0.7,0.2"])
    def test_matches_projections_of_the_field(self, index, M):
        model = parse_index(index)
        for rep in range(3):
            fast = afb_sra(model, M, derived_stream(9, M, rep), projected=True)
            slow = axis_projections(afb_sra(model, M, derived_stream(9, M, rep))[0])
            assert fast.shape == (2, M + 1) and fast.dtype == np.float64
            assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()

    def test_matches_direct_sum(self, aniso_model):
        for seed in range(5):
            fast = afb_sra(aniso_model, 8, seed, projected=True)
            slow = axis_projections(afb_sra_direct(aniso_model, 8, seed)[0])
            assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()

    @pytest.mark.parametrize("M", [4, 64, 512])
    def test_reductions_match_einsum_oracle(self, aniso_model, M):
        for seed in range(3):
            fast = afb_sra(aniso_model, M, seed, projected=True)
            slow = projections_by_einsum(aniso_model, M, seed)
            assert np.abs(fast - slow).max() <= 1e-13 * np.abs(slow).max()

    def test_one_blas_thread_gives_the_same_bytes(self, aniso_model):
        # the reductions are BLAS dots of at most 2M values, which OpenBLAS
        # runs on one thread at these lengths: a process held to one
        # thread computes the projections of this one, byte for byte
        code = (
            "import sys\n"
            "from anisofield import AnisotropicIndex, afb_sra\n"
            "values = afb_sra(AnisotropicIndex(0.7, 0.2), 512, 5, projected=True)\n"
            "sys.stdout.write(values.tobytes().hex())\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        values = afb_sra(aniso_model, 512, 5, projected=True)
        assert proc.stdout == values.tobytes().hex()

    @pytest.mark.parametrize("M", [4, 8, 512])
    def test_line_sum_weights_are_the_box_transform(self, M):
        box = (np.arange(2 * M) <= M).astype(float)
        weights = synthesis._line_sum_weights(M)
        assert np.abs(weights - np.fft.fft(box)).max() <= 1e-12 * (M + 1)

    def test_read_only(self, aniso_model):
        values = afb_sra(aniso_model, 8, 1, projected=True)
        assert not values.flags.writeable

    @pytest.mark.parametrize("M", [2, 12, 64.0])
    def test_grid_validation(self, aniso_model, M):
        with pytest.raises(ValueError) as expected:
            synthesis.check_grid(M)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            afb_sra(aniso_model, M, 0, projected=True)


class TestFieldIO:
    def test_binary_roundtrip(self, aniso_model, tmp_path):
        field = afb_sra(aniso_model, 16, 9)[0]
        f = tmp_path / "field.afb"
        write_field(field, f, (0.7, 0.2), 9)
        back, params, seed = read_field(f)
        assert np.array_equal(back, field)
        assert params == (0.7, 0.2)
        assert seed == 9

    def test_missing_metadata(self, tmp_path):
        values = np.zeros((9, 9))
        f = tmp_path / "anon.afb"
        write_field(values, f)
        _, params, seed = read_field(f)
        assert params is None and seed is None

    def test_magic_checked(self, tmp_path):
        f = tmp_path / "junk.afb"
        f.write_bytes(b"nope" + b"\0" * 64)
        with pytest.raises(ValueError):
            read_field(f)

    @pytest.mark.parametrize("damage", ["truncated", "extended", "wrong_m", "header_only"])
    def test_size_checked(self, aniso_model, tmp_path, damage):
        f = tmp_path / "field.afb"
        write_field(afb_sra(aniso_model, 8, 1)[0], f)
        raw = f.read_bytes()
        bad = {
            "truncated": raw[:-8],
            "extended": raw + b"\0" * 3,
            "wrong_m": raw[:4] + (16).to_bytes(4, "little") + raw[8:],
            "header_only": raw[:20],
        }[damage]
        f.write_bytes(bad)
        with pytest.raises(InvalidArgument, match=re.escape(str(f))) as info:
            read_field(f)
        assert str(len(bad)) in str(info.value)

    def test_csv_export(self, aniso_model, tmp_path):
        field = afb_sra(aniso_model, 8, 1)[0]
        f = tmp_path / "field.csv"
        field_to_csv(field, f)
        data = np.loadtxt(f, delimiter=",")
        np.testing.assert_allclose(data, field, rtol=1e-15)

    def test_path_roundtrip(self, tmp_path):
        path = fbm_path(0.4, 128, 77)[0]
        f = tmp_path / "path.csv"
        write_path_csv(path, f, 0.4, 77)
        back, hurst, seed = read_path_csv(f)
        assert seed == 77
        assert hurst == 0.4
        np.testing.assert_array_equal(back, path)

    def test_path_seed_must_be_an_integer(self, tmp_path):
        # else read_path_csv could not read the comment back
        f = tmp_path / "path.csv"
        with pytest.raises(ValueError, match=r"^seed = 1\.5 is not an integer$"):
            write_path_csv(np.zeros(3), f, 0.5, 1.5)
        assert not f.exists()
        write_path_csv(np.zeros(3), f, 0.5, np.uint64(2**63 + 1))
        assert read_path_csv(f)[2] == 2**63 + 1

    def test_path_seed_must_not_be_negative(self, tmp_path):
        # a seed that fbm_path refuses is not written either, and the
        # file is not opened
        f = tmp_path / "path.csv"
        message = r"^seed -3 is negative; a seed is an integer >= 0$"
        with pytest.raises(InvalidArgument, match=message):
            write_path_csv(np.zeros(3), f, 0.5, -3)
        assert not f.exists()

    @pytest.mark.parametrize("shape", [(3, 3), (1, 5), ()], ids=["3x3", "1x5", "0-d"])
    def test_path_must_be_1d(self, tmp_path, shape):
        # rejected before the file is opened: a header alone would read
        # back as an empty path
        f = tmp_path / "path.csv"
        message = rf"^a path CSV needs a 1-d series, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            write_path_csv(np.zeros(shape), f)
        assert not f.exists()

    def test_path_given_as_list(self, tmp_path):
        # a list writes the bytes of the array; a nested list is still
        # rejected as not 1-d before the file is opened
        values = [0.0, -1.5, 1 / 3]
        write_path_csv(np.array(values), tmp_path / "array.csv", 0.7, 7)
        write_path_csv(values, tmp_path / "list.csv", 0.7, 7)
        assert (tmp_path / "list.csv").read_bytes() == (tmp_path / "array.csv").read_bytes()
        f = tmp_path / "nested.csv"
        with pytest.raises(ValueError, match=r"^a path CSV needs a 1-d series, got shape \(2, 2\)$"):
            write_path_csv([[0.0, 1.0], [2.0, 3.0]], f)
        assert not f.exists()

    def test_field_given_as_list(self, tmp_path):
        values = [[0.0, 1.5], [-2.0, 1 / 3]]
        write_field(np.array(values), tmp_path / "array.afb", (0.7, 0.2), 9)
        write_field(values, tmp_path / "list.afb", (0.7, 0.2), 9)
        assert (tmp_path / "list.afb").read_bytes() == (tmp_path / "array.afb").read_bytes()

    @pytest.mark.parametrize("seed", [1.5, "7", True], ids=["float", "str", "bool"])
    def test_field_seed_must_be_an_integer(self, tmp_path, seed):
        f = tmp_path / "field.afb"
        with pytest.raises(ValueError, match=rf"^seed = {re.escape(repr(seed))} is not an integer$"):
            write_field(np.zeros((2, 2)), f, None, seed)
        assert not f.exists()

    @pytest.mark.parametrize(
        "text, found",
        [("", 0), ("t,value\n", 0), ("# hurst = 0.5\nt,value\n0.0,1.5\n", 1)],
        ids=["empty", "header_only", "one_row"],
    )
    def test_path_csv_needs_two_values(self, tmp_path, text, found):
        f = tmp_path / "short.csv"
        f.write_text(text)
        message = rf"^{re.escape(str(f))}: a path CSV needs at least two values, found {found}$"
        with pytest.raises(InvalidArgument, match=message):
            read_path_csv(f)

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_csv_bytes(self, tmp_path, capsys, to_file):
        # hand-built values, so the bytes are the same on every numpy build
        report = EvalReport(
            mode="1d",
            rows=[EvalRow1D(0.7, 256, -0.25, np.float64(2 / 3), math.nan, 1e-300)],
            reps=2,
            seed=0,
        )
        cli_header = ["seed", "h_true", "direction", "nu", "estimate", "V1", "V2", "out_of_range"]
        cli_row = [None, None, "path", 1, 0.1, np.float64(3e-17), 12.5, 0]
        writes = {
            "report": lambda out: emit_table(report, out),
            "cli": lambda out: synthesis._write_csv(out, cli_header, [cli_row]),
            "path": lambda out: write_path_csv(
                np.array([0.0, -1.5, 1 / 3]), out, np.float64(0.7), np.int64(7)
            ),
        }
        expected = {
            "report": "hurst,n,bias,sigma,n_var,gamma\n"
            "0.7,256,-0.25,0.6666666666666666,nan,1e-300\n",
            "cli": "seed,h_true,direction,nu,estimate,V1,V2,out_of_range\n"
            ",,path,1,0.1,3e-17,12.5,0\n",
            "path": "# hurst = 0.7\n# seed = 7\nt,value\n"
            "0.0,0.0\n0.5,-1.5\n1.0,0.3333333333333333\n",
        }
        for name, write in writes.items():
            if to_file:
                write(tmp_path / name)
                written = (tmp_path / name).read_bytes().decode()
            else:
                write(None)
                written = capsys.readouterr().out
            assert written == expected[name]

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("t,value\n0.0,0.0\n0.5,1.0,2.0\n", 3, "found 3"),
            ("0.0\n", 1, "found 1"),
            ("t,value\n0.0,0.0\n0.5,abc\n", 3, "not two numbers"),
            ("nan?,0.0\n", 1, "not two numbers"),
            ("# hurst = high\nt,value\n0.0,0.0\n", 1, "hurst comment"),
            ("# seed = 1.5\nt,value\n0.0,0.0\n", 1, "seed comment"),
        ],
    )
    def test_path_csv_rejects_malformed_lines(self, tmp_path, text, line, message):
        f = tmp_path / "bad.csv"
        f.write_text(text)
        with pytest.raises(InvalidArgument, match=re.escape(f"{f}:{line}: ")) as info:
            read_path_csv(f)
        assert message in str(info.value)
        assert isinstance(info.value, ValueError)


class TestStreams:
    def test_spawn_stability(self):
        # replicate streams do not depend on how many replicates run
        a = fgn_pair(0.6, 64, derived_stream(5, 3))[0]
        b = fgn_pair(0.6, 64, derived_stream(5, 3))[0]
        c = fgn_pair(0.6, 64, derived_stream(5, 4))[0]
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    def test_cells_independent_keys(self):
        a = derived_stream(5, 0, 1).generate_state(4)
        b = derived_stream(5, 1, 1).generate_state(4)
        assert not np.array_equal(a, b)
