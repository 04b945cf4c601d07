import re

import numpy as np
import pytest

from anisofield import (
    AnisotropicIndex,
    MalformedFieldFile,
    MalformedPathFile,
    afb_sra,
    axis_projections,
    derived_stream,
    fbm_path,
    fgn_autocovariance,
    fgn_exact,
    field_to_csv,
    parse_index,
    read_field,
    read_path_csv,
    write_field,
    write_path_csv,
)
from anisofield import synthesis
from oracles import afb_sra_direct, full_grid_amplitude

# fGn lag-1 autocovariance at H=0.7: (2^1.4 - 2)/2
R1_H07 = 0.3195079107728942


class TestFgn:
    def test_brownian_increments_uncorrelated(self):
        x = fgn_exact(0.5, 1_000_000, 42)[0]
        corr = float(np.mean(x[1:] * x[:-1]) / x.var())
        assert abs(corr) <= 0.003

    def test_lag_one_autocovariance(self):
        x = fgn_exact(0.7, 1_000_000, 43)[0]
        assert float(np.mean(x[1:] * x[:-1])) == pytest.approx(R1_H07, abs=0.005)

    def test_determinism(self):
        assert np.array_equal(fgn_exact(0.3, 4096, 7)[0], fgn_exact(0.3, 4096, 7)[0])
        assert not np.array_equal(fgn_exact(0.3, 4096, 7)[0], fgn_exact(0.3, 4096, 8)[0])

    @pytest.mark.parametrize("H", [0.2, 0.55, 0.8])
    def test_autocovariance_lags_0_to_5(self, H):
        # Independent streams give an honest Monte Carlo standard error;
        # the real and the imaginary sample are checked separately.
        streams, n = 400, 512
        prods = np.zeros((2, streams, 6))
        for i in range(streams):
            for part, x in enumerate(fgn_exact(H, n, derived_stream(1000, i))):
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
        units = np.eye(2 * m).reshape(-1, m, 2).view(np.complex128)[..., 0]
        noise = iter(units)
        monkeypatch.setattr(
            synthesis, "_draw_complex_noise", lambda rng, shape: next(noise).copy()
        )
        maps = np.array([fgn_exact(H, n, 0) for _ in units])
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
            re, im = fgn_exact(H, n, derived_stream(7, i))
            cross[i, :lags] = [np.mean(re[k:] * im[: n - k]) for k in range(lags)]
            cross[i, lags:] = [np.mean(im[k:] * re[: n - k]) for k in range(1, lags)]
        se = cross.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(cross.mean(axis=0)) <= 5.0 * se)

    def test_validation(self):
        with pytest.raises(ValueError):
            fgn_exact(1.0, 100, 0)
        with pytest.raises(ValueError):
            fgn_exact(0.5, 1, 0)

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
                fgn_exact(0.313, 3, 0)
        finally:
            synth_mod._embedding_sqrt.cache_clear()


class TestFbm:
    def test_starts_at_zero(self):
        for path in fbm_path(0.7, 128, 5):
            assert path[0] == 0.0

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

    @pytest.mark.parametrize("M", [4, 8, 64])
    @pytest.mark.parametrize(
        "index", [AnisotropicIndex(0.3, 0.3), AnisotropicIndex(0.7, 0.2)]
    )
    def test_mirrored_amplitude_table(self, index, M):
        # shaping by the mirrored quadrant multiplies every noise term by
        # its full-grid amplitude, bit for bit
        full = full_grid_amplitude(index, M)
        quadrant = synthesis._sra_amplitude(index, M)
        assert quadrant.shape == (M + 1, M + 1)
        assert np.array_equal(quadrant, full[: M + 1, : M + 1])
        z = synthesis._draw_complex_noise(np.random.default_rng(M), (2 * M, 2 * M))
        expected = z * full
        # blocks of 3 rows straddle row M, where the mirroring starts
        for block in (3, 2 * M):
            shaped = z.copy()
            for first in range(0, 2 * M, block):
                synthesis._shape_noise(shaped[first : first + block], quadrant, first)
            assert shaped.tobytes() == expected.tobytes()

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

    @pytest.mark.parametrize("M", [4, 8, 512])
    def test_line_sum_weights_are_the_box_transform(self, M):
        box = (np.arange(2 * M) <= M).astype(float)
        weights = synthesis._line_sum_weights(M)
        assert np.abs(weights - np.fft.fft(box)).max() <= 1e-12 * (M + 1)

    def test_read_only(self, aniso_model):
        values = afb_sra(aniso_model, 8, 1, projected=True)
        assert not values.flags.writeable

    @pytest.mark.parametrize("M", [2, 12])
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
        with pytest.raises(MalformedFieldFile, match=re.escape(str(f))) as info:
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
        with pytest.raises(MalformedPathFile, match=re.escape(f"{f}:{line}: ")) as info:
            read_path_csv(f)
        assert message in str(info.value)
        assert isinstance(info.value, ValueError)


class TestStreams:
    def test_spawn_stability(self):
        # replicate streams do not depend on how many replicates run
        a = fgn_exact(0.6, 64, derived_stream(5, 3))[0]
        b = fgn_exact(0.6, 64, derived_stream(5, 3))[0]
        c = fgn_exact(0.6, 64, derived_stream(5, 4))[0]
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    def test_cells_independent_keys(self):
        a = derived_stream(5, 0, 1).generate_state(4)
        b = derived_stream(5, 1, 1).generate_state(4)
        assert not np.array_equal(a, b)
