import csv

import numpy as np
import pytest

from anisofield import (
    AnisotropicIndex,
    Window1DMinus,
    afb_sra,
    derived_stream,
    project_axis,
    quad_variation,
    write_path_csv,
    binomial_filter,
)


def _grid_from(fn, M):
    k = np.arange(M + 1) / M
    return np.asarray(fn(k[:, None], k[None, :]), dtype=float)


class TestProjectAxis:
    def test_constant_field(self):
        M = 16
        field = _grid_from(lambda s, t: 3.0 + 0 * s + 0 * t, M)
        result = project_axis(field, "horizontal")
        np.testing.assert_allclose(result, 3.0 * (M + 1) / M, rtol=1e-14)

    def test_vertical_ramp(self):
        # x(s, t) = t projects horizontally to the constant (M+1)/(2M)
        M = 16
        field = _grid_from(lambda s, t: t + 0 * s, M)
        result = project_axis(field, "horizontal")
        np.testing.assert_allclose(result, (M + 1) / (2 * M), rtol=1e-14)
        # and vertically to the ramp itself times (M+1)/M
        vert = project_axis(field, "vertical")
        np.testing.assert_allclose(
            vert, (M + 1) / M * np.arange(M + 1) / M, rtol=1e-13, atol=1e-16
        )

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(17, 17))
        y = rng.normal(size=(17, 17))
        combo = 2.5 * x - 1.25 * y
        lhs = project_axis(combo, "vertical")
        rhs = (
            2.5 * project_axis(x, "vertical")
            - 1.25 * project_axis(y, "vertical")
        )
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_transpose_swaps_directions(self):
        rng = np.random.default_rng(1)
        field = rng.normal(size=(33, 33))
        flipped = field.T.copy()
        np.testing.assert_array_equal(
            project_axis(field, "horizontal"),
            project_axis(flipped, "vertical"),
        )

    @pytest.mark.parametrize("m_sub", [64, 16])
    def test_matches_column_loop(self, m_sub):
        # Reference: the column-by-column accumulation in ascending order.
        M = 64
        rng = np.random.default_rng(4)
        scales = 10.0 ** rng.integers(-8, 8, (M + 1, M + 1))
        field = rng.normal(size=(M + 1, M + 1)) * scales
        window = Window1DMinus.gaussian(0.3, center=0.4)
        stride = M // m_sub
        for direction, grid in (
            ("horizontal", field), ("vertical", field.T)
        ):
            plain = np.zeros(M + 1)
            weighted = np.zeros(M + 1)
            for j in range(0, M + 1, stride):
                plain += grid[:, j]
                weighted += window(j / M) * grid[:, j]
            if m_sub == M:
                assert np.array_equal(project_axis(field, direction), plain / M)
            assert np.array_equal(
                project_axis(field, direction, m_sub=m_sub), plain / m_sub
            )
            got = project_axis(field, direction, window, m_sub)
            assert np.array_equal(got, weighted / m_sub)

    def test_direction_validated(self):
        field = np.zeros((9, 9))
        with pytest.raises(ValueError):
            project_axis(field, "diagonal")

    @pytest.mark.parametrize("shape", [(9, 8), (9,), (2, 9, 9)], ids=["9x8", "1d", "3d"])
    def test_field_must_be_square(self, shape):
        with pytest.raises(ValueError, match="field values must be a square matrix"):
            project_axis(np.zeros(shape), "horizontal")

    def test_result_length(self):
        field = np.zeros((9, 9))
        values = project_axis(field, "vertical")
        assert values.shape == (9,)
        assert not values.flags.writeable


class TestProjectWindow:
    def test_indicator_equals_axis(self):
        rng = np.random.default_rng(2)
        field = rng.normal(size=(17, 17))
        for direction in ("horizontal", "vertical"):
            a = project_axis(field, direction)
            b = project_axis(
                field, direction, Window1DMinus.indicator_unit()
            )
            np.testing.assert_array_equal(a, b)

    def test_gaussian_weighted_sum_on_constant(self):
        M, c = 16, 2.5
        field = np.full((M + 1, M + 1), c)
        w = Window1DMinus.gaussian(0.2, center=0.5)
        out = project_axis(field, "horizontal", w)
        expected = c * w(np.arange(M + 1) / M).sum() / M
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_subsampled_hyperplane(self):
        M, m_sub = 16, 4
        rng = np.random.default_rng(3)
        field = rng.normal(size=(M + 1, M + 1))
        out = project_axis(
            field, "horizontal", Window1DMinus.indicator_unit(), m_sub
        )
        cols = np.arange(m_sub + 1) * (M // m_sub)
        expected = field[:, cols].sum(axis=1) / m_sub
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_m_sub_validation(self):
        field = np.zeros((17, 17))
        w = Window1DMinus.indicator_unit()
        with pytest.raises(ValueError):
            project_axis(field, "horizontal", w, 5)  # does not divide 16
        with pytest.raises(ValueError):
            project_axis(field, "horizontal", w, 32)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        field = np.arange(81, dtype=float).reshape(9, 9)
        result = project_axis(field, "horizontal")
        f = tmp_path / "proj.csv"
        write_path_csv(result, f)
        with open(f) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "value"]
        assert len(rows) == 10
        vals = np.array([float(r[1]) for r in rows[1:]])
        np.testing.assert_array_equal(vals, result)


class TestVarianceScaling:
    def test_projection_increment_scaling(self):
        # Second-difference variations of the projected field scale like
        # step^(2H) with H = h(axis) + 1/2; the log-log slope over strides
        # 1, 2, 4, 8 must sit near 2H.
        model = AnisotropicIndex(0.5, 0.5)
        M, reps = 512, 200
        a = binomial_filter(2)
        strides = [1, 2, 4, 8]
        sums = np.zeros(len(strides))
        for i in range(reps):
            field = afb_sra(model, M, derived_stream(40, i))[0]
            proj = project_axis(field, "horizontal")
            for j, s in enumerate(strides):
                sub = proj[::s]
                sums[j] += quad_variation(sub, a, 1)
        steps = np.array(strides) / M
        slope = np.polyfit(np.log(steps), np.log(sums / reps), 1)[0]
        assert slope == pytest.approx(2.0 * (0.5 + 0.5), abs=0.1)
