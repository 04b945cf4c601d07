import csv

import numpy as np
import pytest

from anisofield import (
    AnisotropicIndex,
    GridField2D,
    SpectralModel,
    Window1DMinus,
    WindowOutOfSupport,
    afb_sra,
    derived_stream,
    project_axis,
    project_window,
    projection_to_csv,
    quad_variation,
    SampledPath,
    VariationSpec,
    binomial_filter,
)


def _grid_from(fn, M):
    k = np.arange(M + 1) / M
    return GridField2D(values=np.asarray(fn(k[:, None], k[None, :]), dtype=float))


class TestProjectAxis:
    def test_constant_field(self):
        M = 16
        field = _grid_from(lambda s, t: 3.0 + 0 * s + 0 * t, M)
        result = project_axis(field, "horizontal")
        np.testing.assert_allclose(result.values, 3.0 * (M + 1) / M, rtol=1e-14)

    def test_vertical_ramp(self):
        # x(s, t) = t projects horizontally to the constant (M+1)/(2M)
        M = 16
        field = _grid_from(lambda s, t: t + 0 * s, M)
        result = project_axis(field, "horizontal")
        np.testing.assert_allclose(result.values, (M + 1) / (2 * M), rtol=1e-14)
        # and vertically to the ramp itself times (M+1)/M
        vert = project_axis(field, "vertical")
        np.testing.assert_allclose(
            vert.values, (M + 1) / M * np.arange(M + 1) / M, rtol=1e-13, atol=1e-16
        )

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = GridField2D(values=rng.normal(size=(17, 17)))
        y = GridField2D(values=rng.normal(size=(17, 17)))
        combo = GridField2D(values=2.5 * x.values - 1.25 * y.values)
        lhs = project_axis(combo, "vertical").values
        rhs = (
            2.5 * project_axis(x, "vertical").values
            - 1.25 * project_axis(y, "vertical").values
        )
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_transpose_swaps_directions(self):
        rng = np.random.default_rng(1)
        field = GridField2D(values=rng.normal(size=(33, 33)))
        flipped = GridField2D(values=field.values.T.copy())
        np.testing.assert_array_equal(
            project_axis(field, "horizontal").values,
            project_axis(flipped, "vertical").values,
        )

    @pytest.mark.parametrize("m_sub", [64, 16])
    def test_matches_column_loop(self, m_sub):
        # Reference: the column-by-column accumulation in ascending order.
        M = 64
        rng = np.random.default_rng(4)
        scales = 10.0 ** rng.integers(-8, 8, (M + 1, M + 1))
        field = GridField2D(values=rng.normal(size=(M + 1, M + 1)) * scales)
        window = Window1DMinus.gaussian(0.3, center=0.4)
        stride = M // m_sub
        for direction, grid in (
            ("horizontal", field.values), ("vertical", field.values.T)
        ):
            plain = np.zeros(M + 1)
            weighted = np.zeros(M + 1)
            for j in range(0, M + 1, stride):
                plain += grid[:, j]
                weighted += window(j / M) * grid[:, j]
            if m_sub == M:
                assert np.array_equal(project_axis(field, direction).values, plain / M)
            got = project_window(field, direction, window, m_sub).values
            assert np.array_equal(got, weighted / m_sub)

    def test_direction_validated(self):
        field = GridField2D(values=np.zeros((9, 9)))
        with pytest.raises(ValueError):
            project_axis(field, "diagonal")

    def test_result_length(self):
        field = GridField2D(values=np.zeros((9, 9)))
        assert project_axis(field, "vertical").values.size == 9


class TestProjectWindow:
    def test_indicator_equals_axis(self):
        rng = np.random.default_rng(2)
        field = GridField2D(values=rng.normal(size=(17, 17)))
        for direction in ("horizontal", "vertical"):
            a = project_axis(field, direction).values
            b = project_window(
                field, direction, Window1DMinus.indicator_unit()
            ).values
            np.testing.assert_array_equal(a, b)

    def test_empty_support_gives_zero(self):
        # indicator narrower than one grid cell catches no sample points
        field = GridField2D(values=np.ones((17, 17)))
        w = Window1DMinus.indicator(0.001, 0.009)
        out = project_window(field, "horizontal", w)
        np.testing.assert_array_equal(out.values, np.zeros(17))

    def test_gaussian_weighted_sum_on_constant(self):
        M, c = 16, 2.5
        field = GridField2D(values=np.full((M + 1, M + 1), c))
        w = Window1DMinus.gaussian(0.2, center=0.5)
        out = project_window(field, "horizontal", w)
        expected = c * w(np.arange(M + 1) / M).sum() / M
        np.testing.assert_allclose(out.values, expected, rtol=1e-14)

    def test_subsampled_hyperplane(self):
        M, m_sub = 16, 4
        rng = np.random.default_rng(3)
        field = GridField2D(values=rng.normal(size=(M + 1, M + 1)))
        out = project_window(
            field, "horizontal", Window1DMinus.indicator_unit(), m_sub
        )
        cols = np.arange(m_sub + 1) * (M // m_sub)
        expected = field.values[:, cols].sum(axis=1) / m_sub
        np.testing.assert_allclose(out.values, expected, rtol=1e-14)

    def test_support_must_fit_grid(self):
        field = GridField2D(values=np.zeros((9, 9)))
        with pytest.raises(WindowOutOfSupport):
            project_window(field, "horizontal", Window1DMinus.indicator(-0.5, 1.0))

    def test_m_sub_validation(self):
        field = GridField2D(values=np.zeros((17, 17)))
        w = Window1DMinus.indicator_unit()
        with pytest.raises(ValueError):
            project_window(field, "horizontal", w, 5)  # does not divide 16
        with pytest.raises(ValueError):
            project_window(field, "horizontal", w, 32)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        field = GridField2D(values=np.arange(81, dtype=float).reshape(9, 9))
        result = project_axis(field, "horizontal")
        f = tmp_path / "proj.csv"
        projection_to_csv(result, f)
        with open(f) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "value"]
        assert len(rows) == 10
        vals = np.array([float(r[1]) for r in rows[1:]])
        np.testing.assert_array_equal(vals, result.values)


class TestVarianceScaling:
    def test_projection_increment_scaling(self):
        # Second-difference variations of the projected field scale like
        # step^(2H) with H = h(axis) + 1/2; the log-log slope over strides
        # 1, 2, 4, 8 must sit near 2H.
        model = SpectralModel(AnisotropicIndex.constant(0.5))
        M, reps = 512, 200
        a = binomial_filter(2)
        strides = [1, 2, 4, 8]
        sums = np.zeros(len(strides))
        for i in range(reps):
            field = afb_sra(model, M, derived_stream(40, i))[0]
            proj = project_axis(field, "horizontal")
            for j, s in enumerate(strides):
                sub = proj.values[::s]
                sums[j] += quad_variation(
                    SampledPath(values=sub), VariationSpec(a, 1, M // s)
                )
        steps = np.array(strides) / M
        slope = np.polyfit(np.log(steps), np.log(sums / reps), 1)[0]
        assert slope == pytest.approx(2.0 * (0.5 + 0.5), abs=0.1)
