import subprocess
import sys

import numpy as np
import pytest

from anisofield import (
    AnisotropicIndex,
    Window1DMinus,
    ZeroFrequency,
    density,
    parse_index,
    parse_window,
    radon_density,
)


class TestIndex:
    def test_constant(self):
        idx = AnisotropicIndex(0.5, 0.5)
        assert idx.h_h == idx.h_v == 0.5

    def test_axis_pair_branches(self):
        idx = AnisotropicIndex(0.7, 0.2)
        assert idx.evaluate([0.0, 2.0]) == 0.2
        assert idx.evaluate([2.0, 0.0]) == 0.7
        # ties go to the horizontal value
        assert idx.evaluate([1.0, 1.0]) == 0.7

    def test_range_validation(self):
        with pytest.raises(ValueError):
            AnisotropicIndex(1.0, 1.0)
        with pytest.raises(ValueError):
            AnisotropicIndex(0.5, 0.0)

    def test_constant_is_an_equal_axis_pair(self):
        # one law, so one index: the amplitude cache keys on it
        assert parse_index("constant:0.5") == parse_index("axes:0.5,0.5")
        pts = np.random.default_rng(3).normal(size=(40, 2))
        np.testing.assert_array_equal(
            AnisotropicIndex(0.3, 0.3).evaluate(pts), np.full(40, 0.3)
        )

    def test_parse(self):
        assert parse_index("constant:0.5") == AnisotropicIndex(0.5, 0.5)
        assert parse_index("axes:0.7,0.2") == AnisotropicIndex(0.7, 0.2)
        with pytest.raises(ValueError):
            parse_index("axes:0.7")


class TestDensity:
    def test_unit_circle_constant(self):
        model = AnisotropicIndex(0.5, 0.5)
        assert density(model, [1.0, 0.0]) == pytest.approx(1.0)

    def test_axis_pair_values(self):
        model = AnisotropicIndex(0.7, 0.2)
        assert density(model, [0.0, 2.0]) == pytest.approx(2.0 ** (-2.4))
        assert density(model, [2.0, 0.0]) == pytest.approx(2.0 ** (-3.4))

    def test_zero_frequency(self):
        model = AnisotropicIndex(0.5, 0.5)
        with pytest.raises(ZeroFrequency):
            density(model, [0.0, 0.0])

    def test_even(self):
        model = AnisotropicIndex(0.3, 0.8)
        pts = np.random.default_rng(1).normal(size=(50, 2))
        np.testing.assert_array_equal(density(model, pts), density(model, -pts))

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_homogeneity(self, lam):
        model = AnisotropicIndex(0.7, 0.2)
        pts = np.random.default_rng(2).normal(size=(50, 2))
        h = model.evaluate(pts)
        np.testing.assert_allclose(
            density(model, lam * pts),
            lam ** (-(2 * h + 2)) * density(model, pts),
            rtol=1e-12,
        )


class TestWindow:
    def test_indicator_unit(self):
        w = Window1DMinus.indicator_unit()
        assert w(0.5) == 1.0 and w(-0.1) == 0.0 and w(1.1) == 0.0
        assert w.integral == 1.0

    def test_gaussian(self):
        w = Window1DMinus.gaussian(0.2, center=0.5)
        assert w(0.5) == 1.0
        assert w(0.1) == pytest.approx(np.exp(-2.0))
        assert w.integral == pytest.approx(0.2 * np.sqrt(2 * np.pi))

    def test_parse(self):
        assert parse_window("indicator") == Window1DMinus.indicator_unit()
        assert parse_window("gaussian:0.3") == Window1DMinus.gaussian(0.3)
        assert parse_window("gaussian:0.3,0.5") == Window1DMinus.gaussian(0.3, center=0.5)
        with pytest.raises(ValueError):
            parse_window("hann")
        for text in ("gaussian:nan", "gaussian:0.2,inf", "indicator:0.2,0.8", "indicator:"):
            with pytest.raises(ValueError, match=f"bad window spec '{text}'"):
                parse_window(text)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"profile": "gaussian", "sigma": np.nan}, "got sigma nan, center 0"),
            ({"profile": "gaussian", "sigma": np.inf}, "got sigma inf, center 0"),
            ({"profile": "gaussian", "sigma": 0.2, "center": np.inf}, "got sigma 0.2, center inf"),
            ({"profile": "gaussian", "sigma": 0.2, "center": np.nan}, "got sigma 0.2, center nan"),
            ({"profile": "indicator", "sigma": 0.2}, "no sigma or center"),
            ({"profile": "indicator", "center": 0.5}, "no sigma or center"),
        ],
    )
    def test_rejects_non_finite_or_stray_parameters(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Window1DMinus(**kwargs)


def _fit_slope(model, window, exponents):
    ps = 2.0**exponents
    vals = np.array([radon_density(model, window, p) for p in ps])
    return np.polyfit(np.log(ps), np.log(vals), 1)[0]


class TestRadonDensity:
    def test_zero_offset_rejected(self):
        model = AnisotropicIndex(0.5, 0.5)
        with pytest.raises(ZeroFrequency):
            radon_density(model, Window1DMinus.indicator_unit(), 0.0)

    def test_even_and_positive(self):
        model = AnisotropicIndex(0.7, 0.2)
        w = Window1DMinus.gaussian(0.5)
        for p in (0.5, 2.0, 17.0):
            plus = radon_density(model, w, p)
            minus = radon_density(model, w, -p)
            assert plus > 0
            assert plus == pytest.approx(minus, rel=1e-9)

    @pytest.mark.parametrize("h", [0.2, 0.5, 0.7])
    def test_constant_slope(self, h):
        model = AnisotropicIndex(h, h)
        slope = _fit_slope(model, Window1DMinus.indicator_unit(), np.arange(6, 13))
        assert slope == pytest.approx(-(2 * h + 2), abs=0.05)

    def test_axis_pair_slope_picks_vertical(self):
        model = AnisotropicIndex(0.7, 0.2)
        slope = _fit_slope(model, Window1DMinus.indicator_unit(), np.arange(6, 13))
        assert slope == pytest.approx(-2.4, abs=0.05)

    def test_gaussian_window_same_asymptotics(self):
        model = AnisotropicIndex(0.5, 0.5)
        slope = _fit_slope(model, Window1DMinus.gaussian(1.0), np.arange(6, 13))
        assert slope == pytest.approx(-3.0, abs=0.05)

    def test_point_mass_limit(self):
        # A shrinking window concentrates on the axis value of the density.
        model = AnisotropicIndex(0.5, 0.5)
        w = Window1DMinus.gaussian(1e-3)
        for p in (1.0, 2.0):
            assert radon_density(model, w, p) == pytest.approx(abs(p) ** -3, rel=1e-3)

    def test_stalled_refinement_raises(self, monkeypatch):
        from anisofield import spectral as spectral_mod
        from anisofield import QuadratureFailure

        # an unreachable tolerance must surface as a failure, not a value
        monkeypatch.setattr(spectral_mod, "_QUAD_RTOL", 0.0)
        model = AnisotropicIndex(0.7, 0.2)
        with pytest.raises(QuadratureFailure):
            radon_density(model, Window1DMinus.gaussian(0.3), 0.25)


def test_import_leaves_quadrature_unloaded():
    # only radon_density integrates, so only its first call loads
    # scipy.integrate and what that pulls in; the baseline is what
    # scipy.special and scipy.fft load by themselves (older scipy.special
    # brings scipy.linalg and scipy.sparse along)
    code = """
import sys
heavy = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")
import scipy.special, scipy.fft
base = {m for m in heavy if m in sys.modules}
import anisofield
print(",".join(m for m in heavy if m in sys.modules and m not in base))
val = anisofield.radon_density(
    anisofield.AnisotropicIndex(0.5, 0.5), anisofield.Window1DMinus.indicator_unit(), 256.0
)
print(val, "scipy.integrate" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, line = proc.stdout.splitlines()
    assert loaded == ""
    val, integrated = line.split()
    assert float(val) == pytest.approx(256.0 ** -3, rel=1e-3)
    assert integrated == "True"
