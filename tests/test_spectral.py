import re
import subprocess
import sys

import numpy as np
import pytest

from anisofield import (
    AnisotropicIndex,
    InvalidArgument,
    Window1DMinus,
    density,
    fbm_path,
    parse_index,
    parse_window,
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
        with pytest.raises(InvalidArgument, match="singular at the zero frequency"):
            density(model, [0.0, 0.0])

    def test_nan_frequency_rejected(self):
        # an infinite frequency keeps its limit 0; a NaN one has no value
        model = AnisotropicIndex(0.7, 0.2)
        for xi in ([np.nan, 1.0], [[1.0, 2.0], [1.0, np.nan]], [np.inf, np.nan]):
            with pytest.raises(ValueError, match="not NaN"):
                density(model, xi)
        assert density(model, [np.inf, 1.0]) == 0.0
        np.testing.assert_array_equal(
            density(model, [[-np.inf, 0.0], [2.0, np.inf]]), [0.0, 0.0]
        )

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
    def test_gaussian(self):
        w = Window1DMinus(0.2, center=0.5)
        assert w(0.5) == 1.0
        assert w(0.1) == pytest.approx(np.exp(-2.0))

    def test_parse(self):
        assert parse_window("gaussian:0.3") == Window1DMinus(0.3)
        assert parse_window("gaussian:0.3,0.5") == Window1DMinus(0.3, center=0.5)
        with pytest.raises(ValueError):
            parse_window("hann")
        # no spec stands for the footprint: no window is the plain sum
        bad = ("gaussian:nan", "gaussian:0.2,inf", "indicator", "indicator:0.2,0.8", "indicator:")
        for text in bad:
            with pytest.raises(ValueError, match=f"bad window spec '{text}'"):
                parse_window(text)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"sigma": np.nan}, "got sigma nan, center 0"),
            ({"sigma": np.inf}, "got sigma inf, center 0"),
            ({"sigma": 0.2, "center": np.inf}, "got sigma 0.2, center inf"),
            ({"sigma": 0.2, "center": np.nan}, "got sigma 0.2, center nan"),
        ],
    )
    def test_rejects_non_finite_or_stray_parameters(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Window1DMinus(**kwargs)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: AnisotropicIndex("0.5", 0.5), "index value '0.5'"),
        (lambda: Window1DMinus("0.2"), "window sigma '0.2'"),
        (lambda: Window1DMinus(True), "window sigma True"),
        (lambda: Window1DMinus(0.2, "0.5"), "window center '0.5'"),
        (lambda: fbm_path("0.5", 8, 0), "H = '0.5'"),
    ],
    ids=["index-str", "sigma-str", "sigma-bool", "center-str", "hurst-str"],
)
def test_real_parameter_named(call, message):
    # one rule for every real parameter; ExperimentConfig's hursts entries
    # follow it too (tests/test_harness.py)
    with pytest.raises(ValueError, match=f"^{re.escape(message)} is not a real number$"):
        call()


def _fit_slope(model, exponents):
    # log-log slope of density(model, (gamma, p)) integrated over the grid
    # footprint gamma in [0, 1]; for p >= 2^6 the integrand is smooth in
    # gamma, so a 16-node Gauss-Legendre rule is exact to rounding
    nodes, weights = np.polynomial.legendre.leggauss(16)
    gammas = 0.5 * (nodes + 1.0)
    ps = 2.0**exponents
    xi = np.stack(np.broadcast_arrays(gammas, ps[:, None]), axis=-1)
    vals = 0.5 * density(model, xi) @ weights
    return np.polyfit(np.log(ps), np.log(vals), 1)[0]


class TestRadonDensity:
    """The density's Radon transform decays as |p|^(-2 h(axis) - 2)."""

    @pytest.mark.parametrize("h", [0.2, 0.5, 0.7])
    def test_constant_slope(self, h):
        model = AnisotropicIndex(h, h)
        slope = _fit_slope(model, np.arange(6, 13))
        assert slope == pytest.approx(-(2 * h + 2), abs=0.05)

    def test_axis_pair_slope_picks_vertical(self):
        model = AnisotropicIndex(0.7, 0.2)
        slope = _fit_slope(model, np.arange(6, 13))
        assert slope == pytest.approx(-2.4, abs=0.05)


def test_import_leaves_quadrature_unloaded():
    # numpy is the package's only runtime dependency: the import loads no
    # scipy module
    code = """
import sys
import anisofield
print(",".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
