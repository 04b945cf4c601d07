import math

import numpy as np
import pytest

from anisofield import (
    AnisotropicIndex,
    EqualDilations,
    GridField2D,
    GridTooCoarse,
    NonFiniteVariation,
    PathTooShort,
    SampledPath,
    SpectralModel,
    VariationSpec,
    ZeroVariation,
    afb_sra,
    binomial_filter,
    derived_stream,
    dilate,
    estimate_H,
    estimate_direction,
    estimate_pair,
    fbm_path,
    project_axis,
    quad_variation,
)
from anisofield import theory

A2 = binomial_filter(2)


def _path(values, hurst=None):
    return SampledPath(values=np.asarray(values, dtype=float), hurst_true=hurst)


class TestQuadVariation:
    def test_affine_annihilated(self):
        N = 64
        t = np.arange(N + 1) / N
        for u in (1, 2, 3):
            v = quad_variation(_path(1.7 + 0.3 * t), VariationSpec(A2, u, N))
            assert v <= 1e-20

    def test_quadratic_closed_form(self):
        # second difference of (k/N)^2 is the constant 2/N^2
        N = 32
        t = np.arange(N + 1) / N
        v = quad_variation(_path(t**2), VariationSpec(A2, 1, N))
        assert v == pytest.approx(4.0 / N**4, rel=1e-12)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=65)
        spec = VariationSpec(A2, 2, 64)
        v1 = quad_variation(_path(vals), spec)
        v2 = quad_variation(_path(5.0 * vals), spec)
        assert v2 == pytest.approx(25.0 * v1, rel=1e-12)

    def test_dilated_filter_equals_dilation_factor(self):
        # filter (1,0,-2,0,1) at step 1 == filter (1,-2,1) at dilation 2
        rng = np.random.default_rng(1)
        vals = rng.normal(size=129)
        lhs = quad_variation(_path(vals), VariationSpec(dilate(A2, 2), 1, 128))
        rhs = quad_variation(_path(vals), VariationSpec(A2, 2, 128))
        assert lhs == rhs

    def test_path_too_short(self):
        with pytest.raises(PathTooShort):
            quad_variation(_path(np.zeros(10)), VariationSpec(A2, 1, 32))

    def test_spec_needs_two_summands(self):
        with pytest.raises(ValueError):
            VariationSpec(A2, 8, 16)


class TestEstimateH:
    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=257).cumsum()
        base = estimate_H(_path(vals), A2, 2, 1)
        # powers of two scale without rounding, so the estimate is bitwise equal
        assert estimate_H(_path(4 * vals), A2, 2, 1) == base
        # other factors round per element; the log-ratio still cancels them
        assert estimate_H(_path(3 * vals), A2, 2, 1) == pytest.approx(base, abs=1e-12)

    def test_zero_variation_on_line(self):
        t = np.arange(65) / 64
        with pytest.raises(ZeroVariation):
            estimate_H(_path(t), A2, 2, 1)

    def test_equal_dilations(self):
        with pytest.raises(EqualDilations):
            estimate_H(_path(np.zeros(65)), A2, 2, 2)

    def test_non_finite_path_rejected(self):
        vals = fbm_path(0.5, 64, 3)[0].values.copy()
        vals[10] = np.nan
        with pytest.raises(NonFiniteVariation):
            estimate_H(_path(vals), A2, 2, 1)

    def test_fbm_mean_recovers_h(self):
        reps, N, H = 1000, 4096, 0.5
        ests = np.array(
            [
                estimate_H(fbm_path(H, N, derived_stream(10, i))[0], A2, 2, 1)
                for i in range(reps)
            ]
        )
        assert abs(ests.mean() - H) <= 0.01

    def test_variance_matches_limit_constant(self):
        # N * Var(H_hat) approaches the delta-method limit variance.
        reps, N, H = 2000, 4096, 0.5
        ests = np.array(
            [
                estimate_H(fbm_path(H, N, derived_stream(11, i))[0], A2, 2, 1)
                for i in range(reps)
            ]
        )
        gamma = theory.gamma_const(A2, 2, 1, H)
        assert N * ests.var(ddof=1) == pytest.approx(gamma, rel=0.25)

    @pytest.mark.parametrize("H", [0.2, 0.5, 0.7])
    def test_consistency_in_n(self, H):
        # |mean - H| shrinks with N, within Monte Carlo error bands.
        reps = 600
        lengths = [512, 1024, 2048, 4096]
        biases, bands = [], []
        for N in lengths:
            ests = np.array(
                [
                    estimate_H(fbm_path(H, N, derived_stream(12, int(10 * H), i))[0], A2, 2, 1)
                    for i in range(reps)
                ]
            )
            biases.append(abs(ests.mean() - H))
            bands.append(2.0 * ests.std(ddof=1) / math.sqrt(reps))
        for k in range(1, len(lengths)):
            assert biases[k] <= biases[k - 1] + bands[k] + bands[k - 1]

    def test_low_order_filter_bias_guard(self):
        # An order-1 filter at H=0.95 is visibly worse than order 2.
        a1 = binomial_filter(1)
        reps, N, H = 400, 1024, 0.95
        e1, e2 = [], []
        for i in range(reps):
            path = fbm_path(H, N, derived_stream(13, i))[0]
            e1.append(estimate_H(path, a1, 2, 1))
            e2.append(estimate_H(path, A2, 2, 1))
        bias1 = abs(np.mean(e1) - H)
        bias2 = abs(np.mean(e2) - H)
        assert bias1 > bias2


@pytest.fixture(scope="module")
def sra_field():
    model = SpectralModel(AnisotropicIndex.axis_pair(0.7, 0.2))
    return afb_sra(model, 256, 99)[0]


class TestEstimateDirection:
    def test_matches_manual_pipeline(self, sra_field):
        # striding the projection then running the unstrided estimator
        # reproduces the subsampled code path exactly
        M = sra_field.grid_size
        for nu in (0, 1, 2):
            for direction in ("horizontal", "vertical"):
                est = estimate_direction(sra_field, direction, nu)
                sub = project_axis(sra_field, direction).values[:: 1 << nu]
                n = M >> nu
                t1 = quad_variation(_path(sub), VariationSpec(A2, 1, n))
                t2 = quad_variation(_path(sub), VariationSpec(A2, 2, n))
                manual = math.log(t2 / t1) / (2 * math.log(2)) - 0.5
                assert est.value == manual
                assert est.variations == (t1, t2)

    def test_field_scaling_invariance(self, sra_field):
        doubled = GridField2D(values=2.0 * sra_field.values)
        scaled = GridField2D(values=10.0 * sra_field.values)
        for direction in ("horizontal", "vertical"):
            base = estimate_direction(sra_field, direction, 0).value
            assert estimate_direction(doubled, direction, 0).value == base
            assert estimate_direction(scaled, direction, 0).value == pytest.approx(
                base, abs=1e-12
            )

    def test_shift_and_trend_invariance(self, sra_field):
        # adding a constant plus an affine trend in the varying coordinate
        # leaves an order-2 variation unchanged up to round-off
        M = sra_field.grid_size
        t = np.arange(M + 1) / M
        shifted = GridField2D(values=sra_field.values + 5.0 + 2.0 * t[:, None])
        base = estimate_direction(sra_field, "horizontal", 0).value
        moved = estimate_direction(shifted, "horizontal", 0).value
        assert moved == pytest.approx(base, abs=1e-10)

    def test_too_coarse(self, sra_field):
        with pytest.raises(GridTooCoarse):
            estimate_direction(sra_field, "horizontal", 6)

    def test_non_finite_field_rejected(self, sra_field):
        values = sra_field.values.copy()
        values[5, 7] = np.inf
        with pytest.raises(NonFiniteVariation):
            estimate_pair(GridField2D(values=values), (0,))

    def test_out_of_range_flag(self):
        t = np.arange(65) / 64.0
        smooth = GridField2D(values=np.outer(t**2, np.ones(65)))
        est = estimate_direction(smooth, "horizontal", 0)
        assert est.out_of_range  # a C^2 ramp estimates far above 1


class TestEstimatePair:
    def test_difference_composition(self, sra_field):
        # one projection per axis, strided per level, reproduces the
        # per-level directional estimates bit for bit
        nus = (0, 1, 2, 3)
        for a in (binomial_filter(2), binomial_filter(3)):
            pairs = estimate_pair(sra_field, nus, a)
            assert len(pairs) == len(nus)
            for nu, pair in zip(nus, pairs):
                e_h = estimate_direction(sra_field, "horizontal", nu, a).value
                e_v = estimate_direction(sra_field, "vertical", nu, a).value
                assert pair == (e_h, e_v, e_h - e_v)

    def test_too_coarse_level_rejected(self, sra_field):
        with pytest.raises(GridTooCoarse):
            estimate_pair(sra_field, (0, 6))

    def test_transpose_negates_difference(self, sra_field):
        flipped = GridField2D(values=sra_field.values.T.copy())
        (a,) = estimate_pair(sra_field, (1,))
        (b,) = estimate_pair(flipped, (1,))
        assert a.difference == -b.difference
        assert a.h_h == b.h_v and a.h_v == b.h_h

    def test_isotropic_difference_small(self):
        model = SpectralModel(AnisotropicIndex.constant(0.5))
        diffs = [
            estimate_pair(afb_sra(model, 128, derived_stream(14, i))[0])[0].difference
            for i in range(400)
        ]
        assert abs(np.mean(diffs)) <= 0.02
