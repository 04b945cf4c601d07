import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisofield import (
    AnisotropicIndex,
    DiscreteFilter,
    EqualDilations,
    GridTooCoarse,
    NonFiniteVariation,
    PathTooShort,
    ZeroVariation,
    afb_sra,
    axis_projections,
    binomial_filter,
    check_level,
    derived_stream,
    estimate_H,
    estimate_pair,
    estimate_projection,
    fbm_path,
    log_ratio_at_level,
    project_axis,
    quad_variation,
)
from anisofield import theory

A2 = binomial_filter(2)


class TestQuadVariation:
    def test_affine_annihilated(self):
        N = 64
        t = np.arange(N + 1) / N
        for u in (1, 2, 3):
            assert quad_variation(1.7 + 0.3 * t, A2, u) <= 1e-20

    def test_quadratic_closed_form(self):
        # second difference of (k/N)^2 is the constant 2/N^2
        N = 32
        t = np.arange(N + 1) / N
        assert quad_variation(t**2, A2, 1) == pytest.approx(4.0 / N**4, rel=1e-12)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=65)
        v1 = quad_variation(vals, A2, 2)
        v2 = quad_variation(5.0 * vals, A2, 2)
        assert v2 == pytest.approx(25.0 * v1, rel=1e-12)

    def test_dilated_filter_equals_dilation_factor(self):
        # filter (1,0,-2,0,1) at step 1 == filter (1,-2,1) at dilation 2
        rng = np.random.default_rng(1)
        vals = rng.normal(size=129)
        spread = DiscreteFilter((1.0, 0.0, -2.0, 0.0, 1.0))
        assert quad_variation(vals, spread, 1) == quad_variation(vals, A2, 2)

    def test_path_too_short(self):
        with pytest.raises(PathTooShort):
            quad_variation(np.zeros(2), A2, 1)

    def test_spec_needs_two_summands(self):
        # the 2-step filter dilated by 8 spans 16 steps: 17 values leave
        # one summand, 18 leave two
        with pytest.raises(PathTooShort):
            quad_variation(np.zeros(17), A2, 8)
        # second difference of k^2 at dilation 8 is the constant 2 * 8^2
        assert quad_variation(np.arange(18.0) ** 2, A2, 8) == 128.0**2


class TestEstimateH:
    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=257).cumsum()
        base = estimate_H(vals, A2, 2, 1)
        # powers of two scale without rounding, so the estimate is bitwise equal
        assert estimate_H(4 * vals, A2, 2, 1) == base
        # other factors round per element; the log-ratio still cancels them
        assert estimate_H(3 * vals, A2, 2, 1) == pytest.approx(base, abs=1e-12)

    def test_zero_variation_on_line(self):
        t = np.arange(65) / 64
        with pytest.raises(ZeroVariation):
            estimate_H(t, A2, 2, 1)

    def test_equal_dilations(self):
        with pytest.raises(EqualDilations):
            estimate_H(np.zeros(65), A2, 2, 2)

    def test_non_finite_path_rejected(self):
        vals = fbm_path(0.5, 64, 3)[0].copy()
        vals[10] = np.nan
        with pytest.raises(NonFiniteVariation):
            estimate_H(vals, A2, 2, 1)

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
    model = AnisotropicIndex(0.7, 0.2)
    return afb_sra(model, 256, 99)[0]


def _index(field, direction, nu=0, a=A2):
    return estimate_projection(project_axis(field, direction), nu, a)[0]


class TestEstimateDirection:
    """The directional index of one axis projection."""

    def test_matches_manual_pipeline(self, sra_field):
        # striding the projection then taking both variations reproduces
        # the subsampled code path exactly
        for nu in (0, 1, 2):
            for direction in ("horizontal", "vertical"):
                values = project_axis(sra_field, direction)
                sub = values[:: 1 << nu]
                t1 = quad_variation(sub, A2, 1)
                t2 = quad_variation(sub, A2, 2)
                manual = math.log(t2 / t1) / (2 * math.log(2)) - 0.5
                assert estimate_projection(values, nu) == (manual, t1, t2)

    def test_block_matches_series_one_at_a_time(self):
        # numpy's log differs from math.log in the last bit for about one
        # ratio in 2000, so many series are needed to show the difference
        x = np.cumsum(np.random.default_rng(3).normal(size=(10_000, 17)), axis=-1)
        r, v_v, v_u = log_ratio_at_level(x, 0, A2, 2, 1)
        for i, series in enumerate(x):
            assert (r[i], v_v[i], v_u[i]) == log_ratio_at_level(series, 0, A2, 2, 1)

    def test_negative_level_rejected(self, sra_field):
        values = project_axis(sra_field, "horizontal")
        for call in (estimate_projection, lambda x, nu: log_ratio_at_level(x, nu, A2, 2, 1)):
            with pytest.raises(ValueError, match="nu must be >= 0"):
                call(values, -1)

    def test_other_dilations(self, sra_field):
        # T_1 and T_2 are the variations at v and u, whatever u and v are
        values = project_axis(sra_field, "horizontal")
        a3 = binomial_filter(3)
        r, v_v, v_u = log_ratio_at_level(values, 1, a3, 3, 1)
        assert estimate_projection(values, 1, a3, 3, 1) == (r - 0.5, v_v, v_u)
        assert v_u == quad_variation(values[::2], a3, 3)
        assert v_v == quad_variation(values[::2], a3, 1)

    def test_field_scaling_invariance(self, sra_field):
        doubled = 2.0 * sra_field
        scaled = 10.0 * sra_field
        for direction in ("horizontal", "vertical"):
            base = _index(sra_field, direction)
            assert _index(doubled, direction) == base
            assert _index(scaled, direction) == pytest.approx(base, abs=1e-12)

    def test_shift_and_trend_invariance(self, sra_field):
        # adding a constant plus an affine trend in the varying coordinate
        # leaves an order-2 variation unchanged up to round-off
        M = sra_field.shape[0] - 1
        t = np.arange(M + 1) / M
        shifted = sra_field + 5.0 + 2.0 * t[:, None]
        base = _index(sra_field, "horizontal")
        assert _index(shifted, "horizontal") == pytest.approx(base, abs=1e-10)

    def test_too_coarse(self, sra_field):
        with pytest.raises(GridTooCoarse):
            _index(sra_field, "horizontal", 6)

    def test_non_finite_field_rejected(self, sra_field):
        values = sra_field.copy()
        values[5, 7] = np.inf
        # the horizontal projection at dilation u = 2 is checked first
        with pytest.raises(NonFiniteVariation, match=r"is inf \(dilation 2\)"):
            estimate_pair(axis_projections(values), (0,))

    def test_out_of_range_flag(self):
        t = np.arange(65) / 64.0
        smooth = np.outer(t**2, np.ones(65))
        assert _index(smooth, "horizontal") > 1.0  # a C^2 ramp estimates far above 1


class TestCheckLevel:
    def test_steps_and_filter_length(self):
        check_level(64, 3, A2, 2)
        with pytest.raises(GridTooCoarse, match="fewer than 8 steps"):
            check_level(64, 4, A2, 2)
        with pytest.raises(GridTooCoarse, match="fewer than 8 steps"):
            check_level(60, 3, A2, 2)  # 8 does not divide 60
        # six taps at dilation 2 span 10 steps, more than the 8 at nu = 3
        with pytest.raises(GridTooCoarse, match="6-tap filter at dilation 2"):
            check_level(64, 3, binomial_filter(5), 2)
        with pytest.raises(ValueError):
            check_level(64, -1, A2, 2)


class TestEstimatePair:
    def test_difference_composition(self, sra_field):
        # one projection per axis, strided per level, reproduces the
        # per-level directional estimates bit for bit
        nus = (0, 1, 2, 3)
        for a in (binomial_filter(2), binomial_filter(3)):
            pairs = estimate_pair(axis_projections(sra_field), nus, a)
            assert pairs.shape == (len(nus), 2)
            for nu, (h_h, h_v) in zip(nus, pairs):
                e_h = _index(sra_field, "horizontal", nu, a)
                e_v = _index(sra_field, "vertical", nu, a)
                assert (h_h, h_v, h_h - h_v) == (e_h, e_v, e_h - e_v)

    def test_too_coarse_level_rejected(self, sra_field):
        with pytest.raises(GridTooCoarse):
            estimate_pair(axis_projections(sra_field), (0, 6))

    @pytest.mark.parametrize("order", [2, 3])
    def test_block_matches_fields(self, order):
        # a block of projection pairs, with any leading shape, gives at
        # every level the estimates of its fields one at a time, bit for bit
        a = binomial_filter(order)
        model = AnisotropicIndex(0.7, 0.2)
        fields = [afb_sra(model, 64, derived_stream(21, i))[0] for i in range(6)]
        block = np.stack([axis_projections(f) for f in fields]).reshape(2, 3, 2, 65)
        nus = (0, 1, 2, 3)
        pairs = estimate_pair(block, nus, a)
        assert pairs.shape == (2, 3, len(nus), 2)
        for i, field in enumerate(fields):
            singles = estimate_pair(axis_projections(field), nus, a)
            for nu, got, single in zip(nus, pairs[divmod(i, 3)], singles):
                e_h = _index(field, "horizontal", nu, a)
                e_v = _index(field, "vertical", nu, a)
                assert tuple(got) == tuple(single) == (e_h, e_v)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h_h=st.sampled_from([0.2, 0.5, 0.7]))
    def test_transpose_negates_difference(self, seed, h_h):
        # at every level the transposed field swaps the two indices bit for bit
        model = AnisotropicIndex(h_h, 0.4)
        field = afb_sra(model, 64, seed)[0]
        flipped = field.T.copy()
        nus = (0, 1, 2, 3)
        pairs = [estimate_pair(axis_projections(f), nus) for f in (field, flipped)]
        for (a_h, a_v), (b_h, b_v) in zip(*pairs):
            assert a_h == b_v and a_v == b_h
            assert a_h - a_v == -(b_h - b_v)

    def test_isotropic_difference_small(self):
        model = AnisotropicIndex(0.5, 0.5)
        fields = (afb_sra(model, 128, derived_stream(14, i))[0] for i in range(400))
        diffs = [np.subtract(*estimate_pair(axis_projections(f))[0]) for f in fields]
        assert abs(np.mean(diffs)) <= 0.02
