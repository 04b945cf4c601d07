import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.special import zeta

from anisofield import (
    DiscreteFilter,
    InvalidArgument,
    OrderTooLow,
    binomial_filter,
    cross_transfer,
    derived_stream,
    estimate_H,
    fbm_path,
    quad_variation,
)
from anisofield import theory

A2 = binomial_filter(2)
A1 = binomial_filter(1)
A3 = binomial_filter(3)


def _j_const(H: float) -> float:
    """integral over (0, inf) of (1 - cos t) t^(-2H-1), continued in H."""
    if H == 0.5:
        return math.pi / 2
    return -gamma_fn(-2 * H) * math.cos(math.pi * H)


def _fourier_oracle(coeffs, u, v, H, p):
    """Time-domain route: the same Fourier coefficient equals the filtered
    fractional covariance -2 J(H) sum_jk a_j a_k |p + ju - kv|^(2H)."""
    p = np.asarray(p, dtype=float)
    s = np.zeros_like(p)
    for j, aj in enumerate(coeffs):
        for k, ak in enumerate(coeffs):
            s = s + aj * ak * np.abs(p + j * u - k * v) ** (2 * H)
    out = -2.0 * _j_const(H) * s
    return float(out) if out.ndim == 0 else out


def _e(a, u, H) -> float:
    """E at dilation u: Gamma at p = 0 of the pair (1, 1), times u^(2H)."""
    return theory.Gamma_fourier(a, 1, 1, H, 0) * float(u) ** (2.0 * H)


def _c(a, u, v, H) -> float:
    """C of the dilation pair (u, v): the C_uv of its bundle, or for u == v,
    which no bundle holds as its cross pair, the one pass on that pair."""
    if u == v:
        return float(theory._constants(a, H, [(u, u)])[1][0])
    return theory.asymptotic_constants(a, u, v, H).C_uv


def _c_oracle(coeffs, u, v, H, p_max=200_000) -> float:
    g = _fourier_oracle(coeffs, u, v, H, np.arange(-p_max, p_max + 1))
    return 2.0 * float(np.sum(g * g))


def _weight_folded(xi: float, H: float) -> float:
    """|xi|^(-2H-1) summed over xi, xi + 2 pi, xi + 4 pi, ...; the integrands
    using it vanish at xi = 0, so 0 is the right endpoint value there."""
    if xi == 0.0:
        return 0.0
    s = 2.0 * H + 1.0
    return xi ** (-s) + (2.0 * math.pi) ** (-s) * float(zeta(s, 1.0 + xi / (2.0 * math.pi)))


def _quad_oracle(a, u, v, H, p) -> float:
    """Frequency-domain route: integral of e^{-ip xi} h(xi) |xi|^(-2H-1)
    over the line.  The transfer product is 2 pi-periodic, so the half
    line folds onto one period with a Hurwitz-zeta weight, and QUADPACK's
    cos/sin-weighted rules take the oscillating factor."""

    def half(part, weight=None):
        def f(xi):
            return part(cross_transfer(a, u, v, xi)) * _weight_folded(xi, H)

        kw = {"weight": weight, "wvar": abs(p), "maxp1": 100} if weight else {}
        with warnings.catch_warnings():
            # roundoff stalls below the target tolerance are harmless here
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(
                f, 0.0, 2.0 * math.pi, limit=400, epsabs=1e-13, epsrel=1e-10, **kw
            )
        return val

    if p == 0:
        return 2.0 * half(lambda z: z.real)
    val = half(lambda z: z.real, "cos")
    if u != v:
        val += math.copysign(1.0, p) * half(lambda z: z.imag, "sin")
    return 2.0 * val


def _parseval_oracle(a, u, v, H) -> float:
    """Frequency-domain route to C: by Parseval, 2 sum_p Gamma(p)^2 is
    4 pi times the integral of |h|^2 F^2 over one period, F being the
    density folded onto it.  |h|^2 F^2 is even about pi, so the period
    halves onto (0, pi)."""

    def f(xi):
        folded = _weight_folded(xi, H) + _weight_folded(2.0 * math.pi - xi, H)
        return abs(cross_transfer(a, u, v, xi)) ** 2 * folded**2

    val, _ = integrate.quad(f, 0.0, math.pi, limit=400, epsabs=0.0, epsrel=1e-12)
    return 8.0 * math.pi * val


class TestEConst:
    def test_four_pi(self):
        assert _e(A2, 1, 0.5) == pytest.approx(4 * math.pi, rel=1e-6)

    def test_dilation_prefactor(self):
        for H in (0.2, 0.5, 0.9):
            e1 = _e(A2, 1, H)
            assert _e(A2, 2, H) == pytest.approx(2 ** (2 * H) * e1, rel=1e-10)

    @pytest.mark.parametrize("H", [0.2, 0.7, 1.2])
    def test_closed_form_oracle(self, H):
        assert _e(A2, 1, H) == pytest.approx(
            _quad_oracle(A2, 1, 1, H, 0), rel=1e-8
        )

    def test_integer_h_limit(self):
        # sin(pi H) = 0 at H = 1; the x^2 log|x| limit gives 8 log 2
        assert _e(A2, 1, 1.0) == pytest.approx(8 * math.log(2), rel=1e-15)
        assert _e(A2, 1, 1.0) == pytest.approx(
            _quad_oracle(A2, 1, 1, 1.0, 0), rel=1e-8
        )

    def test_order_too_low(self):
        with pytest.raises(OrderTooLow):
            _e(A1, 1, 1.1)
        with pytest.raises(OrderTooLow):
            _e(A2, 1, 2.0)


class TestGammaFourier:
    def test_p_zero_equals_e(self):
        # E at dilation 1, as the bundle's one pass reads it
        for H in (0.3, 0.8):
            assert theory.Gamma_fourier(A2, 1, 1, H, 0) == pytest.approx(
                theory.asymptotic_constants(A2, 2, 1, H).E_v, rel=1e-10
            )

    def test_sign_symmetry_equal_dilations(self):
        for p in (1, 5, 17):
            assert theory.Gamma_fourier(A2, 2, 2, 0.7, p) == theory.Gamma_fourier(
                A2, 2, 2, 0.7, -p
            )

    @pytest.mark.parametrize("H", [0.2, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("uv", [(1, 1), (2, 2), (2, 1)])
    def test_time_domain_oracle(self, H, uv):
        u, v = uv
        for p in (0, 1, -1, 2, -3, 8, -16, 64):
            closed = theory.Gamma_fourier(A2, u, v, H, p)
            oracle = _quad_oracle(A2, u, v, H, p)
            assert closed == pytest.approx(oracle, abs=2e-8, rel=1e-7)

    def test_array_p_matches_scalar(self):
        ps = np.arange(-20, 21)
        vec = theory.Gamma_fourier(A2, 3, 2, 0.7, ps)
        scalar = [theory.Gamma_fourier(A2, 3, 2, 0.7, int(p)) for p in ps]
        np.testing.assert_allclose(vec, scalar, rtol=1e-10)

    def test_brownian_coefficients_vanish_beyond_support(self):
        # At H = 1/2 the filtered covariance has finite support, so the
        # decay bound holds with room to spare.
        g0 = theory.Gamma_fourier(A2, 1, 1, 0.5, 0)
        for p in (3, 8, 32, 128):
            assert abs(theory.Gamma_fourier(A2, 1, 1, 0.5, p)) <= 1e-8 * g0

    def test_decay_rate(self):
        # Power-law fit where the decay is genuine (H != 1/2).
        ps = np.array([8, 16, 32, 64, 128])
        vals = np.array([abs(theory.Gamma_fourier(A2, 1, 1, 0.7, int(p))) for p in ps])
        slope = np.polyfit(np.log(ps), np.log(vals), 1)[0]
        assert slope <= -0.9  # bound (1+p)^(-delta); true rate is 2H-4

    @pytest.mark.parametrize("H", [0.2, 0.7, 0.95, 1.0, 1.2])
    @pytest.mark.parametrize("uv", [(1, 1), (2, 1), (3, 2)])
    def test_analytic_decay_bound(self, H, uv):
        # Gamma's power-law decay beyond the taps' reach, with the constant
        # of its binomial tail: |Gamma(p)| <= B (|p| - L)^(2H - 2K) for
        # |p| > L = 2 max(u, v)
        u, v = uv
        L = 2 * max(u, v)
        m2 = 3.0  # sum_j |a_j| j^2 / 2! for (1, -2, 1)
        B = 2 * abs(math.cos(math.pi * H)) * gamma_fn(4 - 2 * H) * (u * v) ** 2 * m2**2
        p = np.concatenate([np.arange(-L - 200, -L), np.arange(L + 1, L + 201)])
        g = theory.Gamma_fourier(A2, u, v, H, p)
        assert np.all(np.abs(g) <= B * (np.abs(p) - L) ** (2 * H - 4) * (1 + 1e-6))


class TestCConst:
    def test_closed_forms_brownian(self):
        # finite-support covariances at H = 1/2 sum exactly
        bundle = theory.asymptotic_constants(A2, 2, 1, 0.5)
        assert bundle.C_vv == pytest.approx(48 * math.pi**2, rel=1e-9)
        assert bundle.C_uu == pytest.approx(224 * math.pi**2, rel=1e-9)
        assert bundle.C_uv == pytest.approx(48 * math.pi**2, rel=1e-9)

    def test_positive(self):
        assert theory.asymptotic_constants(A2, 2, 1, 0.5).C_vv > 0

    def test_symmetric_in_uv(self):
        assert theory.asymptotic_constants(A2, 2, 1, 0.7).C_uv == pytest.approx(
            theory.asymptotic_constants(A2, 1, 2, 0.7).C_uv, rel=1e-9
        )

    @pytest.mark.parametrize("H", [0.2, 0.3, 0.7])
    def test_series_oracle(self, H):
        bundle = theory.asymptotic_constants(A2, 2, 1, H)
        for c, (u, v) in ((bundle.C_vv, (1, 1)), (bundle.C_uv, (2, 1))):
            assert c == pytest.approx(_c_oracle((1, -2, 1), u, v, H), rel=1e-5)

    def test_cauchy_schwarz(self):
        for H in (0.2, 0.5, 0.7, 0.9):
            for u, v in ((2, 1), (3, 1), (3, 2)):
                bundle = theory.asymptotic_constants(A2, u, v, H)
                assert bundle.C_uv**2 <= bundle.C_uu * bundle.C_vv + 1e-9

    def test_order_too_low(self):
        with pytest.raises(OrderTooLow):
            theory.asymptotic_constants(A1, 2, 1, 0.8)  # needs K > H + 1/4

    @pytest.mark.parametrize("q", [5.0, 9.0, 13.0, 17.0, 33.0])
    def test_hurwitz_zeta_oracle(self, q):
        # the tail's Euler-Maclaurin zeta against scipy's, at cutoffs
        # P + 1 of 2- to 5-tap filters, down to the exponents next to 1
        # that H just below K - 1/4 gives
        s = np.concatenate([np.linspace(1.01, 3.5, 60), np.linspace(3.5, 100.0, 400)])
        rel = theory._hurwitz_zeta(s, q) / zeta(s, q) - 1.0
        assert np.abs(rel).max() <= 2e-15

    @pytest.mark.parametrize(
        "a, H",
        [(A2, 1.31), (A2, 1.45), (A2, 1.6), (A3, 1.5), (A3, 2.2), (A1, 0.52)],
        ids=["A2-1.31", "A2-1.45", "A2-1.6", "A3-1.5", "A3-2.2", "A1-0.52"],
    )
    @pytest.mark.parametrize("uv", [(1, 1), (2, 1), (3, 2)])
    def test_parseval_oracle(self, a, H, uv):
        # close to K - 1/4 the power-law tail carries much of C
        with warnings.catch_warnings():
            # roundoff stalls below the target tolerance are harmless here
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            oracle = _parseval_oracle(a, *uv, H)
        assert _c(a, *uv, H) == pytest.approx(oracle, rel=1e-7)

    @pytest.mark.parametrize(
        "a", [A2, A3, binomial_filter(4), DiscreteFilter((1, -2, 0, 2, -1))],
        ids=["binomial2", "binomial3", "binomial4", "antisymmetric3"],
    )
    def test_finite_up_to_divergence(self, a):
        # C diverges only as H reaches K - 1/4
        for H in np.arange(1, 100 * a.order - 25) / 100:
            for u, v in ((1, 1), (2, 1), (3, 2)):
                c = _c(a, u, v, H)
                assert math.isfinite(c) and c > 0.0, (H, u, v, c)


class TestGammaConst:
    def test_brownian_closed_form(self):
        assert theory.gamma_const(A2, 2, 1, 0.5) == pytest.approx(
            7.0 / (8.0 * math.log(2) ** 2), rel=1e-9
        )

    def test_equal_dilations(self):
        with pytest.raises(InvalidArgument, match="gamma is undefined for equal dilations"):
            theory.gamma_const(A2, 2, 2, 0.5)

    def test_swap_invariant(self):
        assert theory.gamma_const(A2, 2, 1, 0.7) == pytest.approx(
            theory.gamma_const(A2, 1, 2, 0.7), rel=1e-9
        )

    @pytest.mark.parametrize(
        "H, quadrature",
        # the values the frequency-domain quadrature gave at H = 1 and 1.2
        [(1.0, 1.1699939199291816), (1.2, 0.9157455297074578)],
    )
    def test_integer_and_large_h(self, H, quadrature):
        assert theory.gamma_const(A2, 2, 1, H) == pytest.approx(quadrature, rel=1e-6)

    def test_nonnegative(self):
        for H in (0.2, 0.5, 0.9):
            assert theory.gamma_const(A2, 2, 1, H) >= 0.0

    @pytest.mark.parametrize("dH", [1e-9, -1e-9, 1e-12, -1e-12])
    def test_continuity_at_integer_h(self, dH):
        # one formula on both sides of H = 1 and at it
        at = theory.asymptotic_constants(A2, 2, 1, 1.0)
        near = theory.asymptotic_constants(A2, 2, 1, 1.0 + dH)
        for name in ("E_u", "E_v", "C_uu", "C_vv", "C_uv", "gamma"):
            assert getattr(near, name) == pytest.approx(getattr(at, name), rel=1e-7)

    @pytest.mark.parametrize("H", [0.0, -0.5, math.nan])
    def test_h_not_positive(self, H):
        with pytest.raises(ValueError, match="must be positive"):
            theory.asymptotic_constants(A2, 2, 1, H)

    def test_overflow_reported(self):
        # E grows like 1/H and C like 1/H^2
        with pytest.raises(ValueError, match="H=1e-300 .*not finite"):
            theory.asymptotic_constants(A2, 2, 1, 1e-300)

    def test_continuity_in_h(self):
        for H in (0.3, 0.5, 0.7, 0.9):
            delta = abs(
                theory.gamma_const(A2, 2, 1, H + 1e-4) - theory.gamma_const(A2, 2, 1, H)
            )
            assert delta <= 1e-2

    def test_monte_carlo_agreement(self):
        reps, N, H = 2000, 4096, 0.5
        ests = np.array(
            [
                estimate_H(fbm_path(H, N, derived_stream(20, i))[0], A2, 2, 1)
                for i in range(reps)
            ]
        )
        assert N * ests.var(ddof=1) == pytest.approx(
            theory.gamma_const(A2, 2, 1, H), rel=0.25
        )


class TestOnePass:
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("uv", [(2, 1), (1, 2), (3, 1)])
    def test_bundle_equals_single_calls(self, order, uv):
        # asymptotic_constants evaluates the bundle's four dilation pairs in
        # one stacked pass, on one grid and with each pair masked to its own
        # cutoff; each constant must be the one computed alone, E through
        # Gamma_fourier and each C by the one pass over its pair only, and
        # Gamma_fourier on an integer array its scalar calls
        a, (u, v) = binomial_filter(order), uv
        p = np.array([[0, 3, -7, 40], [-1, 12, -25, 1]])
        # H = k/4 up to K - 1/2, which takes in every positive integer H below K
        for H in np.arange(1, 4 * order - 1) / 4:
            bundle = theory.asymptotic_constants(a, u, v, H)
            alone = {
                "E_u": _e(a, u, H),
                "E_v": _e(a, v, H),
                "C_uu": float(theory._constants(a, H, [(u, u)])[1][0]),
                "C_vv": float(theory._constants(a, H, [(v, v)])[1][0]),
                "C_uv": float(theory._constants(a, H, [(u, v)])[1][0]),
            }
            for name, value in alone.items():
                assert getattr(bundle, name) == pytest.approx(value, rel=1e-13), (H, name)
            scalar = np.array([[theory.Gamma_fourier(a, u, v, H, int(q)) for q in row] for row in p])
            # relative to the largest: beyond the taps' reach at H = 1/2 the
            # coefficients are 0 up to rounding
            np.testing.assert_allclose(
                theory.Gamma_fourier(a, u, v, H, p), scalar, rtol=0.0,
                atol=1e-13 * np.abs(scalar).max(),
            )


class TestExpectedVariation:
    def test_ratio_free_of_amplitude_monte_carlo(self):
        # mean(V_2)/mean(V_1) on exact paths approaches (u/v)^(2H)
        reps, N, H = 2000, 4096, 0.7
        v2 = np.empty(reps)
        v1 = np.empty(reps)
        for i in range(reps):
            path = fbm_path(H, N, derived_stream(21, i))[0]
            v2[i] = quad_variation(path, A2, 2)
            v1[i] = quad_variation(path, A2, 1)
        ratio = v2.mean() / v1.mean()
        assert ratio == pytest.approx(2**1.4, rel=0.02)

    def test_expectation_magnitude_on_exact_paths(self):
        # N^{2H} E(V) approaches c * u^{2H} * E_1 with the path's own
        # amplitude c = 1/(2 J(H)) ... here Var B(1) = 1 means
        # c = 1 / (4 J(H)) with J the cosine integral constant.
        H, N, reps = 0.7, 2048, 800
        c = 1.0 / (4.0 * _j_const(H))
        vals = np.empty(reps)
        for i in range(reps):
            path = fbm_path(H, N, derived_stream(22, i))[0]
            vals[i] = quad_variation(path, A2, 2)
        limit = c * _e(A2, 2, H)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(N ** (2 * H) * vals.mean() - limit) <= 4.0 * N ** (2 * H) * se
