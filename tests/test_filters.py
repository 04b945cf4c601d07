import math

import numpy as np
import pytest

from anisofield import (
    DiscreteFilter,
    InvalidArgument,
    apply_filter,
    binomial_filter,
    cross_transfer,
    infer_order,
    parse_filter,
    transfer_sq,
)

SECOND_DIFF = (1.0, -2.0, 1.0)


def _dilated(a, u):
    """The filter spread by u: coefficient a_k at position k*u, zeros between."""
    out = np.zeros((a.length - 1) * u + 1)
    out[::u] = a.coeffs
    return DiscreteFilter(out)


def _taylor_constant(a):
    """P_a^(K)(1) / K! = sum_k a_k C(k, K), exact for integer coefficients."""
    return sum(c * math.comb(k, a.order) for k, c in enumerate(a.coeffs))


class TestInferOrder:
    def test_second_difference(self):
        assert infer_order(SECOND_DIFF) == 2

    def test_increment(self):
        assert infer_order((1.0, -1.0)) == 1

    def test_nonzero_sum_rejected(self):
        with pytest.raises(InvalidArgument, match="coefficients sum to 2, not zero"):
            infer_order((1.0, 1.0))

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidArgument, match="all coefficients are zero"):
            infer_order((0.0, 0.0, 0.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            infer_order(())

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ((1.0, float("nan"), 1.0), "coefficient 1 is nan"),
            ((1.0, -2.0, float("inf")), "coefficient 2 is inf"),
            ((-float("inf"), 2.0, -1.0), "coefficient 0 is -inf"),
        ],
    )
    def test_non_finite_rejected(self, coeffs, message):
        # named as non-finite, not reported as a degenerate filter
        with pytest.raises(ValueError, match=f"^filter {message}, not a finite number$"):
            DiscreteFilter(coeffs)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_binomial_orders(self, order):
        assert binomial_filter(order).order == order

    def test_length_bounds_order(self):
        # l >= K >= 1 must hold for every constructible filter
        for coeffs in [SECOND_DIFF, (1.0, -1.0), (1.0, -3.0, 3.0, -1.0), (2.0, -1.0, -2.0, 1.0)]:
            f = DiscreteFilter(coeffs)
            assert 1 <= f.order <= f.length - 1


class TestDilate:
    """Dilation as ``apply_filter`` applies it: the filter at step u."""

    x = np.random.default_rng(7).normal(size=40)

    def test_second_difference_doubled(self):
        # (1,-2,1) at dilation 2 is (1,0,-2,0,1) at step 1, bit for bit
        lhs = apply_filter(DiscreteFilter(SECOND_DIFF), self.x, 2)
        rhs = apply_filter(DiscreteFilter((1.0, 0.0, -2.0, 0.0, 1.0)), self.x)
        assert np.array_equal(lhs, rhs)
        assert np.array_equal(_dilated(DiscreteFilter(SECOND_DIFF), 2).coeffs,
                              [1.0, 0.0, -2.0, 0.0, 1.0])

    def test_identity(self):
        x = self.x
        got = apply_filter(DiscreteFilter(SECOND_DIFF), x, 1)
        assert np.array_equal(got, x[:-2] - 2.0 * x[1:-1] + x[2:])

    def test_increment_tripled(self):
        got = apply_filter(DiscreteFilter((1.0, -1.0)), self.x, 3)
        assert np.array_equal(got, self.x[:-3] - self.x[3:])

    def test_length(self):
        f = DiscreteFilter(SECOND_DIFF)
        for u in range(1, 9):
            assert apply_filter(f, self.x, u).size == self.x.size - 2 * u

    @pytest.mark.parametrize(
        "coeffs",
        [SECOND_DIFF, (1.0, -1.0), (1.0, -3.0, 3.0, -1.0), (1.0, -4.0, 6.0, -4.0, 1.0), (0.5, 0.5, -1.0)],
    )
    def test_order_preserved(self, coeffs):
        base = DiscreteFilter(coeffs)
        for u in range(1, 9):
            assert _dilated(base, u).order == base.order

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            apply_filter(DiscreteFilter(SECOND_DIFF), self.x, 0)


class TestTransfer:
    def test_at_pi(self):
        assert transfer_sq(DiscreteFilter(SECOND_DIFF), math.pi) == pytest.approx(16.0)

    def test_at_zero(self):
        assert transfer_sq(DiscreteFilter(SECOND_DIFF), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_at_half_pi(self):
        # |1 - 2 e^{-i pi/2} + e^{-i pi}|^2 = |2i|^2
        assert transfer_sq(DiscreteFilter(SECOND_DIFF), math.pi / 2) == pytest.approx(4.0)

    def test_periodic_and_even(self):
        f = DiscreteFilter(SECOND_DIFF)
        xi = np.linspace(-3.0, 3.0, 41)
        np.testing.assert_allclose(transfer_sq(f, xi), transfer_sq(f, -xi), rtol=1e-12)
        np.testing.assert_allclose(
            transfer_sq(f, xi), transfer_sq(f, xi + 2 * math.pi), rtol=0, atol=1e-10
        )

    def test_taylor_limit(self):
        # transfer_sq / xi^(2K) -> (P^(K)(1)/K!)^2 as xi -> 0
        for coeffs in [SECOND_DIFF, (1.0, -1.0), (1.0, -3.0, 3.0, -1.0)]:
            f = DiscreteFilter(coeffs)
            target = _taylor_constant(f) ** 2
            for xi in (1e-3, 1e-4):
                ratio = transfer_sq(f, xi) / xi ** (2 * f.order)
                assert ratio == pytest.approx(target, rel=1e-4)

    def test_taylor_constant_second_diff(self):
        assert _taylor_constant(DiscreteFilter(SECOND_DIFF)) == 1.0


class TestCrossTransfer:
    def test_equal_dilations_match_transfer(self):
        f = DiscreteFilter(SECOND_DIFF)
        val = cross_transfer(f, 1, 1, math.pi)
        assert val == pytest.approx(16.0 + 0.0j)
        assert abs(val.imag) < 1e-12

    def test_zero_frequency(self):
        assert cross_transfer(DiscreteFilter(SECOND_DIFF), 1, 2, 0.0) == pytest.approx(0.0)

    def test_mixed_at_pi(self):
        # P(-1) * conj(P(1)) = 16 * 0
        assert cross_transfer(DiscreteFilter(SECOND_DIFF), 1, 2, math.pi) == pytest.approx(0.0)

    def test_dilated_consistency(self):
        # h^{u,u}(xi) equals the squared transfer of the dilated filter
        f = DiscreteFilter(SECOND_DIFF)
        for u in (2, 3):
            fu = _dilated(f, u)
            for xi in (0.3, 1.1, 2.7):
                assert cross_transfer(f, u, u, xi).real == pytest.approx(
                    transfer_sq(fu, xi), rel=1e-12
                )


class TestApplyFilter:
    @pytest.mark.parametrize("coeffs", [SECOND_DIFF, (1.0, -1.0), (1.0, -3.0, 3.0, -1.0)])
    @pytest.mark.parametrize("u", [1, 2, 4])
    def test_annihilates_low_degree_polynomials(self, coeffs, u):
        f = DiscreteFilter(coeffs)
        t = np.arange(64) / 64.0
        rng = np.random.default_rng(0)
        for degree in range(f.order):
            poly = np.polynomial.Polynomial(rng.uniform(-3, 3, degree + 1))
            out = apply_filter(f, poly(t), u)
            scale = max(np.abs(poly.coef).max(), 1.0)
            assert np.abs(out).max() <= 1e-10 * scale

    def test_detects_degree_k(self):
        f = DiscreteFilter(SECOND_DIFF)
        t = np.arange(32, dtype=float)
        assert np.abs(apply_filter(f, t**2)).max() > 1.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            apply_filter(DiscreteFilter(SECOND_DIFF), [1.0, 2.0], 1)


class TestMisc:
    def test_parse(self):
        f = parse_filter("1,-2,1")
        assert np.array_equal(f.coeffs, SECOND_DIFF)

    def test_parse_bad(self):
        with pytest.raises(ValueError):
            parse_filter("1,two,1")

    def test_hash_eq(self):
        a = DiscreteFilter(SECOND_DIFF)
        b = parse_filter("1,-2,1")
        assert a == b and hash(a) == hash(b)
        assert a != DiscreteFilter((1.0, -1.0))

    def test_immutable(self):
        f = DiscreteFilter(SECOND_DIFF)
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0
