import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros, jv

from spectral_corner import (NumericalError, SpecError, analytic_spectrum,
                             bessel_j, rect_theta_factor)
from spectral_corner import special
from spectral_corner.special import bessel_zeros_upto, gauss_panels, tanh_sinh

from .conftest import make_sector
from .oracles import _bessel_zeros_upto as brentq_zeros_upto
from .oracles import theta_side


class TestRectThetaFactor:
    def test_matches_mpmath_theta(self):
        for t in np.geomspace(1e-4, 2.0, 40):
            assert rect_theta_factor(t) == pytest.approx(
                float(theta_side(t)), abs=1e-13, rel=1e-12)

    def test_modular_identity_across_branch_switch(self):
        # both summation branches must agree where either converges
        for t in np.linspace(0.05, 0.5, 46):
            small = -0.5 + float(mp.jtheta(3, 0, mp.exp(-1 / mp.mpf(t)))) \
                / (2 * math.sqrt(math.pi * t))
            large = float((mp.jtheta(3, 0, mp.exp(-mp.pi ** 2 * mp.mpf(t))) - 1) / 2)
            assert abs(small - large) < 1e-12
            assert rect_theta_factor(t) == pytest.approx(large, abs=1e-12)


class TestBessel:
    def test_values_match_mpmath(self):
        for nu in (0.0, 0.5, 1.0, 2.0 / 3.0, 5.5):
            for x in (0.5, 3.0, 17.0, 40.0):
                assert bessel_j(nu, x) == pytest.approx(
                    float(mp.besselj(nu, x)), abs=1e-12, rel=1e-10)

    def test_zeros_match_scipy_integer_orders(self):
        for nu in (0, 1, 3):
            ref = jn_zeros(nu, 12)
            got = bessel_zeros_upto(float(nu), 45.0)
            assert got.size >= 12
            np.testing.assert_allclose(got[:12], ref, rtol=1e-12, atol=1e-10)

    def test_first_zero_order_zero(self):
        zs = bessel_zeros_upto(0.0, 3.0)
        assert zs.size == 1
        assert zs[0] == pytest.approx(2.4048255576957724, abs=1e-12)

    def test_zeros_are_roots(self):
        for nu in (0.0, 1.0 / 3.0, 2.5, 7.0):
            zs = bessel_zeros_upto(nu, 40.0)
            for k in (1, 2, 5, 9):
                assert abs(bessel_j(nu, zs[k - 1])) < 1e-10

    def test_zeros_upto_consistent_with_indexed(self):
        # the k-th zero does not depend on how far the scan runs past it
        zs = bessel_zeros_upto(1.5, 40.0)
        longer = bessel_zeros_upto(1.5, 97.0)
        for k, z in enumerate(zs, start=1):
            assert z == pytest.approx(longer[k - 1], abs=1e-10)
        assert np.all(zs < 40.0) and longer[zs.size] > 40.0

    # x_max = 2000 is what alpha = 0.1 reaches at 30k modes: orders up to
    # the top one, far past the turning point of the lower ones
    @pytest.mark.parametrize("alpha, x_max", [
        *(pytest.param(a, 120.0, id=str(a))
          for a in (0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.3)),
        *(pytest.param(a, 2000.0, id=f"{a}-x2000") for a in (0.1, 1.5, 7.3))])
    def test_batched_sector_orders_match_brentq_oracle(self, alpha, x_max):
        k_max = math.floor(alpha * x_max)
        # the lowest orders (nu < 1/2 from alpha = 3 on), a spread, and the
        # highest orders nu <= x_max, whose first zero lies beyond x_max
        ks = np.unique(np.concatenate([
            [1, 2, 3], np.linspace(1, k_max, 12).round(), [k_max - 1, k_max]]))
        nus = ks / alpha
        nus = nus[nus <= x_max]
        got = bessel_zeros_upto(nus, x_max)
        ref = [brentq_zeros_upto(nu, x_max) for nu in nus]
        assert got.size == sum(r.size for r in ref)
        want = np.concatenate(ref)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_scan_starts_below_first_zero(self):
        nus = np.geomspace(1e-3, 2000.0, 80)
        start = special._scan_start(nus)
        first = np.array([
            brentq_zeros_upto(nu, nu + 3.0 * nu ** (1 / 3) + 3.0)[0] for nu in nus])
        assert np.all(start < first)
        # J_nu is still positive there, so the first sign change is j_{nu,1}
        assert np.all(jv(nus, start) > 0)

    def test_jv_evaluations_per_zero(self, monkeypatch):
        # alpha = 1.5 at N = 4000: one sector of the closed-form benchmark.
        # Stopping on the cubic error bound and scanning from the lower
        # bound for j_{nu,1} need at most 7 jv evaluations per zero
        calls = []

        class Counting:
            def jv(self, v, x):
                calls.append(np.broadcast(v, x).size)
                return jv(v, x)

        monkeypatch.setattr(special, "_sci_special", Counting())
        spec = analytic_spectrum(make_sector(1.5), 4000)
        assert spec.count > 5000
        assert sum(calls) <= 7 * spec.count

    def test_batched_call_is_bit_identical_to_scalar_calls(self):
        nus = np.concatenate([[0.0, 1e-3, 0.25, 0.5], np.arange(1, 75) / 1.3,
                              [59.9, 60.0, 61.5]])
        batched = bessel_zeros_upto(nus, 60.0)
        single = np.concatenate([bessel_zeros_upto(float(nu), 60.0) for nu in nus])
        assert batched.tobytes() == single.tobytes()

    def test_zeros_upto_edge_orders(self):
        assert bessel_zeros_upto(5.0, 5.0).size == 0
        assert bessel_zeros_upto(np.empty(0), 50.0).size == 0
        with pytest.raises(SpecError):
            bessel_zeros_upto(np.array([1.0, -0.5]), 10.0)
        with pytest.raises(SpecError):
            bessel_zeros_upto(np.ones((2, 2)), 10.0)

    def test_halley_step_leaving_the_bracket_falls_back(self):
        # a seed at the right end of [1, 4] sends the first Halley step past
        # 4, towards j_{0,2} = 5.52; the midpoint keeps the solve on j_{0,1}
        lo, hi = np.array([1.0]), np.array([4.0])
        zero = special._halley_zeros(np.zeros(1), lo, hi, np.array([0.77]),
                                     np.array([-1e-12]))
        assert zero[0] == pytest.approx(jn_zeros(0, 1)[0], rel=1e-15)
        # j_{0,1} lies 1e-7 past the end of [1, j - 1e-7], whose sign change
        # is given falsely: each Halley step is ~1e-7, small enough for the
        # cubic stop (1e-21 <= 1e-15 x) but outside the bracket.  Clipping it
        # to the end would return a zero off by 1e-7; the midpoint fallback
        # keeps the solve going until it gives up instead
        j = jn_zeros(0, 1)[0]
        with pytest.raises(NumericalError):
            special._halley_zeros(np.zeros(1), np.array([1.0]),
                                  np.array([j - 1e-7]), np.array([0.77]),
                                  np.array([-1e-12]))
        # the same small step inside a true bracket stops on the zero
        zero = special._halley_zeros(np.zeros(1), np.array([1.0]),
                                     np.array([j + 1e-7]), np.array([0.77]),
                                     np.array([jv(0, j + 1e-7)]))
        assert zero[0] == pytest.approx(j, rel=1e-15)

    def test_unconverged_zero_raises(self, monkeypatch):
        monkeypatch.setattr(special, "_MAX_STEPS", 1)
        with pytest.raises(NumericalError) as info:
            bessel_zeros_upto(np.array([0.5, 2.5]), 30.0)
        assert info.value.stage == "bessel_zeros_upto"
        assert "nu=" in str(info.value) and "bracket [" in str(info.value)

    @settings(max_examples=40, deadline=None)
    @given(nu=st.floats(1.0, 8.0), x=st.floats(0.5, 35.0))
    def test_recurrence(self, nu, x):
        lhs = bessel_j(nu - 1, x) + bessel_j(nu + 1, x)
        rhs = 2 * nu / x * bessel_j(nu, x)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


class TestQuadrature:
    def test_tanh_sinh_endpoint_singularity(self):
        val, _ = tanh_sinh(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-12)
        assert val == pytest.approx(2.0, abs=1e-11)

    def test_tanh_sinh_log_singularity(self):
        val, _ = tanh_sinh(lambda x: np.log(x), 0.0, 1.0, tol=1e-12)
        assert val == pytest.approx(-1.0, abs=1e-11)

    def test_gauss_panels_oscillatory(self):
        val, _ = gauss_panels(lambda x: np.sin(10 * x), 0.0, math.pi, tol=1e-13)
        assert val == pytest.approx((1 - math.cos(10 * math.pi)) / 10, abs=1e-12)

    def test_invalid_interval_rejected(self):
        with pytest.raises(SpecError):
            tanh_sinh(lambda x: x, 1.0, 0.0, tol=1e-10)

    def test_tanh_sinh_non_finite_integrand_raises(self):
        with pytest.raises(NumericalError) as info:
            tanh_sinh(lambda x: np.where(x < 0.25, np.nan, 1.0), 0.0, 1.0)
        assert info.value.stage == "tanh_sinh"
