import dataclasses
import math

import numpy as np
import pytest

from spectral_corner import (ExpansionCoefficients, FunctionTraceProvider,
                             NumericalError, SpecError, analytic_spectrum,
                             geometric_coefficients, provider_for,
                             rect_theta_factor, zeta_continued,
                             zeta_prime_at_zero, zeta_series)

from .oracles import SQUARE_ZETA_PRIME0


@pytest.fixture(scope="module")
def square_setup(square):
    spec = analytic_spectrum(square, 40000)
    return spec, provider_for(spec), geometric_coefficients(square)


class TestContinuationVsSeries:
    def test_agreement_above_one(self, square_setup):
        spec, provider, coeffs = square_setup
        for s in (1.5, 2.0, 3.0, 5.0):
            direct = zeta_series(spec, s, tol=1e-6)
            continued = zeta_continued(provider, coeffs, s)
            assert continued == pytest.approx(direct, abs=1e-6)

    def test_series_reports_required_count(self, square):
        small = analytic_spectrum(square, 50)
        with pytest.raises(NumericalError, match="eigenvalues required"):
            zeta_series(small, 1.5, tol=1e-12)
        with pytest.raises(SpecError):
            zeta_series(small, 1.0)

    def test_series_without_boundary_length_stays_in_its_bound(self, square):
        # no boundary length: a one-term Weyl tail, whose bound is built from
        # the perimeter proxy 4 sqrt(Vol); a returned value is within tol
        base = analytic_spectrum(square, 2000)
        spec = dataclasses.replace(base, boundary_length=None, exact=None)
        coeffs = geometric_coefficients(square)
        outcomes = []
        for s in (1.5, 2.0, 3.0):
            ref = zeta_continued(base.trace, coeffs, s)
            for tol in np.geomspace(1e-12, 1e-2, 11):
                try:
                    err = abs(zeta_series(spec, s, tol=tol) - ref)
                except NumericalError:
                    outcomes.append("raised")
                    continue
                outcomes.append("returned")
                assert err <= tol
        assert set(outcomes) == {"raised", "returned"}

    def test_continuation_preconditions(self, square_setup):
        spec, provider, coeffs = square_setup
        for bad_s in (1.0, 0.5, -0.6):
            with pytest.raises(SpecError):
                zeta_continued(provider, coeffs, bad_s)
        with pytest.raises(SpecError):
            zeta_continued(spec, coeffs, 2.0)


class TestPolesAndZero:
    def test_residues(self, square_setup):
        _, provider, coeffs = square_setup
        delta = 1e-3
        for s0, expected in ((1.0, coeffs.a_m1),
                             (0.5, coeffs.a_mhalf / math.sqrt(math.pi))):
            r = delta * (zeta_continued(provider, coeffs, s0 + delta)
                         - zeta_continued(provider, coeffs, s0 - delta)) / 2
            assert r == pytest.approx(expected, abs=1e-4)

    def test_zeta_at_zero_equals_a0(self, square_setup):
        _, provider, coeffs = square_setup
        assert zeta_continued(provider, coeffs, 0.0) \
            == pytest.approx(coeffs.a_0, abs=1e-6)
        assert coeffs.a_0 == pytest.approx(0.25, abs=1e-12)


class TestDeterminant:
    def test_square_zeta_prime_closed_form(self, square_setup):
        _, provider, coeffs = square_setup
        ev = zeta_prime_at_zero(provider, coeffs)
        assert ev.zeta_prime0 == pytest.approx(SQUARE_ZETA_PRIME0, abs=1e-6)
        assert ev.zdet == pytest.approx(math.exp(-SQUARE_ZETA_PRIME0), rel=1e-6)
        assert ev.zeta0 == coeffs.a_0
        assert ev.error_budget["total"] < 1e-6

    def test_toy_integer_square_spectrum(self):
        # lambda_n = n^2: trace is a theta sum, zeta is the Riemann zeta at 2s,
        # and zeta'(0) = -log(2 pi)
        provider = FunctionTraceProvider(
            lambda t: rect_theta_factor(t / math.pi ** 2), lam_1=1.0)
        coeffs = ExpansionCoefficients(0.0, math.sqrt(math.pi) / 2, -0.5, {})
        ev = zeta_prime_at_zero(provider, coeffs)
        assert ev.zeta_prime0 == pytest.approx(-math.log(2 * math.pi), abs=1e-9)

    def test_constant_shift_affine_law(self, square_setup):
        # scaling the domain by r shifts zeta'(0) by 2 log(r) * zeta(0)
        _, provider, coeffs = square_setup
        base = zeta_prime_at_zero(provider, coeffs).zeta_prime0
        from spectral_corner import build_domain
        big = build_domain({"kind": "rectangle", "params": {"a": 2.0, "b": 2.0}})
        ev = zeta_prime_at_zero(FunctionTraceProvider.rectangle(2.0, 2.0),
                                geometric_coefficients(big))
        assert ev.zeta_prime0 == pytest.approx(
            base + 2 * math.log(2.0) * coeffs.a_0, abs=1e-9)

    def test_truncated_provider_matches_exact(self, square_setup):
        spec, provider, coeffs = square_setup
        exact = zeta_prime_at_zero(provider, coeffs)
        approx = zeta_prime_at_zero(spec, coeffs, tol=1e-2)
        gap = abs(approx.zeta_prime0 - exact.zeta_prime0)
        assert gap < max(approx.error_budget["total"], 1e-4)

    def test_budget_overflow_raises(self, square):
        spec = analytic_spectrum(square, 300)
        with pytest.raises(NumericalError) as exc:
            zeta_prime_at_zero(spec, geometric_coefficients(square),
                               tol=1e-12)
        assert exc.value.best_estimate is not None
