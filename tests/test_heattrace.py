import math

import numpy as np
import pytest

from spectral_corner import (HeatTraceCurve, NumericalError, SpecError,
                             analytic_spectrum, assemble_fdm, compare_expansion,
                             corner_term, default_window,
                             derivative_identity_residual, fit_expansion,
                             geometric_coefficients, richardson_spectrum,
                             solve_eigs, trace_at, trace_curve)

from .oracles import rect_trace


class TestTraceAt:
    def test_square_matches_theta_oracle(self, square):
        spec = analytic_spectrum(square, 100)
        for t in (1e-4, 1e-2, 0.1, 0.5, 2.0):
            assert trace_at(spec, t) == pytest.approx(
                float(rect_trace(1.0, 1.0, t)), abs=1e-13, rel=1e-12)

    def test_square_reference_value(self, square):
        spec = analytic_spectrum(square, 10)
        assert trace_at(spec, 0.1) == pytest.approx(0.1537762, abs=5e-7)

    def test_rejects_bad_t(self, square, disk):
        spec = analytic_spectrum(disk, 200)
        with pytest.raises(SpecError):
            trace_at(spec, 0.0)
        with pytest.raises(NumericalError):
            trace_at(spec, 0.1 * spec.t_min)
        # rectangles route through the exact theta product at any t > 0
        assert trace_at(analytic_spectrum(square, 10), 1e-6) > 0

    def test_dilation_scaling(self, disk):
        spec = analytic_spectrum(disk, 2000)
        spec_r = analytic_spectrum(disk.scaled(1.7), 2000)
        for t in (0.05, 0.2, 1.0):
            assert trace_at(spec_r, t * 1.7 ** 2) == pytest.approx(
                trace_at(spec, t), rel=1e-12)


class TestCurves:
    def test_monotone_and_log_convex(self, square):
        spec = analytic_spectrum(square, 500)
        curve = trace_curve(spec, np.linspace(0.02, 1.0, 40))
        v = curve.values
        assert np.all(np.diff(v) < 0)
        assert np.all(v[1:-1] ** 2 <= v[:-2] * v[2:] * (1 + 1e-12))

    def test_curve_rejects_nonmonotone_samples(self):
        with pytest.raises(SpecError):
            HeatTraceCurve(np.array([0.1, 0.2]), np.array([1.0, 1.5]),
                           np.zeros(2), "test")
        with pytest.raises(SpecError):
            HeatTraceCurve(np.array([-0.1, 0.2]), np.array([2.0, 1.0]),
                           np.zeros(2), "test")

    def test_default_window_respects_completeness(self, square, disk):
        spec = analytic_spectrum(disk, 500)
        ts = default_window(spec)
        assert ts[0] >= spec.t_min - 1e-15
        assert ts[-1] == pytest.approx(0.1)
        ds = solve_eigs(assemble_fdm(square, None, h=1 / 16), 40,
                        seed=0).spectrum()
        assert default_window(ds)[0] >= 1e-2

    def test_richardson_trace_beats_single_grid(self, square):
        ts = np.linspace(0.05, 0.2, 6)
        exact = np.array([float(rect_trace(1.0, 1.0, t)) for t in ts])
        rich = richardson_spectrum(square, None, 1 / 16, 120, seed=0).value(ts)
        plain = solve_eigs(assemble_fdm(square, None, h=1 / 16), 120,
                           seed=0).spectrum()
        plain_vals = np.array([trace_at(plain, t) for t in ts])
        assert np.max(np.abs(rich - exact)) \
            < 0.05 * np.max(np.abs(plain_vals - exact))

    def test_weighted_trace_unit_weight_is_plain_trace(self, square):
        ds = solve_eigs(assemble_fdm(square, None, h=1 / 16), 60, seed=0)
        t = 0.2
        assert ds.weighted_trace(1.0, t) == pytest.approx(
            float(np.sum(np.exp(-t * ds.eigenvalues))), rel=1e-8)
        with pytest.raises(NumericalError):
            ds.weighted_trace(1.0, 1e-4)
        # the matrix product against the per-mode quadrature sum
        x, y = ds.op.nodes[:, 0], ds.op.nodes[:, 1]
        psi = 0.2 * x * y
        per_mode = sum(math.exp(-t * lam) * float(np.sum(psi * phi**2 * ds.op.w))
                       * ds.op.h**2
                       for lam, phi in zip(ds.eigenvalues, ds.eigenvectors.T))
        assert ds.weighted_trace("0.2*x*y", t) == pytest.approx(per_mode, rel=1e-12)

    def test_provenance_does_not_route_the_trace(self, square):
        # the trace source is fixed where a spectrum is built; relabelling a
        # discrete spectrum as an analytic rectangle changes nothing
        spec = solve_eigs(assemble_fdm(square, None, h=1 / 16), 40,
                          seed=0).spectrum()
        spec.provenance = {"source": "analytic", "kind": "rectangle",
                           "params": {"a": 1, "b": 1}}
        t_min = 40.0 / spec.completeness
        with pytest.raises(NumericalError):
            trace_at(spec, 0.5 * t_min)
        assert default_window(spec)[0] == pytest.approx(max(1e-2, t_min))
        t = 2 * t_min
        weyl = spec.volume * math.exp(-t * spec.completeness) / (4 * math.pi * t)
        assert trace_curve(spec, [t, 0.5]).errors[0] == weyl
        assert trace_at(spec, t) == float(np.sum(np.exp(-t * spec.eigenvalues)))


class TestTraceSources:
    def test_rectangle_source_matches_truncated_sum(self, square):
        spec = analytic_spectrum(square, 4000)
        exact = spec.trace
        assert exact is not spec and exact.t_min == 0.0
        assert exact.lam_1 == pytest.approx(spec.lam_1, rel=1e-15)
        ts = np.array([0.05, 0.2, 1.0])
        assert np.allclose(exact.value(ts), spec.value(ts), rtol=1e-12, atol=0)
        e1_exact, err_exact = exact.e1_sum()
        e1_trunc, err_trunc = spec.e1_sum()
        assert e1_trunc == pytest.approx(e1_exact, abs=err_exact + err_trunc)
        assert err_trunc == spec.tail_bound(1.0)

    def test_e1_sum_refuses_below_t_min(self, disk):
        spec = analytic_spectrum(disk, 200)
        assert spec.trace is spec
        with pytest.raises(NumericalError):
            spec.e1_sum(0.5 * spec.t_min)


class TestFits:
    def test_square_fit_recovers_coefficients(self, square):
        spec = analytic_spectrum(square, 100)
        curve = trace_curve(spec, np.geomspace(1e-4, 0.05, 25))
        fit = fit_expansion(curve, "fit-all")
        assert fit.a_m1 == pytest.approx(1 / (4 * math.pi), abs=1e-6)
        assert fit.a_mhalf == pytest.approx(-1 / (2 * math.sqrt(math.pi)),
                                            abs=1e-4)
        assert fit.a_0 == pytest.approx(0.25, abs=1e-3)
        lo, hi = fit.confidence["1"]
        assert lo <= fit.a_0 <= hi

    def test_disk_compare_expansion(self, disk):
        spec = analytic_spectrum(disk, 20000)
        curve = trace_curve(spec, default_window(spec))
        report = compare_expansion(disk, None, None, curve,
                                   tolerances={"a_m1": 1e-5, "a_mhalf": 1e-3,
                                               "a_0": 1e-3})
        assert report["all_pass"]
        assert report["rows"]["a_0"]["predicted"] == pytest.approx(1 / 6)

    def test_corner_isolation_in_sectors(self, sector_a0_fits):
        # subtracting the smooth part of a_0 exposes the corner contribution
        for alpha, entry in sector_a0_fits.items():
            smooth = alpha / 12 + 1.0 / 8
            assert entry["a_0"] - smooth == pytest.approx(
                float(corner_term(alpha)), abs=1e-2)
        # the half-disk apex is flat, so its isolated corner term vanishes
        assert sector_a0_fits[1.0]["a_0"] - (1 / 12 + 1 / 8) == pytest.approx(
            0.0, abs=1e-2)

    def test_fit_preconditions(self, square):
        spec = analytic_spectrum(square, 50)
        short = trace_curve(spec, np.geomspace(1e-3, 1e-1, 5))
        with pytest.raises(SpecError):
            fit_expansion(short)
        narrow = trace_curve(spec, np.geomspace(0.05, 0.1, 12))
        with pytest.raises(SpecError):
            fit_expansion(narrow)
        curve = trace_curve(spec, np.geomspace(1e-3, 1e-1, 12))
        with pytest.raises(SpecError):
            fit_expansion(curve, "peel-known")
        with pytest.raises(SpecError):
            fit_expansion(curve, "nonsense-mode")


class TestDerivativeIdentity:
    def test_residual_small_on_square(self, square):
        res = derivative_identity_residual(square, "0.2*x*y", 0.0, eps=0.5,
                                           h=1 / 16, seed=0)
        assert res < 1e-4
