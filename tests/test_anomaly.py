import math

import numpy as np
import pytest

from spectral_corner import (PipelineConfig, ScalarField, SpecError,
                             analytic_spectrum, anomaly, boundary_integral,
                             build_domain, interior_integral, pa_rhs,
                             pa_verify)
from spectral_corner.zeta import ZetaEvaluation

from .conftest import SLIT_SQUARE_DOC, make_sector
from .oracles import pa_rhs_integrated

L_POLYGON_DOC = {"kind": "polygon", "params": {"vertices": [
    [0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]]}}
ORACLE_DOMAINS = {
    "square": lambda: build_domain({"kind": "rectangle",
                                    "params": {"a": 1.0, "b": 1.0}}),
    "disk": lambda: build_domain({"kind": "disk", "params": {"R": 1.0}}),
    "sector-1.5": lambda: make_sector(1.5),
    "cone-3": lambda: make_sector(3.0),
    "slit-square": lambda: build_domain(SLIT_SQUARE_DOC),
    "L-polygon": lambda: build_domain(L_POLYGON_DOC),
}
ORACLE_SIGMAS = ("0", "0.3", "0.2*x*y", "0.3*x", "0.1*(x**2 - y)")


class TestGeometricSide:
    def test_constant_sigma_square(self, square):
        rhs, breakdown = pa_rhs(square, 0.3)
        # only the corner sum survives: 4 corners, 0.3 * (1/16) * 2 each
        assert rhs == pytest.approx(0.15, abs=1e-12)
        assert breakdown["dirichlet_energy"] == 0.0
        assert breakdown["corner_sum"] == pytest.approx(0.15)

    def test_constant_sigma_disk(self, disk):
        rhs, breakdown = pa_rhs(disk, 0.3)
        # only the boundary-curvature term survives: 0.3 * 2 pi / (6 pi)
        assert rhs == pytest.approx(0.1, abs=1e-10)
        assert breakdown["corner_sum"] == 0.0

    def test_smooth_sigma_square_closed_form(self, square):
        rhs, breakdown = pa_rhs(square, "0.2*x*y")
        # Dirichlet energy 0.04 * 2/3 / (12 pi); corner only at (1,1)
        assert breakdown["dirichlet_energy"] == pytest.approx(
            1 / (450 * math.pi), abs=1e-10)
        assert breakdown["normal_derivative"] == pytest.approx(0.0, abs=1e-10)
        assert breakdown["corner_sum"] == pytest.approx(0.025)
        assert rhs == pytest.approx(1 / (450 * math.pi) + 0.025, abs=1e-9)

    def test_differentiated_flat_base(self, square):
        val, breakdown = pa_rhs(square, "0.2*x*y", "differentiated", u=0.0)
        # flat base: only the sigma-weighted corner term survives, and it
        # equals -2 * sigma(1,1) * (1/16)
        assert val == pytest.approx(-0.025, abs=1e-10)
        assert breakdown["corner_sum"] == pytest.approx(-0.025, abs=1e-12)

    def test_additivity_in_u(self, square, disk):
        # stepping 0 -> 1 -> 2 must compose exactly to stepping by 2 sigma
        for dom in (square, disk):
            for expr in ("0.2*x*y", "0.1*(x**2 - y)"):
                sigma = ScalarField(expr)
                two = ScalarField(f"2*({expr})")
                r0, _ = pa_rhs(dom, sigma, u=0.0)
                r1, _ = pa_rhs(dom, sigma, u=1.0)
                r2, _ = pa_rhs(dom, two, u=0.0)
                assert r0 + r1 == pytest.approx(r2, abs=1e-9)

    def test_stokes_consistency(self, square, disk):
        # int sigma Delta_0 sigma + oint sigma d_n sigma = int |grad sigma|^2
        sigma = ScalarField("0.2*x*y + 0.1*x**2")
        for dom in (square, disk):
            interior = interior_integral(
                dom, lambda x, y: sigma(x, y) * sigma.pos_laplacian(x, y))
            boundary = boundary_integral(
                dom, lambda x, y, nx, ny, k:
                sigma(x, y) * sigma.normal_derivative(x, y, nx, ny))
            energy = interior_integral(dom, lambda x, y: sigma.grad_sq(x, y))
            assert interior + boundary == pytest.approx(energy, abs=1e-8)

    def test_unknown_form_rejected(self, square):
        with pytest.raises(SpecError):
            pa_rhs(square, "x", form="integral")

    @pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
    def test_integrated_form_matches_oracle(self, name):
        # the integrated form is D + 2 a_0(u, sigma); at u = 0 and 1 every
        # term has the reference's bits, at other u the interior curvature
        # multiplies by u before the quadrature instead of after it
        dom = ORACLE_DOMAINS[name]()
        for expr in ORACLE_SIGMAS:
            sigma = ScalarField(expr)
            for u in (0.0, 1.0):
                rhs, breakdown = pa_rhs(dom, sigma, u=u)
                ref, ref_breakdown = pa_rhs_integrated(dom, sigma, u=u)
                assert list(breakdown) == list(ref_breakdown)
                assert [v.hex() for v in (rhs, *breakdown.values())] == \
                    [v.hex() for v in (ref, *ref_breakdown.values())], (expr, u)
            rhs, breakdown = pa_rhs(dom, sigma, u=-0.3)
            ref, ref_breakdown = pa_rhs_integrated(dom, sigma, u=-0.3)
            assert rhs == pytest.approx(ref, rel=1e-14, abs=0.0), expr
            for key, value in ref_breakdown.items():
                assert breakdown[key] == pytest.approx(value, rel=1e-14,
                                                       abs=0.0), (expr, key)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.3])
    def test_integrated_is_energy_minus_differentiated(self, square, u):
        sigma = ScalarField("0.1*(x**2 - y)")
        rhs, breakdown = pa_rhs(square, sigma, u=u)
        diff, diff_breakdown = pa_rhs(square, sigma, "differentiated", u=u)
        assert rhs == pytest.approx(breakdown["dirichlet_energy"] - diff,
                                    rel=1e-14, abs=1e-16)
        for key, value in diff_breakdown.items():
            assert breakdown[key] == -value


class TestSpectralVerification:
    def test_constant_sigma_exact_route(self, square):
        report = pa_verify(square, 0.3)
        assert report.details["route"] == "analytic-theta"
        assert report.passed
        # lhs = zeta'_1(0) - zeta'_0(0) = 2 c zeta(0) for constant shifts
        assert report.lhs == pytest.approx(2 * 0.3 * 0.25, abs=1e-10)
        assert report.rhs == pytest.approx(0.15, abs=1e-12)
        assert abs(report.gap) < 1e-10
        diff = report.details["differentiated"]
        assert set(diff) == {"lhs", "rhs", "gap", "du", "breakdown"}
        assert diff["gap"] == pytest.approx(0.0, abs=1e-6)
        assert diff["rhs"] == pytest.approx(-0.15, abs=1e-10)

    def test_constant_sigma_on_disk_runs_on_the_dilated_closed_form(self,
                                                                    disk):
        # both legs are truncated Bessel spectra, so the verdict is relative
        report = pa_verify(disk, 0.3, PipelineConfig(check_differentiated=False))
        assert report.details["route"] == "closed-form-truncated"
        assert report.tolerance == 2e-2
        assert report.passed

    @pytest.mark.parametrize("h", [0.0, math.nan, math.inf, -1 / 16])
    def test_grid_spacing_must_be_finite_and_positive(self, square, h):
        with pytest.raises(SpecError, match="grid spacing h must be finite"):
            pa_verify(square, "0.2*x*y", PipelineConfig(h=h))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "a", 2 ** 64],
                             ids=["negative", "float", "bool", "str", "too-large"])
    def test_seed_is_checked_before_any_solve(self, square, seed, monkeypatch):
        def refuse(*args):
            raise AssertionError("a leg was solved")

        monkeypatch.setattr(anomaly, "_zeta_prime", refuse)
        with pytest.raises(SpecError, match="seed"):
            pa_verify(square, "0.2*x*y", PipelineConfig(seed=seed))

    @pytest.mark.parametrize("cfg, match", [
        (PipelineConfig(h=-1.0, eigs=-7), "eigenvalue count"),
        (PipelineConfig(eigs=0), "eigenvalue count"),
        (PipelineConfig(eigs=1.5), "eigenvalue count"),
        (PipelineConfig(h=-1.0), "grid spacing h must be finite"),
        (PipelineConfig(h=math.nan), "grid spacing h must be finite"),
    ], ids=["both", "eigs-0", "eigs-float", "h-negative", "h-nan"])
    def test_eigs_and_h_are_checked_on_the_exact_route(self, square, cfg,
                                                       match, monkeypatch):
        # a constant sigma on the square takes the exact theta route, which
        # reads neither eigs nor h; both are still checked before any solve
        def refuse(*args):
            raise AssertionError("a leg was solved")

        monkeypatch.setattr(anomaly, "_zeta_prime", refuse)
        with pytest.raises(SpecError, match=match):
            pa_verify(square, 0.3, cfg)

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, 0.0, math.inf])
    def test_verdict_tolerance_must_be_finite_and_positive(self, square,
                                                           tolerance):
        with pytest.raises(SpecError, match="tolerance must be None or finite"):
            pa_verify(square, 0.3, PipelineConfig(tolerance=tolerance))

    @pytest.mark.parametrize("name", ["square", "disk", "slit-square"])
    def test_differentiated_side_from_the_integrated_breakdown(self, name,
                                                               monkeypatch):
        # one evaluation of the a_0 integrals gives both right-hand sides,
        # bit for bit what pa_rhs(..., "differentiated") returns
        dom, sigma = ORACLE_DOMAINS[name](), "0.1*(x**2 - y)"
        spec = analytic_spectrum(build_domain(
            {"kind": "rectangle", "params": {"a": 1.0, "b": 1.0}}), 10)
        monkeypatch.setattr(anomaly, "_zeta_prime", lambda *a: (
            spec, ZetaEvaluation(0.0, 0.0, 1.0, {})))
        calls = []
        a0_terms = anomaly._a0_terms
        monkeypatch.setattr(anomaly, "_a0_terms",
                            lambda *a: calls.append(a) or a0_terms(*a))
        diff = pa_verify(dom, sigma).details["differentiated"]
        assert len(calls) == 1
        monkeypatch.undo()
        rhs, breakdown = pa_rhs(dom, sigma, "differentiated")
        assert diff["rhs"].hex() == rhs.hex()
        assert list(diff["breakdown"]) == list(breakdown)
        for key, value in breakdown.items():
            assert diff["breakdown"][key].hex() == value.hex(), key

    @pytest.mark.parametrize("differentiated, legs", [
        (True, [-anomaly._DU, 0.0, anomaly._DU, 1.0]), (False, [0.0, 1.0])])
    def test_spectrum_legs(self, square, monkeypatch, differentiated, legs):
        # u = 0 and 1 for the integrated identity, u = +-du for the central
        # difference; nothing else solves a spectrum
        calls = []
        solve = anomaly._zeta_prime

        def counted(domain, sigma, u, cfg, budget):
            calls.append(u)
            return solve(domain, sigma, u, cfg, budget)

        monkeypatch.setattr(anomaly, "_zeta_prime", counted)
        pa_verify(square, 0.3,
                  PipelineConfig(check_differentiated=differentiated))
        assert sorted(calls) == legs
