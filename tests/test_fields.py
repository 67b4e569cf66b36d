import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_corner
from spectral_corner import (MetricSpec, ScalarField, SpecError, as_field,
                             assemble_fdm, geometric_coefficients)

from .conftest import SLIT_SQUARE_DOC


class TestScalarField:
    def test_values_and_derivatives(self):
        f = ScalarField("0.2*x*y + x**2")
        assert f(1.0, 2.0) == pytest.approx(1.4)
        assert f.dx(1.0, 2.0) == pytest.approx(0.4 + 2.0)
        assert f.dy(1.0, 2.0) == pytest.approx(0.2)
        assert f.grad_sq(1.0, 2.0) == pytest.approx(2.4 ** 2 + 0.2 ** 2)
        assert f.pos_laplacian(1.0, 2.0) == pytest.approx(-2.0)

    def test_normal_derivative(self):
        f = ScalarField("x*y")
        assert f.normal_derivative(0.5, 1.0, 0.0, 1.0) == pytest.approx(0.5)

    def test_vectorized_broadcasting(self):
        f = ScalarField("x + 2*y")
        x = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(f(x, 1.0), x + 2.0)
        np.testing.assert_allclose(f.dx(x, 0.0), np.ones(3))

    def test_constant_broadcasts(self):
        c = ScalarField.constant(0.7)
        np.testing.assert_allclose(c(np.zeros(4), np.ones(4)), 0.7)
        assert c.is_constant() and not c.is_zero()
        assert ScalarField.constant(0.0).is_zero()
        assert not ScalarField("x").is_constant()

    def test_constants_evaluate_to_exactly_their_input(self):
        for c in (1 / 3, math.exp(0.3), 0.1 + 0.2):
            for f in (ScalarField.constant(c), as_field(c)):
                assert f(np.zeros(3), 0.0).tolist() == [c] * 3
        assert ScalarField("0.1")(0.0, 0.0) == 0.1

    def test_constant_derivatives_are_positive_zero(self):
        c = as_field(np.float64(0.7))
        x = np.linspace(0.0, 1.0, 4)
        for d in (c.dx(x, 0.5), c.dy(x, 0.5), c.grad_sq(x, 0.5),
                  c.normal_derivative(x, 0.5, 1.0, 0.0)):
            assert d.shape == (4,) and not np.any(d)
        assert all(math.copysign(1.0, v) == -1.0 for v in c.pos_laplacian(x, 0.5))

    def test_constant_repr_is_the_sympy_form(self):
        assert repr(ScalarField.constant(0.7)) == "ScalarField(0.700000000000000)"
        assert repr(as_field(None)) == "ScalarField(0.0)"
        assert repr(ScalarField("2")) == "ScalarField(2)"
        assert str(ScalarField(1 / 3).expr) == "0.333333333333333"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1e400",
                                     "nan", "-inf", 10**400, True],
                             ids=["nan", "inf", "-inf", "'1e400'", "'nan'",
                                  "'-inf'", "10**400", "True"])
    def test_rejects_non_finite_constants(self, bad):
        with pytest.raises(SpecError):
            ScalarField(bad)

    def test_rejects_bad_expressions(self):
        with pytest.raises(SpecError):
            ScalarField("x + unknown_symbol")
        with pytest.raises(SpecError):
            ScalarField("x +* y")

    @pytest.mark.parametrize("expr", ["zeta(x)", "besselj(0, x)",
                                      "factorial(x)", "gamma(x)"])
    def test_expression_numpy_cannot_evaluate_raises_spec_error(self, expr,
                                                                square):
        # sympy parses these, but numpy has no array form of the function
        metric = MetricSpec(ScalarField(expr), 1.0)
        with pytest.raises(SpecError, match=r"ScalarField\(.*\) cannot be evaluated"):
            assemble_fdm(square, metric, h=1 / 8)
        with pytest.raises(SpecError, match=r"ScalarField\(.*\) cannot be evaluated"):
            geometric_coefficients(square, metric)

    def test_derivative_numpy_cannot_evaluate_raises_spec_error(self, square):
        # |x - 1/2| evaluates, but its derivatives do not
        metric = MetricSpec(ScalarField("Abs(x - 0.5)"), 1.0)
        assemble_fdm(square, metric, h=1 / 8)
        with pytest.raises(SpecError, match=r"ScalarField\(Abs\(x - 0.5\)\) \((dx|lap)\)"):
            geometric_coefficients(square, metric)

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(-2, 2),
           x=st.floats(-1, 1), y=st.floats(-1, 1))
    def test_quadratic_derivatives_closed_form(self, a, b, c, x, y):
        f = ScalarField(f"({a})*x**2 + ({b})*x*y + ({c})*y**2")
        assert f.dx(x, y) == pytest.approx(2 * a * x + b * y, abs=1e-9)
        assert f.dy(x, y) == pytest.approx(b * x + 2 * c * y, abs=1e-9)
        assert f.pos_laplacian(x, y) == pytest.approx(-2 * a - 2 * c, abs=1e-9)


class TestAsField:
    def test_coercions(self):
        assert as_field(None).is_zero()
        assert as_field(1.5)(0.0, 0.0) == pytest.approx(1.5)
        f = as_field("x - y")
        assert as_field(f) is f


class TestImport:
    def test_package_leaves_scipy_interpolate_unloaded(self):
        # a fresh process, so no other test has loaded it already
        src = str(Path(spectral_corner.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, spectral_corner; "
             "print('scipy.interpolate' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_flat_pipelines_leave_sympy_unloaded(self, tmp_path):
        # one fresh process runs each flat pipeline in turn, then a symbolic
        # field; it prints whether sympy is loaded after each step
        src = str(Path(spectral_corner.__file__).resolve().parents[1])
        rect = tmp_path / "rect.json"
        rect.write_text(json.dumps({"kind": "rectangle",
                                    "params": {"a": 1.0, "b": 2.0}}))
        script = textwrap.dedent(f"""
            import contextlib, io, sys
            def loaded():
                print("sympy" in sys.modules)
            import spectral_corner as sc
            loaded()
            from spectral_corner import cli
            slit = sc.build_domain({SLIT_SQUARE_DOC!r})
            spec = sc.richardson_spectrum(slit, None, 1 / 16, 150, seed=0)
            lo = max(spec.window_floor, spec.trace.t_min)
            curve = sc.trace_curve(spec, [lo * 10 ** (i / 8) for i in range(9)])
            sc.compare_expansion(slit, None, None, curve)
            loaded()
            sector = sc.build_domain({{"kind": "sector",
                                       "params": {{"alpha": 1.5, "R": 1.0}}}})
            sc.analytic_spectrum(sector, 200)
            sc.geometric_coefficients(sector)
            loaded()
            disk = sc.build_domain({{"kind": "disk", "params": {{"R": 1.0}}}})
            sc.pa_verify(disk, 0.3, sc.PipelineConfig(check_differentiated=False))
            loaded()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["spectrum", "--domain", {str(rect)!r},
                                 "--eigs", "10"])
            assert code == 0, code
            loaded()
            sc.ScalarField("0.2*x*y")
            loaded()
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"] * 5 + ["True"]
