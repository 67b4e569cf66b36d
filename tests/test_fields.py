import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_corner
from spectral_corner import (MetricSpec, ScalarField, SpecError, as_field,
                             assemble_fdm, geometric_coefficients)


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
