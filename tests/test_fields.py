import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_corner import (GridField, MetricSpec, ScalarField, SpecError,
                             as_field, assemble_fdm, geometric_coefficients)


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


class TestGridField:
    @staticmethod
    def _sampled(fn, n=65):
        xs = np.linspace(0.0, 1.0, n)
        ys = np.linspace(0.0, 1.0, n)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return GridField(xs, ys, fn(X, Y))

    def test_matches_smooth_function(self):
        g = self._sampled(lambda x, y: np.sin(x) * np.cos(y))
        assert g(0.37, 0.61) == pytest.approx(
            np.sin(0.37) * np.cos(0.61), abs=1e-7)
        assert g.dx(0.37, 0.61) == pytest.approx(
            np.cos(0.37) * np.cos(0.61), abs=1e-6)
        assert g.pos_laplacian(0.37, 0.61) == pytest.approx(
            2 * np.sin(0.37) * np.cos(0.61), abs=1e-4)

    def test_flags(self):
        g0 = self._sampled(lambda x, y: np.zeros_like(x), n=7)
        assert g0.is_zero() and g0.is_constant()
        g1 = self._sampled(lambda x, y: np.full_like(x, 2.5), n=7)
        assert g1.is_constant() and not g1.is_zero()

    def test_rejects_small_or_nonuniform_grids(self):
        xs = np.linspace(0, 1, 5)
        with pytest.raises(SpecError):
            GridField(xs, xs, np.zeros((5, 5)))
        bad = np.array([0.0, 0.1, 0.25, 0.4, 0.55, 0.7, 1.0])
        with pytest.raises(SpecError):
            GridField(bad, bad, np.zeros((7, 7)))


class TestAsField:
    def test_coercions(self):
        assert as_field(None).is_zero()
        assert as_field(1.5)(0.0, 0.0) == pytest.approx(1.5)
        f = as_field("x - y")
        assert as_field(f) is f
