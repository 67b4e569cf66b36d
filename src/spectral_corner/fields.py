"""Scalar fields on planar domains given by closed-form expressions.

Fields supply values and the first/second derivatives needed by the
geometric integrals (notably the flat positive Laplacian of the conformal
factor), differentiated symbolically.
"""

from __future__ import annotations

import numpy as np
import sympy as sp
from sympy.core.function import AppliedUndef

from .errors import SpecError

_X, _Y = sp.symbols("x y")

# Expressions a ScalarField evaluates, by key; each is built and lambdified
# at most once per field.
_DERIVED = {
    "f": lambda e: e,
    "dx": lambda e: sp.diff(e, _X),
    "dy": lambda e: sp.diff(e, _Y),
    "lap": lambda e: sp.diff(e, _X, 2) + sp.diff(e, _Y, 2),
}


class ScalarField:
    """Smooth scalar field given by a closed-form expression in x and y.

    Evaluating a field, or one of its derivatives, whose expression numpy
    cannot evaluate on arrays (zeta, besselj, factorial, gamma, ...) raises
    SpecError naming the expression.
    """

    def __init__(self, expr):
        if isinstance(expr, str):
            try:
                expr = sp.sympify(expr, locals={"x": _X, "y": _Y})
            except (sp.SympifyError, SyntaxError) as exc:
                raise SpecError(f"cannot parse field expression: {expr!r}") from exc
        elif isinstance(expr, bool):
            raise SpecError(f"field must be a scalar expression, got {expr!r}")
        elif isinstance(expr, (int, float)):
            expr = sp.Float(expr)
        try:
            self.expr = sp.sympify(expr)
        except (sp.SympifyError, SyntaxError, TypeError, ValueError) as exc:
            raise SpecError(f"cannot parse field expression: {expr!r}") from exc
        if not isinstance(self.expr, sp.Expr):
            raise SpecError(f"field must be a scalar expression, got {expr!r}")
        free = self.expr.free_symbols - {_X, _Y}
        if free:
            raise SpecError(f"field expression has unknown symbols: {free}")
        undefined = self.expr.atoms(AppliedUndef)
        if undefined:
            raise SpecError(f"field expression has undefined functions: {undefined}")
        if self.expr.has(sp.I, sp.oo, -sp.oo, sp.zoo, sp.nan):
            raise SpecError(f"field expression must be real and finite: {self.expr}")
        self._fn = {}

    @classmethod
    def constant(cls, c: float) -> "ScalarField":
        return cls(sp.Float(c))

    def _eval(self, key, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        try:
            if key not in self._fn:
                self._fn[key] = sp.lambdify((_X, _Y), _DERIVED[key](self.expr),
                                            modules="numpy")
            out = self._fn[key](x, y)
        except (NameError, TypeError, NotImplementedError) as exc:
            # sympy has no numpy counterpart for a function in the expression
            # (or in its derivative), or falls back to one on scalars only
            what = "" if key == "f" else f" ({key})"
            raise SpecError(f"{self!r}{what} cannot be evaluated: {exc}") from exc
        return np.broadcast_to(np.asarray(out, dtype=float), np.broadcast_shapes(x.shape, y.shape)).copy()

    def __call__(self, x, y):
        return self._eval("f", x, y)

    def dx(self, x, y):
        return self._eval("dx", x, y)

    def dy(self, x, y):
        return self._eval("dy", x, y)

    def grad_sq(self, x, y):
        """|grad f|^2 with respect to the flat metric."""
        return self.dx(x, y) ** 2 + self.dy(x, y) ** 2

    def pos_laplacian(self, x, y):
        """Flat positive Laplacian -(f_xx + f_yy)."""
        return -self._eval("lap", x, y)

    def normal_derivative(self, x, y, nx, ny):
        return self.dx(x, y) * np.asarray(nx) + self.dy(x, y) * np.asarray(ny)

    def is_zero(self) -> bool:
        return bool(self.expr.is_zero)

    def is_constant(self) -> bool:
        return not (self.expr.free_symbols & {_X, _Y})

    def __repr__(self):
        return f"ScalarField({self.expr})"


def as_field(obj) -> ScalarField:
    """Coerce strings, numbers, sympy expressions, or fields to a field."""
    if isinstance(obj, ScalarField):
        return obj
    if obj is None:
        return ScalarField.constant(0.0)
    return ScalarField(obj)
