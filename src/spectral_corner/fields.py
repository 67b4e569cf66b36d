"""Scalar fields on planar domains given by closed-form expressions.

Fields supply values and the first/second derivatives needed by the
geometric integrals (notably the flat positive Laplacian of the conformal
factor).  A constant field (a finite number, or a string ``float()``
parses) is a plain float: it evaluates to exactly that float, its
derivatives are zero, and it never imports sympy.  Any other expression is
parsed and differentiated symbolically; sympy is loaded on the first such
field, so the flat pipelines never load it.  scipy, the other heavy
import, is likewise loaded on first numerical use (see ``special``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import SpecError

# Expressions a symbolic ScalarField evaluates, by key, in terms of the
# field's expression and the symbols x, y; each is built and lambdified at
# most once per field.
_DERIVED = {
    "f": lambda e, x, y: e,
    "dx": lambda e, x, y: e.diff(x),
    "dy": lambda e, x, y: e.diff(y),
    "lap": lambda e, x, y: e.diff(x, 2) + e.diff(y, 2),
}


@functools.cache
def _sympy():
    """sympy and its symbols (x, y), imported on the first symbolic use."""
    import sympy

    return sympy, sympy.symbols("x y")


def _to_expr(obj):
    """The sympy expression of a field's input, checked to be a real and
    finite expression in x and y."""
    sp, (x, y) = _sympy()
    if isinstance(obj, str):
        try:
            obj = sp.sympify(obj, locals={"x": x, "y": y})
        except (sp.SympifyError, SyntaxError) as exc:
            raise SpecError(f"cannot parse field expression: {obj!r}") from exc
    elif isinstance(obj, (int, float)):
        obj = sp.Float(obj)
    try:
        expr = sp.sympify(obj)
    except (sp.SympifyError, SyntaxError, TypeError, ValueError) as exc:
        raise SpecError(f"cannot parse field expression: {obj!r}") from exc
    if not isinstance(expr, sp.Expr):
        raise SpecError(f"field must be a scalar expression, got {obj!r}")
    free = expr.free_symbols - {x, y}
    if free:
        raise SpecError(f"field expression has unknown symbols: {free}")
    undefined = expr.atoms(sp.core.function.AppliedUndef)
    if undefined:
        raise SpecError(f"field expression has undefined functions: {undefined}")
    if expr.has(sp.I, sp.oo, -sp.oo, sp.zoo, sp.nan):
        raise SpecError(f"field expression must be real and finite: {expr}")
    return expr


def _numeric_value(obj):
    """The float a constant input stands for, or None for any other input.

    Finite ints and floats (numpy scalars included; bools are rejected
    before this) and strings that ``float()`` parses are constants; a
    non-finite one raises SpecError.
    """
    if isinstance(obj, str):
        try:
            value = float(obj)
        except ValueError:
            return None
    elif isinstance(obj, (int, float, np.integer, np.floating)):
        try:
            value = float(obj)
        except OverflowError:  # an int beyond the float range
            value = math.inf
    else:
        return None
    if not math.isfinite(value):
        raise SpecError(f"field expression must be real and finite: {obj!r}")
    return value


class ScalarField:
    """Smooth scalar field given by a closed-form expression in x and y.

    A constant input is stored as a float and evaluates to a fresh array of
    exactly that float, with +0.0 derivatives, without sympy.  Every other
    input is a sympy expression (``expr``), and sympy is loaded on the first
    one.  ``expr`` of a constant field is built, and sympy loaded, only when
    it is read (``repr`` reads it).

    Evaluating a field, or one of its derivatives, whose expression numpy
    cannot evaluate on arrays (zeta, besselj, factorial, gamma, ...) raises
    SpecError naming the expression.
    """

    def __init__(self, expr):
        if isinstance(expr, bool):
            raise SpecError(f"field must be a scalar expression, got {expr!r}")
        self._source = expr
        self._value = _numeric_value(expr)
        self._expr = None if self._value is not None else _to_expr(expr)
        self._fn = {}

    @classmethod
    def constant(cls, c: float) -> "ScalarField":
        return cls(float(c))

    @property
    def expr(self):
        """The field's sympy expression; a constant's is built on first read."""
        if self._expr is None:
            try:
                self._expr = _to_expr(self._source)
            except SpecError:
                # a string float() reads but sympy does not, such as "007"
                self._expr = _to_expr(self._value)
        return self._expr

    def _eval(self, key, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        if self._value is not None:
            return np.full(shape, self._value if key == "f" else 0.0)
        try:
            if key not in self._fn:
                sp, xy = _sympy()
                self._fn[key] = sp.lambdify(xy, _DERIVED[key](self.expr, *xy),
                                            modules="numpy")
            out = self._fn[key](x, y)
        except (NameError, TypeError, NotImplementedError) as exc:
            # sympy has no numpy counterpart for a function in the expression
            # (or in its derivative), or falls back to one on scalars only
            what = "" if key == "f" else f" ({key})"
            raise SpecError(f"{self!r}{what} cannot be evaluated: {exc}") from exc
        return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()

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
        if self._value is not None:
            return self._value == 0.0
        return bool(self.expr.is_zero)

    def is_constant(self) -> bool:
        return self._value is not None or \
            not (self.expr.free_symbols & set(_sympy()[1]))

    def __repr__(self):
        return f"ScalarField({self.expr})"


def as_field(obj) -> ScalarField:
    """Coerce strings, numbers, sympy expressions, or fields to a field."""
    if isinstance(obj, ScalarField):
        return obj
    if obj is None:
        return ScalarField.constant(0.0)
    return ScalarField(obj)
