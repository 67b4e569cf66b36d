"""Special functions and quadrature shared by all numeric modules.

Bessel functions of fractional order and their zeros, the one-dimensional
theta-type sum used for exact rectangle heat traces, and quadrature
rules.  All functions here are pure.

Bessel zeros for many orders are found in one vectorised solve: a
sign-change scan over one flat grid holding every order brackets each
zero, and safeguarded Halley steps, two jv calls each, refine all
brackets together, each zero stopping on its own.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np
from scipy import special as _sci_special

from .errors import NumericalError, SpecError

# Euler-Mascheroni constant to 30 significant digits.
EULER_GAMMA = 0.577215664901532860606512090082

# Switch point for the theta sum: both branches converge in <= 12 terms here.
THETA_T_SWITCH = 0.15


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------

def bessel_j(nu: float, x) -> float | np.ndarray:
    """Bessel function J_nu(x) for real order nu >= 0 and x >= 0.

    Accurate to ~1e-13 relative over x in (0, 1e4].  Overflow or total
    accuracy loss raises instead of returning garbage.
    """
    if nu < 0:
        raise SpecError(f"bessel_j requires nu >= 0, got {nu}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise SpecError("bessel_j requires x >= 0")
    out = _sci_special.jv(nu, x_arr)
    if np.any(~np.isfinite(out)):
        raise NumericalError("bessel_j", f"non-finite result for nu={nu}")
    return out if np.ndim(x) else float(out)


# Consecutive positive zeros of J_nu are separated by at least ~3.1 for any
# nu >= 0 (spacing tends to pi from below for nu < 1/2, from above otherwise),
# so a scan step of 1.5 puts every zero in its own bracket and skips none.
# All orders share one flat scan grid, evaluated in a single jv call.
_SCAN_STEP = 1.5

# Halley steps allowed per zero before the solve gives up and raises.
_MAX_STEPS = 40


def bessel_zeros_upto(nu, x_max: float) -> np.ndarray:
    """All positive zeros of J_nu in (0, x_max], to ~1e-15 relative.

    nu is one order or a 1-D array of orders.  The zeros come back as one
    flat array, grouped by order in the order given and ascending within
    each order.  Each zero is bracketed by a sign change on the step-1.5
    scan, seeded at the regula-falsi point of its bracket, and refined by
    safeguarded Halley steps until its own step is below 1e-14 x; a zero
    still moving after _MAX_STEPS steps raises NumericalError.
    """
    nus = np.atleast_1d(np.asarray(nu, dtype=float))
    if nus.ndim != 1:
        raise SpecError("bessel_zeros_upto requires a scalar or 1-D array of orders")
    if not np.all(nus >= 0):
        raise SpecError("bessel_zeros_upto requires nu >= 0")
    start = np.maximum(nus, 1e-8)
    # scan points start + i * step, i < n, up to the first point >= x_max
    n = np.where(start < x_max, np.ceil((x_max + _SCAN_STEP - start) / _SCAN_STEP),
                 0).astype(np.int64)
    order = np.repeat(np.arange(nus.size), n)
    first = np.repeat(np.cumsum(n) - n, n)
    grid = start[order] + (np.arange(order.size) - first) * _SCAN_STEP
    vals = _sci_special.jv(nus[order], grid)
    sign = np.signbit(vals)
    idx = np.nonzero((sign[1:] != sign[:-1]) & (order[1:] == order[:-1]))[0]
    zeros = _halley_zeros(nus[order[idx]], grid[idx], grid[idx + 1],
                          vals[idx], vals[idx + 1])
    return zeros[zeros <= x_max]


def _halley_zeros(nu, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Zeros of J_nu, one in each sign-change bracket [lo, hi].

    J' = (nu/x) J_nu - J_{nu+1}, and J'' follows from Bessel's equation,
    so a step costs two jv calls.  Each step shrinks the bracket to the
    side of the evaluated point that keeps the sign change; a Halley
    step that leaves the bracket falls back to its midpoint.
    """
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    # rounding can put the regula-falsi point on or past an end
    x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
    active = np.arange(x.size)
    for _ in range(_MAX_STEPS):
        v, xa = nu[active], x[active]
        f = _sci_special.jv(v, xa)
        fp = v / xa * f - _sci_special.jv(v + 1.0, xa)
        fpp = -fp / xa - (1.0 - (v / xa) ** 2) * f
        same = np.signbit(f) == np.signbit(f_lo[active])
        lo[active] = np.where(same, xa, lo[active])
        f_lo[active] = np.where(same, f, f_lo[active])
        hi[active] = np.where(same, hi[active], xa)
        step = 2.0 * f * fp / (2.0 * fp * fp - f * fpp)
        x_new = xa - step
        la, ha = lo[active], hi[active]
        done = np.abs(step) < 1e-14 * xa
        escaped = ~((x_new > la) & (x_new < ha))
        x[active] = np.where(done, np.clip(x_new, la, ha),
                             np.where(escaped, 0.5 * (la + ha), x_new))
        active = active[~done]
        if active.size == 0:
            return x
    i = active[0]
    raise NumericalError(
        "bessel_zeros_upto",
        f"{active.size} zeros unconverged after {_MAX_STEPS} Halley steps; "
        f"first for nu={nu[i]!r} in bracket [{lo[i]!r}, {hi[i]!r}]")


def bessel_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu, k >= 1, to ~1e-12 relative."""
    if k < 1:
        raise SpecError("bessel_zero requires k >= 1")
    if nu < 0:
        raise SpecError("bessel_zero requires nu >= 0")
    # McMahon-style upper estimate for where the k-th zero lives, padded.
    beta = (k + 0.5 * nu - 0.25) * math.pi
    x_max = max(beta + nu + 10.0, nu + 1.9 * max(nu, 1.0) ** (1 / 3) + 5.0)
    zeros = bessel_zeros_upto(nu, x_max)
    while zeros.size < k:
        x_max *= 1.5
        zeros = bessel_zeros_upto(nu, x_max)
        if x_max > 1e8:
            raise NumericalError(
                "bessel_zero",
                f"bracketing failure for nu={nu}, k={k}; searched up to x={x_max:.3g}",
            )
    return float(zeros[k - 1])


# ---------------------------------------------------------------------------
# Theta-type sum for rectangle spectra
# ---------------------------------------------------------------------------

def rect_theta_factor(t: float) -> float:
    """S(t) = sum_{m>=1} exp(-pi^2 m^2 t), absolute error < 1e-14.

    For t < THETA_T_SWITCH the modular transform
    S(t) = -1/2 + 1/(2 sqrt(pi t)) + (1/sqrt(pi t)) sum_{m>=1} exp(-m^2/t)
    is used; both branches need at most ~12 terms at the switch point.
    """
    if t <= 0:
        raise SpecError(f"rect_theta_factor requires t > 0, got {t}")
    if t >= THETA_T_SWITCH:
        total = 0.0
        m = 1
        while True:
            term = math.exp(-math.pi**2 * m * m * t)
            total += term
            if term < 1e-18:
                return total
            m += 1
    sqrt_pi_t = math.sqrt(math.pi * t)
    tail = 0.0
    m = 1
    while True:
        term = math.exp(-m * m / t)
        tail += term
        if term < 1e-18 * sqrt_pi_t or term == 0.0:
            break
        m += 1
    return -0.5 + (0.5 + tail) / sqrt_pi_t


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def tanh_sinh(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-13,
    max_level: int = 12,
) -> Tuple[float, float]:
    """Tanh-sinh (double exponential) quadrature on a finite interval.

    f must accept numpy arrays.  Returns (value, error_estimate).
    Suited to integrands that are smooth inside (a, b) but may have
    integrable endpoint singularities; a non-finite value at any node raises.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise SpecError("tanh_sinh requires a finite interval a < b")
    half = 0.5 * (b - a)

    def eval_level(h: float, only_odd: bool) -> float:
        # nodes t = k h; at refinement only odd k are new
        t_max = np.arcsinh(2.0 / math.pi * 0.5 * math.log(4.0 * half / 1e-305))
        k_max = int(np.ceil(t_max / h)) + 1
        k = np.arange(-k_max, k_max + 1)
        if only_odd:
            k = k[k % 2 != 0]
        t = k * h
        u = 0.5 * math.pi * np.sinh(t)
        # distance of the node from the nearer endpoint, computed without
        # cancellation: half*(1 - |tanh u|) = half * 2 / (exp(2|u|) + 1)
        with np.errstate(over="ignore"):
            d = 2.0 * half / (np.exp(2.0 * np.abs(u)) + 1.0)
            x = np.where(t >= 0, b - d, a + d)
            w = 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
        w = np.where(np.isfinite(w), w, 0.0)
        keep = (x > a) & (x < b) & (w > 0)
        x, w = x[keep], w[keep]
        vals = np.asarray(f(x), dtype=float)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise NumericalError(
                "tanh_sinh",
                f"integrand not finite at {int(np.count_nonzero(bad))} nodes, "
                f"first at x={float(x[bad][0]):.17g}")
        return float(np.sum(vals * w))

    h = 1.0
    total = eval_level(h, only_odd=False)
    prev = total * h * half
    for level in range(1, max_level + 1):
        h *= 0.5
        total += eval_level(h, only_odd=True)
        value = total * h * half
        err = abs(value - prev)
        if err < tol * max(1.0, abs(value)) and level >= 3:
            return value, err
        prev = value
    raise NumericalError(
        "tanh_sinh",
        f"no convergence after level {max_level}, last change {err:.3g}",
        best_estimate=prev,
    )


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if order not in _GAUSS_CACHE:
        _GAUSS_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GAUSS_CACHE[order]


def gauss_panels(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    order: int = 20,
    max_panels: int = 4096,
) -> Tuple[float, float]:
    """Composite Gauss-Legendre with panel doubling until the change < tol.

    f must accept numpy arrays.  Deterministic reduction order.
    """
    x0, w0 = gauss_rule(order)
    prev = None
    n = 1
    while n <= max_panels:
        edges = np.linspace(a, b, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halfs = 0.5 * (edges[1:] - edges[:-1])
        xs = (mids[:, None] + halfs[:, None] * x0[None, :]).ravel()
        ws = (halfs[:, None] * w0[None, :]).ravel()
        value = float(np.sum(f(xs) * ws))
        if prev is not None:
            err = abs(value - prev)
            if err < tol * max(1.0, abs(value)):
                return value, err
        prev = value
        n *= 2
    raise NumericalError(
        "gauss_panels",
        f"quadrature did not converge below {tol:.3g} with {max_panels} panels",
        best_estimate=prev,
    )
