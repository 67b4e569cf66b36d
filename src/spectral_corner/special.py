"""Special functions and quadrature shared by all numeric modules.

Bessel functions of fractional order and their zeros, the one-dimensional
theta-type sum used for exact rectangle heat traces, and quadrature
rules.  All functions here are pure.

Bessel zeros for many orders are found in vectorised solves over chunks
of consecutive orders: a sign-change scan over one flat grid holding the
chunk's orders brackets each zero, and safeguarded Halley steps, two jv
calls each, refine all its brackets together, each zero stopping on its
own.  Each order's scan starts at a proven lower bound for its first
zero, not at nu, so the turning-point region where J_nu is positive and
tiny costs no scan points.  A call that scans more than _CHUNK_POINTS
points runs its chunks on the forked worker pool of ``parallel``; every
zero depends only on its own order and bracket, so the chunking and the
number of workers never change its bits.

A zero stops right after a Halley step delta that stays inside its
bracket and has |delta|^3 <= 1e-15 x.  Halley's error after a step is
about C delta^3 with C = (f''/f')^2 / 4 - f'''/(6 f').  At a zero of J_nu,
f''/f' = -1/x and f'''/f' = -1 + (nu^2 + 2)/x^2, so
C = 1/6 - (2 nu^2 + 1)/(12 x^2), and |C| < 1/6 since x > max(nu, 2.4).
The step just applied thus leaves an error below 1e-15 x / 6, and no
further step is spent only to confirm it.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np
from scipy import special as _sci_special

from .errors import NumericalError, SpecError
from .parallel import fork_map

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

# j_{nu,1} > nu + 1.85575... nu^(1/3), where 1.85575... = -a_1 2^(-1/3) and
# a_1 = -2.33811 is the first zero of Ai (Qu & Wong, Trans. AMS 351, 1999).
# Each order's scan starts at this bound, past the turning-point region
# where J_nu is positive and tiny, rather than at nu.
_FIRST_ZERO_SLACK = 1.8557

# Halley steps allowed per zero before the solve gives up and raises.
_MAX_STEPS = 40

# Scan points per chunk of orders on the worker pool; a call with no more
# scan points than this runs in the caller.  Timed on a 2-vCPU Xeon against
# one-chunk calls on the alpha = 1.5 sector orders, alternating, OpenBLAS
# pinned to one thread: a call cut in two took 2.2x at 3200 points (23 ms),
# 1.0x at 4700 (57 ms) and 0.8x at 6200 (110 ms); at the default thread
# count the 6200-point call read 0.8-1.3x over four runs.  A 15000-point
# call (one 4000-mode sector of the closed-form benchmark) took 0.6-0.66x
# in 2 to 6 chunks in both settings.
_CHUNK_POINTS = 6000


def bessel_zeros_upto(nu, x_max: float) -> np.ndarray:
    """All positive zeros of J_nu in (0, x_max], to ~1e-15 relative.

    nu is one order or a 1-D array of orders.  The zeros come back as one
    flat array, grouped by order in the order given and ascending within
    each order.  Each zero is bracketed by a sign change on the step-1.5
    scan, which starts at nu + 1.8557 nu^(1/3), below j_{nu,1}.  It is
    seeded at the regula-falsi point of its bracket and refined by
    safeguarded Halley steps.  It stops after a step delta that stays in
    its bracket with |delta|^3 <= 1e-15 x, which by Halley's cubic error
    bound (see the module docstring) leaves it within 1e-15 x / 6 of the
    zero.  A step that leaves the bracket falls back to the midpoint and
    never stops a zero, however small it is.  A zero still moving after
    _MAX_STEPS steps raises NumericalError.

    The orders are cut into ceil(P / _CHUNK_POINTS) chunks of consecutive
    whole orders, each starting about an equal share of the P scan points.
    A call whose scan fits one chunk runs here.  Otherwise the chunks run
    on a pool of forked workers (``parallel.fork_map``), one per usable
    CPU, and are joined in order; they run here instead when there is one
    usable CPU, when the platform cannot fork, when this process is itself
    a daemonic multiprocessing worker, or when it runs other Python
    threads.  Each zero is computed elementwise from its own order and
    bracket, so it has the same bits for any chunking and any number of
    workers.  A worker that dies raises
    ``NumericalError("bessel_zeros_upto")``.
    """
    # np.cbrt rounds some elements of a strided view differently than of a
    # contiguous array, which moved scan starts and so some zeros by an ulp
    nus = np.ascontiguousarray(nu, dtype=float)
    if nus.ndim != 1:
        raise SpecError("bessel_zeros_upto requires a scalar or 1-D array of orders")
    if not np.all(nus >= 0):
        raise SpecError("bessel_zeros_upto requires nu >= 0")
    start = _scan_start(nus)
    # scan points start + i * step, i < n, up to the first point >= x_max
    n = np.where(start < x_max, np.ceil((x_max + _SCAN_STEP - start) / _SCAN_STEP),
                 0).astype(np.int64)
    total = int(n.sum())
    if total == 0:
        return np.empty(0)
    chunks = -(-total // _CHUNK_POINTS)
    # chunk i holds the orders whose scan starts in [i, i + 1) * total / chunks;
    # np.unique drops the empty chunks an order longer than a chunk leaves
    edges = np.unique(np.r_[np.searchsorted(np.cumsum(n) - n,
                                            np.arange(chunks) * (total / chunks)),
                            nus.size]).tolist()
    job = (nus, start, n, x_max, edges)
    if len(edges) == 2:
        return _chunk_zeros(job, 0)
    # the chunks make no BLAS call, so the workers leave OpenBLAS as it is
    return np.concatenate(fork_map(_chunk_zeros, job, len(edges) - 1,
                                   "bessel_zeros_upto", pin_blas=False))


def _chunk_zeros(job: tuple, i: int) -> np.ndarray:
    """Zeros of chunk i of job = (nus, start, n, x_max, edges): the orders
    edges[i]:edges[i + 1], with their scan starts and scan point counts."""
    nus, start, n, x_max, edges = job
    cut = slice(edges[i], edges[i + 1])
    nus, start, n = nus[cut], start[cut], n[cut]
    order = np.repeat(np.arange(nus.size), n)
    first = np.repeat(np.cumsum(n) - n, n)
    grid = start[order] + (np.arange(order.size) - first) * _SCAN_STEP
    vals = _sci_special.jv(nus[order], grid)
    sign = np.signbit(vals)
    idx = np.nonzero((sign[1:] != sign[:-1]) & (order[1:] == order[:-1]))[0]
    zeros = _halley_zeros(nus[order[idx]], grid[idx], grid[idx + 1],
                          vals[idx], vals[idx + 1])
    return zeros[zeros <= x_max]


def _scan_start(nu: np.ndarray) -> np.ndarray:
    """Where each order's scan starts: a strict lower bound for j_{nu,1}."""
    return np.maximum(nu + _FIRST_ZERO_SLACK * np.cbrt(nu), 1e-8)


def _halley_zeros(nu, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Zeros of J_nu, one in each sign-change bracket [lo, hi].

    J' = (nu/x) J_nu - J_{nu+1}, and J'' follows from Bessel's equation,
    so a step costs two jv calls.  Each step shrinks the bracket to the
    side of the evaluated point that keeps the sign change; a Halley
    step that leaves the bracket falls back to its midpoint.  A zero stops
    once a step in its bracket has |step|^3 <= 1e-15 x.
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
        inside = (x_new > la) & (x_new < ha)
        # a converged step may round onto an end of a bracket that has
        # closed to adjacent floats around the zero
        done = (x_new >= la) & (x_new <= ha) & (np.abs(step) ** 3 <= 1e-15 * xa)
        x[active] = np.where(inside | done, x_new, 0.5 * (la + ha))
        active = active[~done]
        if active.size == 0:
            return x
    i = active[0]
    raise NumericalError(
        "bessel_zeros_upto",
        f"{active.size} zeros unconverged after {_MAX_STEPS} Halley steps; "
        f"first for nu={nu[i]!r} in bracket [{lo[i]!r}, {hi[i]!r}]")


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

_TANH_SINH_LEVELS = 12  # step halvings before tanh_sinh gives up
_PANEL_ORDER = 20  # Gauss-Legendre nodes per gauss_panels panel


def tanh_sinh(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-13,
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
    for level in range(1, _TANH_SINH_LEVELS + 1):
        h *= 0.5
        total += eval_level(h, only_odd=True)
        value = total * h * half
        err = abs(value - prev)
        if err < tol * max(1.0, abs(value)) and level >= 3:
            return value, err
        prev = value
    raise NumericalError(
        "tanh_sinh",
        f"no convergence after level {_TANH_SINH_LEVELS}, last change {err:.3g}",
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
    max_panels: int = 4096,
) -> Tuple[float, float]:
    """Composite Gauss-Legendre with panel doubling until the change < tol.

    f must accept numpy arrays.  Deterministic reduction order.
    """
    x0, w0 = gauss_rule(_PANEL_ORDER)
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
