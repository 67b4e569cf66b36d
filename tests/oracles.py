"""Independent reference values computed with mpmath / scipy only.

Everything here deliberately avoids the package's own numerics: traces come
from mpmath theta functions at high precision, kernels from explicit image
sums, and integrals from scipy quadrature, so agreement with the package is
evidence rather than tautology.
"""

import math

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import jv

mp.mp.dps = 30


def theta_side(t):
    """sum_{n>=1} exp(-pi^2 n^2 t) at high precision (interval eigenvalues)."""
    t = mp.mpf(t)
    if t < mp.mpf("0.15"):
        return -mp.mpf(1) / 2 + mp.jtheta(3, 0, mp.exp(-1 / t)) / (2 * mp.sqrt(mp.pi * t))
    return (mp.jtheta(3, 0, mp.exp(-mp.pi ** 2 * t)) - 1) / 2


def rect_trace(a, b, t):
    """Dirichlet heat trace of an a x b rectangle via mpmath theta."""
    return float(theta_side(mp.mpf(t) / mp.mpf(a) ** 2)
                 * theta_side(mp.mpf(t) / mp.mpf(b) ** 2))


# Closed form for the unit square: zeta'(0) = (3/2) log 2 + (3/4) log pi
# - log Gamma(1/4), from the torus determinant by the reflection argument.
SQUARE_ZETA_PRIME0 = float(mp.mpf(3) / 2 * mp.log(2) + mp.mpf(3) / 4 * mp.log(mp.pi)
                           - mp.log(mp.gamma(mp.mpf(1) / 4)))


def slit_square_odd_fdm(h):
    """5-point Dirichlet eigenvalues of the unit slit square odd about x = 1/2.

    The slit runs from (1/2, 0) to (1/2, 1/2).  A mode odd about x = 1/2
    vanishes on the whole line x = 1/2, slit included, so the odd modes are
    the lattice modes of the half square [0, 1/2] x [0, 1]: the square
    lattice's (4/h^2)(sin^2(m pi h/2) + sin^2(n pi h/2)) with m even, every
    one of them once.  As h -> 0 they tend to pi^2 (m^2 + n^2) = pi^2
    (4a^2 + b^2) with a = m/2, b = n.  Ascending.
    """
    steps = round(1 / h)
    m = np.arange(2, steps, 2)[:, None]
    n = np.arange(1, steps)[None, :]
    lam = (4 / h ** 2) * (np.sin(m * math.pi * h / 2) ** 2
                          + np.sin(n * math.pi * h / 2) ** 2)
    return np.sort(lam.ravel())


def halfplane_ball_trace(eps, t):
    """int_{B_eps cap {y>0}} (1/4pi t)(1 - e^{-y^2/t}) dx dy by quadrature."""
    val, _ = integrate.dblquad(
        lambda r, th: (1.0 - math.exp(-(r * math.sin(th)) ** 2 / t)) * r,
        0.0, math.pi, 0.0, eps, epsabs=1e-13, epsrel=1e-13)
    return val / (4 * math.pi * t)


def quarterplane_ball_trace(eps, t):
    """Image-method diagonal over the quarter-ball of a right-angle wedge."""
    def diag(r, th):
        x, y = r * math.cos(th), r * math.sin(th)
        return (1.0 - math.exp(-y * y / t) - math.exp(-x * x / t)
                + math.exp(-(x * x + y * y) / t)) * r

    val, _ = integrate.dblquad(diag, 0.0, math.pi / 2, 0.0, eps,
                               epsabs=1e-13, epsrel=1e-13)
    return val / (4 * math.pi * t)


def sector_ball_trace(alpha, eps, t, radius=3.0, lam_max=None):
    """Ball-restricted trace of a cone sector from its Bessel eigenfunctions.

    Dirichlet modes of the sector of angle alpha*pi and radius `radius` are
    J_nu(j_{nu,n} r/R) sin(nu theta), nu = k/alpha; the heat-kernel diagonal
    integrated over B_eps is the mode sum of e^{-t lambda} times the radial
    mass ratio int_0^eps J^2 r dr / int_0^R J^2 r dr, with the closed form
    int_0^R J_nu(j r/R)^2 r dr = (R^2/2) J_{nu+1}(j)^2.
    """
    if lam_max is None:
        lam_max = 40.0 / t
    x_max = radius * math.sqrt(lam_max)
    # 400-point Gauss-Legendre on [0, eps] resolves every retained mode
    nodes, weights = np.polynomial.legendre.leggauss(400)
    r = 0.5 * eps * (nodes + 1.0)
    w = 0.5 * eps * weights
    total = 0.0
    k = 1
    while True:
        nu = k / alpha
        zeros = _bessel_zeros_upto(nu, x_max)
        if zeros.size == 0:
            break
        lam = (zeros / radius) ** 2
        for j, l in zip(zeros, lam):
            mass = float(np.sum(jv(nu, j * r / radius) ** 2 * r * w))
            norm = radius ** 2 / 2 * jv(nu + 1, j) ** 2
            total += math.exp(-t * l) * mass / norm
        k += 1
    return total


def _bessel_zeros_upto(nu, x_max):
    """Zeros of J_nu below x_max by sign-change bracketing + brentq."""
    from scipy.optimize import brentq

    if jv(nu, x_max) == 0.0:
        x_max *= 1.0 + 1e-12
    xs = np.linspace(max(nu, 1e-3), x_max, max(int(x_max * 4), 8))
    vals = jv(nu, xs)
    zeros = []
    for i in range(xs.size - 1):
        if vals[i] == 0.0:
            zeros.append(xs[i])
        elif vals[i] * vals[i + 1] < 0:
            zeros.append(brentq(lambda x: jv(nu, x), xs[i], xs[i + 1],
                                xtol=1e-14, rtol=8.9e-16))
    return np.asarray(zeros)


# ---------------------------------------------------------------------------
# Straightforward whole-array forms of the Brownian-bridge walker's kernels.
# The walker computes the same floating-point operations on cache-sized
# blocks and coordinate planes; its results must match these bit for bit.
# ---------------------------------------------------------------------------

def bridge_offsets(rng, m, steps, t):
    """Midpoint-refined bridge offsets (m, steps+1, 2) by fancy indexing."""
    z = np.zeros((m, steps + 1, 2))
    stride = steps
    while stride > 1:
        half = stride // 2
        idx = np.arange(0, steps, stride)
        tau = t * stride / steps
        mean = 0.5 * (z[:, idx] + z[:, idx + stride])
        z[:, idx + half] = mean + rng.standard_normal(mean.shape) * math.sqrt(tau / 2)
        stride = half
    return z


def dist_to_boundary(pts, segs, arcs):
    """Distance from each row of pts (N, 2) to the nearest wall or arc."""
    d = np.full(pts.shape[0], np.inf)
    for p0, p1 in segs:
        ab = p1 - p0
        L2 = float(ab @ ab)
        s = np.clip(((pts - p0) @ ab) / L2, 0.0, 1.0)
        proj = p0 + s[:, None] * ab
        d = np.minimum(d, np.hypot(pts[:, 0] - proj[:, 0], pts[:, 1] - proj[:, 1]))
    for center, radius in arcs:
        r = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        d = np.minimum(d, np.abs(radius - r))
    return d


def segments_cross_many(a0, a1, b0, b1):
    """Proper-crossing test of each segment [a0, a1] against one [b0, b1]."""
    def orient(p, q, r):
        return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) \
            - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0])

    b0 = np.broadcast_to(b0, a0.shape)
    b1 = np.broadcast_to(b1, a0.shape)
    d1 = orient(b0, b1, a0)
    d2 = orient(b0, b1, a1)
    d3 = orient(a0, a1, b0)
    d4 = orient(a0, a1, b1)
    return ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))


def block_weights(domain, paths, ds, segs, arcs, slit_segs):
    """Survival weight of each path (paths, knots, 2): every path is scored,
    then a path with a knot outside the domain or crossing a slit gets 0."""
    nb, knots, _ = paths.shape
    pts = paths.reshape(-1, 2)
    alive = domain.contains(pts).reshape(nb, knots).all(axis=1)
    dist = dist_to_boundary(pts, segs, arcs).reshape(nb, knots)
    log_keep = np.log1p(-np.exp(-dist[:, :-1] * dist[:, 1:] / ds)
                        .clip(max=1.0 - 1e-16)).sum(axis=1)
    weight = np.where(alive, np.exp(log_keep), 0.0)
    for b0, b1 in slit_segs:
        cross = segments_cross_many(paths[:, :-1], paths[:, 1:], b0, b1)
        weight[cross.any(axis=1)] = 0.0
    return weight


def pa_rhs_integrated(domain, sigma, u=0.0, tol=1e-10):
    """The integrated anomaly log zdet(g_u) - log zdet(g_{u+1}), term by term.

    A second, independent statement of the conformal rules
    K_u dVol_u = u Delta_0 sigma dVol_0 and k_u dl_u = (k_0 + u d_n sigma) dl_0,
    written out directly over the package's quadrature: it checks how
    pa_rhs assembles the terms, not the quadrature itself.
    """
    from spectral_corner import (boundary_integral, corner_term,
                                 interior_integral)

    if sigma.is_zero():
        dirichlet = curv = bcurv = normal = 0.0
    else:
        dirichlet = interior_integral(
            domain, lambda x, y: sigma.grad_sq(x, y), tol) / (12 * math.pi)
        curv = 0.0 if u == 0.0 else u * interior_integral(
            domain, lambda x, y: sigma(x, y) * sigma.pos_laplacian(x, y),
            tol) / (6 * math.pi)
        bcurv = boundary_integral(
            domain,
            lambda x, y, nx, ny, k: sigma(x, y)
            * (k + u * sigma.normal_derivative(x, y, nx, ny)),
            tol) / (6 * math.pi)
        normal = boundary_integral(
            domain,
            lambda x, y, nx, ny, k: sigma.normal_derivative(x, y, nx, ny),
            tol) / (4 * math.pi)
    corner = 0.0
    for c in domain.corners:
        corner += float(sigma(*c.location)) * corner_term(c.alpha)
    corner *= 2.0
    breakdown = {"dirichlet_energy": dirichlet, "interior_curvature": curv,
                 "boundary_curvature": bcurv, "normal_derivative": normal,
                 "corner_sum": corner}
    return dirichlet + curv + bcurv + normal + corner, breakdown
