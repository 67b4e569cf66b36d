"""Dirichlet spectra, their heat traces, and a slit-aware finite-difference solver.

Analytic spectra cover rectangles, disks, and circular sectors of any
opening angle alpha*pi > 0 (alpha > 2 is a cone sector).  Polygonal and slit
domains with a conformal weight e^{2 u sigma} use a 5-point finite
difference discretization.  An operator that a lattice reflection maps
onto itself is solved as two independent half-size blocks, its modes even
and odd under the mirror.  A block small for the number of modes asked
(n_b^2 <= 1300 k) is solved densely, every eigenvalue of it at once.  Any
other operator goes to a spectrum-slicing shift-invert Lanczos eigensolver
whose eigenvalue counts are certified by Sylvester inertia, summed over
the blocks; its windows run on forked worker processes (``parallel``), one
per usable CPU, with the same bits for any number of workers.

Every spectrum is a trace source (``TraceSource``): the truncated sum over
its eigenvalues.  Rectangle spectra also carry their exact theta-product
trace, a ``FunctionTraceProvider``; ``Spectrum.trace`` is the best source a
spectrum has, and ``_closed_form`` is the one place that choice is made.
``spectrum_for`` is the one place a metric's spectrum route (closed form or
finite differences) is chosen.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spsla
from scipy.special import exp1

from .errors import NumericalError, SpecError
from .fields import as_field
from .geometry import Domain, MetricSpec
from .parallel import fork_map
from .special import bessel_zeros_upto, gauss_panels, rect_theta_factor

# Relative tail below 1e-15 once t * completeness >= this; a truncated sum
# refuses smaller t.
TAIL_THRESHOLD = 40.0
# Default fit windows over finite-difference spectra start no lower than
# this t, whatever their completeness: as t -> 0 the trace of the lattice
# operator leaves the continuum short-time expansion.
_FDM_WINDOW_FLOOR = 1e-2
# analytic_spectrum gives up once its cutoff's Weyl count exceeds this many
# times N + 10 (eight growth steps past the first guess).
_WEYL_CAP = 64
# Spectrum.value builds exp(-t lambda) for as many t at a time as fit in
# this many entries (32 MB), so memory does not grow with len(t) * count.
_VALUE_BLOCK = 1 << 22
# Finite-difference spectra report completeness at this share of their top
# eigenvalue, a margin below the last computed mode.
COMPLETE_SHARE = 0.8


class TraceSource(Protocol):
    """A heat trace Tr(e^{-t Delta}) valid for t >= t_min.

    Two kinds exist: a ``Spectrum`` (the truncated eigenvalue sum) and a
    ``FunctionTraceProvider`` (an exact closed form, t_min = 0).
    """

    t_min: float
    lam_1: float  # lowest eigenvalue; Tr decays like e^{-t lam_1}

    def value(self, t):
        """Tr(e^{-t Delta}), elementwise over an array of t."""

    def e1_sum(self, t0: float = 1.0) -> tuple[float, float]:
        """int_{t0}^inf t^-1 Tr dt and a bound on its error."""

    def tail_bound(self, t: float) -> float:
        """Bound on the error of value(t)."""


@dataclass
class Spectrum:
    """Ascending Dirichlet eigenvalues with a completeness guarantee.

    ``completeness`` is the largest Lambda below which no eigenvalue is
    missing from ``eigenvalues``.  As a trace source the spectrum is the
    truncated sum, admissible for t >= 40/Lambda; ``exact`` is the closed
    form of its trace where one is known.  Default fit windows start no
    lower than ``window_floor``.  ``provenance`` is metadata only.
    """

    eigenvalues: np.ndarray
    provenance: dict
    completeness: float
    volume: float
    boundary_length: Optional[float] = None
    exact: Optional[FunctionTraceProvider] = None
    window_floor: float = 1e-4

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.size == 0:
            raise SpecError("spectrum must contain at least one eigenvalue")
        if lam[0] <= 0 or np.any(np.diff(lam) < -1e-12 * lam[-1]):
            raise SpecError("eigenvalues must be positive and nondecreasing")
        self.eigenvalues = lam

    @property
    def count(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def trace(self) -> TraceSource:
        """The exact trace where one is attached, else this truncated sum."""
        return self if self.exact is None else self.exact

    @property
    def t_min(self) -> float:
        return TAIL_THRESHOLD / self.completeness

    @property
    def lam_1(self) -> float:
        return float(self.eigenvalues[0])

    def _admit(self, t, stage: str) -> None:
        if np.any(t < self.t_min):
            raise NumericalError(
                stage,
                f"t={float(np.min(t)):.3g} below minimum admissible "
                f"t={self.t_min:.3g} (completeness {self.completeness:.3g}); "
                "no tail extrapolation")

    def value(self, t):
        """sum_n e^{-t lambda_n}; refuses t below t_min."""
        t = np.asarray(t, dtype=float)
        self._admit(t, "trace_at")
        flat, lam = t.ravel(), self.eigenvalues
        rows = max(1, _VALUE_BLOCK // lam.size)
        out = np.empty(flat.size)
        for i in range(0, flat.size, rows):
            # each row is summed as a whole, so its bits do not depend on rows
            out[i:i + rows] = np.exp(-np.outer(flat[i:i + rows], lam)).sum(axis=1)
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)

    def e1_sum(self, t0: float = 1.0) -> tuple[float, float]:
        """sum_n E_1(t0 lambda_n), exact for the known modes.

        By the Weyl estimate of tail_bound, the omitted modes contribute
        tail_bound(t0) / (t0 * completeness) < tail_bound(t0).
        """
        self._admit(t0, "e1_sum")
        return float(np.sum(exp1(t0 * self.eigenvalues))), self.tail_bound(t0)

    def tail_bound(self, t: float) -> float:
        """Weyl estimate of the omitted tail: int_Lambda^inf (Vol/4pi) e^{-t lam}."""
        return self.volume * math.exp(-t * self.completeness) / (4 * math.pi * t)


class FunctionTraceProvider:
    """Exact trace given by a closed-form callable, valid on all of (0, inf)."""

    t_min = 0.0

    def __init__(self, fn, lam_1: float):
        self._fn = fn
        self.lam_1 = float(lam_1)

    @classmethod
    def rectangle(cls, a: float, b: float) -> FunctionTraceProvider:
        """Theta product S(t/a^2) S(t/b^2) of the a x b rectangle."""
        if a <= 0 or b <= 0:
            raise SpecError("rectangle sides must be positive")
        a, b = float(a), float(b)
        return cls(lambda t: rect_theta_factor(t / a**2) * rect_theta_factor(t / b**2),
                   math.pi**2 * (1 / a**2 + 1 / b**2))

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.array([float(self._fn(ti)) for ti in t.ravel()])
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)

    def e1_sum(self, t0: float = 1.0) -> tuple[float, float]:
        return _upper_mellin(self, 0.0, t0), 1e-13

    def tail_bound(self, t: float) -> float:
        return 1e-15


def _upper_mellin(source: TraceSource, s: float, t0: float = 1.0) -> float:
    """int_{t0}^inf t^{s-1} Tr dt by Gauss panels in x = log t.

    The range ends where e^{-t lam_1} has fallen by another e^{-50}.
    """
    t_hi = t0 + (TAIL_THRESHOLD + 10.0) / source.lam_1
    val, _ = gauss_panels(lambda x: np.exp(s * x) * source.value(np.exp(x)),
                          math.log(t0), math.log(t_hi), tol=1e-13)
    return val


def weyl_ratio(spec: Spectrum, n: int) -> float:
    """lambda_n * Vol / (4 pi n); tends to 1 as n grows (Weyl's law)."""
    if not (1 <= n <= spec.count):
        raise SpecError(f"weyl_ratio needs 1 <= n <= {spec.count}")
    return float(spec.eigenvalues[n - 1] * spec.volume / (4 * math.pi * n))


# ---------------------------------------------------------------------------
# Closed-form spectra
# ---------------------------------------------------------------------------

def analytic_spectrum(domain: Domain, N: int) -> Spectrum:
    """Closed-form Dirichlet spectrum with at least N eigenvalues.

    rectangle a x b : pi^2 (m^2/a^2 + n^2/b^2)
    disk R          : (j_{nu,k}/R)^2, integer nu, multiplicity 2 for nu >= 1
    sector alpha, R : (j_{k/alpha, m}/R)^2 for k, m >= 1

    The returned spectrum contains *all* eigenvalues up to its completeness
    bound, which is at least lambda_N.
    """
    if N < 1:
        raise SpecError("analytic_spectrum requires N >= 1")
    # Weyl-law guess for the cutoff, grown until N eigenvalues are present.
    lam_max = 4 * math.pi * (N + 10) / domain.area * 1.5 + 50.0 / domain.area
    for _ in range(40):
        if domain.area * lam_max / (4 * math.pi) > _WEYL_CAP * (N + 10):
            # a sliver whose first eigenvalue lies far above the Weyl guess:
            # the cutoff that reaches it holds billions of eigenvalues
            raise NumericalError(
                "analytic_spectrum",
                f"domain too thin: no {N} eigenvalues within {_WEYL_CAP} "
                "times the Weyl count")
        spec = _closed_form(domain, lam_max)
        if spec is not None and spec.count >= N:
            return spec
        lam_max *= 1.6
    raise NumericalError("analytic_spectrum", f"could not collect {N} eigenvalues")


def _closed_form(domain: Domain, lam_max: float) -> Optional[Spectrum]:
    """Closed-form eigenvalues <= lam_max as a Spectrum, None if there are none.

    Rectangles get their exact theta-product trace attached here.
    """
    p, exact = domain.params, None
    if domain.kind == "rectangle":
        lam = _rect_eigs(p["a"], p["b"], lam_max)
        exact = FunctionTraceProvider.rectangle(p["a"], p["b"])
    elif domain.kind == "disk":
        lam = _bessel_eigs(p["R"], lam_max, orders=None)
    elif domain.kind == "sector":
        lam = _bessel_eigs(p["R"], lam_max, orders=p["alpha"])
    else:
        raise SpecError(f"no closed-form spectrum for kind {domain.kind!r}")
    if lam.size == 0:
        return None
    return Spectrum(lam, {"source": "analytic", "kind": domain.kind,
                          "params": domain.params},
                    completeness=lam_max, volume=domain.area,
                    boundary_length=domain.perimeter, exact=exact)


def _rect_eigs(a: float, b: float, lam_max: float) -> np.ndarray:
    m_max = int(math.floor(a * math.sqrt(lam_max) / math.pi))
    n_max = int(math.floor(b * math.sqrt(lam_max) / math.pi))
    if m_max < 1 or n_max < 1:
        return np.empty(0)
    m = np.arange(1, m_max + 1)
    n = np.arange(1, n_max + 1)
    lam = math.pi**2 * (m[:, None] ** 2 / a**2 + n[None, :] ** 2 / b**2)
    lam = lam[lam <= lam_max]
    return np.sort(lam.ravel())


def _bessel_eigs(radius: float, lam_max: float, orders) -> np.ndarray:
    """Bessel-zero eigenvalues; orders=None -> disk, orders=alpha -> sector.

    Only orders nu <= x_max can have a zero below x_max, since j_{nu,1} > nu.
    """
    x_max = radius * math.sqrt(lam_max)
    if orders is None:
        zeros = bessel_zeros_upto(np.arange(math.floor(x_max) + 1, dtype=float), x_max)
        # angular multiplicity 2 for nu >= 1.  The nu = 0 zeros lead, and
        # z_i > (i + 3/4) pi holds up to their end: j_{0,m} > (m - 1/4) pi,
        # and the next zero, j_{1,1} = 3.83, lies below 7 pi / 4.
        above = zeros > (np.arange(zeros.size) + 0.75) * math.pi
        n0 = np.append(np.flatnonzero(~above), zeros.size)[0]
        zeros = np.concatenate([zeros, zeros[n0:]])
    else:
        nus = np.arange(1, math.floor(orders * x_max) + 2) / orders
        zeros = bessel_zeros_upto(nus[nus <= x_max], x_max)
    return np.sort((zeros / radius) ** 2)


# ---------------------------------------------------------------------------
# Finite-difference discretization
# ---------------------------------------------------------------------------

@dataclass
class DiscreteOperator:
    """5-point Dirichlet Laplacian with a diagonal conformal weight.

    Generalized problem A x = lambda W x, W = diag(e^{2 u sigma}), reduced
    to the symmetric B = W^{-1/2} A W^{-1/2}.  Wall and slit lattice points
    are not unknowns (the Dirichlet condition), so stencils never couple
    opposite slit sides.

    ``reflection`` is None, or a lattice reflection that maps the operator
    onto itself: the node permutation P that mirrors node i onto node P[i],
    with A[P][:, P] == A and w[P] == w exactly.  ``solve_eigs`` then solves
    the modes even and odd under P as two independent blocks.
    """

    domain: Domain
    h: float
    nodes: np.ndarray  # (n, 2) interior node coordinates
    A: sps.csr_matrix
    w: np.ndarray  # diagonal conformal weights at nodes
    metric: MetricSpec
    reflection: Optional[np.ndarray]  # (n,) node permutation P, or None

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def volume(self) -> float:
        """Weighted lattice volume sum_i w_i h^2, the discrete Vol_u."""
        return float(np.sum(self.w) * self.h**2)

    def symmetrized(self) -> sps.csr_matrix:
        d = 1.0 / np.sqrt(self.w)
        return sps.diags(d) @ self.A @ sps.diags(d)


def assemble_fdm(domain: Domain, metric: Optional[MetricSpec] = None,
                 h: float = 1 / 64) -> DiscreteOperator:
    """Assemble the finite-difference operator on a lattice of spacing h.

    Supported: rectangles and (slit-)polygons.  Each slit vertex must sit
    on a grid point and each of ``domain.slit_segments`` must run along a
    grid line or a grid diagonal (|dx| = |dy|): once the nodes on it are
    removed, no 5-point stencil joins its two sides.  Any other segment is
    rejected by name.
    Disks and sectors, cones included, have no vertex lattice and are
    rejected with their kind; ``analytic_spectrum`` covers them.

    The unknowns are the lattice points that ``domain.contains`` admits and
    that lie on none of ``domain.walls``, the polygon's edges and slit
    segments.  A point on a wall is removed whichever side of it the
    interior lies, so a polygon and its mirror images give the same
    spectrum.  A is the 5-point Laplacian kron(T_x, I) + kron(I, T_y) of the
    whole bounding-box lattice, T the 1-D second difference over h^2,
    restricted to the unknowns: dropping the other rows and columns is the
    Dirichlet condition.

    The operator records the first lattice reflection (``_lattice_reflection``)
    that maps its interior nodes onto themselves and its weights onto
    themselves to within 8 eps relative: the mirrors in x and in y and, when
    the lattice is square, the diagonal and the anti-diagonal.  A mirrored
    pair of nodes whose weights differ by rounding (sigma = 0.2 x y at (a, b)
    and (b, a)) takes the weight of its lower-numbered node, so each w_i
    moves by at most 8 eps w_i and ``w`` is exactly symmetric; ``volume``,
    ``weighted_trace`` and the residual check all see that one operator.
    """
    verts = domain.vertices
    if verts is None:
        raise SpecError(f"FDM unsupported for kind {domain.kind!r}")

    x0, y0 = verts.min(axis=0)
    x1, y1 = verts.max(axis=0)
    nx, ny = (x1 - x0) / h, (y1 - y0) / h
    if abs(nx - round(nx)) > 1e-9 or abs(ny - round(ny)) > 1e-9:
        raise SpecError("grid spacing h must divide the domain bounding box")
    nx, ny = int(round(nx)), int(round(ny))
    off = (np.reshape(domain.slit_segments, (-1, 2, 2)) - [x0, y0]) / h
    if not np.allclose(off, np.round(off), rtol=0.0, atol=1e-9):
        raise SpecError("slit vertices must lie on grid points for spacing h")
    steps = np.diff(np.round(off), axis=1)[:, 0]
    for (p0, p1), (dx, dy) in zip(domain.slit_segments, steps):
        if dx and dy and abs(dx) != abs(dy):
            raise SpecError(
                f"slit segment {p0.tolist()} -> {p1.tolist()} runs along neither "
                "a grid line nor a grid diagonal; the 5-point stencil would "
                "join nodes on its two sides")
    if h > 0.5 * domain.slit_clearance:
        raise SpecError("grid too coarse to separate slit sides; reduce h")

    xs = x0 + h * np.arange(nx + 1)
    ys = y0 + h * np.arange(ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    keep = domain.contains(pts)
    for p0, p1 in domain.walls:
        keep &= ~_on_closed_segment(pts, p0, p1, tol=1e-9 * h)
    n = int(np.count_nonzero(keep))
    if n == 0:
        raise SpecError("grid too coarse: no interior nodes")
    idx = np.where(keep, np.cumsum(keep) - 1, -1).reshape(nx + 1, ny + 1)
    nodes = pts[keep]

    def second_difference(m):
        return sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m)) / h**2

    full = (sps.kron(second_difference(nx + 1), sps.eye(ny + 1), format="csr")
            + sps.kron(sps.eye(nx + 1), second_difference(ny + 1), format="csr"))
    A = full[keep][:, keep]

    if metric is None:
        metric = MetricSpec.flat()
    with np.errstate(all="ignore"):
        w = metric.weight(nodes[:, 0], nodes[:, 1])
    if not np.all(np.isfinite(w) & (w > 0)):
        raise SpecError(
            f"sigma {metric.sigma!r} at u={metric.u:g} gives a conformal "
            "weight e^{2 u sigma} that is not finite and positive at "
            "every grid node")
    P = _lattice_reflection(idx, w)
    if P is not None:
        w = w[np.minimum(np.arange(n), P)]
    return DiscreteOperator(domain, h, nodes, A, w, metric, P)


# A mirrored weight may differ from its node's weight by this share of it
# and still count as symmetric: sigma = 0.2*x*y evaluated at (a, b) and at
# (b, a) rounds apart at 16 of the 961 nodes of the h = 1/32 unit square and
# at 76 of its 3969 at h = 1/64.
_MIRROR_RTOL = 8 * np.finfo(float).eps


def _lattice_reflection(idx: np.ndarray, w: np.ndarray) -> Optional[np.ndarray]:
    """The first lattice reflection that keeps the nodes and weights, or None.

    idx numbers the interior lattice points (i, j) in C order, -1 elsewhere.
    The candidates, in order, are i -> nx - i, j -> ny - j and, when nx = ny,
    the diagonal (i, j) -> (j, i) and the anti-diagonal (i, j) ->
    (ny - j, nx - i).  One that maps the interior onto itself commutes with
    the 5-point stencil exactly, since the stencil depends only on which
    neighbours exist.  It is taken when it also moves no weight w_i by more
    than 8 eps w_i (``_MIRROR_RTOL``) and leaves both blocks at least 2
    nodes (2 mirrored pairs).  Returns P, node i mirrored onto node P[i].
    """
    inside = idx >= 0
    mirrors = [idx[::-1, :], idx[:, ::-1]]
    if idx.shape[0] == idx.shape[1]:
        mirrors += [idx.T, idx[::-1, ::-1].T]
    nodes = np.arange(w.size)
    tol = _MIRROR_RTOL * w
    for mirrored in mirrors:
        if not np.array_equal(mirrored >= 0, inside):
            continue
        P = mirrored[inside]  # idx[inside] is 0, 1, ..., n - 1
        if np.count_nonzero(P > nodes) >= 2 and np.all(np.abs(w - w[P]) <= tol):
            return P
    return None


def _on_closed_segment(pts: np.ndarray, a, b, tol: float) -> np.ndarray:
    ab = np.asarray(b) - np.asarray(a)
    L = float(np.hypot(*ab))
    ap = pts - np.asarray(a)[None, :]
    cross = np.abs(ab[0] * ap[:, 1] - ab[1] * ap[:, 0]) / L
    s = (ap @ ab) / (L * L)
    return (cross <= tol) & (s >= -tol / L) & (s <= 1 + tol / L)


@dataclass
class DiscreteSpectrum:
    """The k smallest eigenpairs of one DiscreteOperator.

    Column j of ``eigenvectors`` (n, k) belongs to ``eigenvalues[j]`` and is
    normalized in the weighted inner product <phi, phi>_w = sum_i phi_i^2
    w_i h^2 = 1, the discrete analogue of the unit L^2(dVol_u) norm.
    """

    op: DiscreteOperator
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def completeness(self) -> float:
        """COMPLETE_SHARE lambda_k: no eigenvalue of the operator below it is missing.

        ``solve_eigs`` proves this on both of its routes.  The dense route
        computes every eigenvalue of every block, and B is congruent to the
        block diagonal, so the k smallest over the blocks are the k smallest
        of B.  The sliced route proves it by Sylvester inertia: its edges
        count every eigenvalue below an edge at or above lambda_k, summed
        over the blocks, and each window of each block returns exactly its
        count.
        """
        return COMPLETE_SHARE * float(self.eigenvalues[-1])

    def spectrum(self) -> Spectrum:
        return Spectrum(self.eigenvalues,
                        {"source": "discrete", "h": self.op.h,
                         "grid_nodes": self.op.n_nodes, "u": self.op.metric.u},
                        completeness=self.completeness(), volume=self.op.volume,
                        window_floor=_FDM_WINDOW_FLOOR)

    def weighted_trace(self, psi, t: float) -> float:
        """Sum e^{-t lam_n} <psi phi_n, phi_n>_w; refuses t below 40/completeness."""
        t_min = TAIL_THRESHOLD / self.completeness()
        if t < t_min:
            raise NumericalError(
                "weighted_trace",
                f"t={t:.3g} below minimum admissible t={t_min:.3g}")
        nodes, w, h = self.op.nodes, self.op.w, self.op.h
        pv = as_field(psi)(nodes[:, 0], nodes[:, 1])
        weights = (pv * w) @ self.eigenvectors**2 * h**2
        return float(np.exp(-t * self.eigenvalues) @ weights)


def richardson_spectrum(domain: Domain, metric: Optional[MetricSpec], h: float,
                        k: int, seed: int = 0) -> Spectrum:
    """Eigenvalue-wise Richardson extrapolation (4 lam_{h/2} - lam_h)/3.

    Sorting pairs modes across the two grids; O(h^2) eigenvalue errors cancel
    to O(h^4) away from slit tips (reduced order near tips is measured, not
    assumed).
    """
    coarse = solve_eigs(assemble_fdm(domain, metric, h=h), k, seed=seed)
    fine = solve_eigs(assemble_fdm(domain, metric, h=h / 2), k, seed=seed)
    lam = (4 * fine.eigenvalues - coarse.eigenvalues) / 3
    lam = np.sort(lam)
    return Spectrum(lam, {"source": "discrete", "h": h, "richardson": True,
                          "u": fine.op.metric.u},
                    completeness=COMPLETE_SHARE * lam[-1], volume=fine.op.volume,
                    boundary_length=domain.perimeter if fine.op.metric.is_flat()
                    else None,
                    window_floor=_FDM_WINDOW_FLOOR)


def spectrum_for(domain: Domain, metric: MetricSpec, k: int, h: float,
                 seed: int) -> Spectrum:
    """Spectrum of g_u = e^{2 u sigma} g_0, k eigenvalues: the one route choice.

    A constant rescaling e^{2c} g_0 (u = 0, or sigma constant; c = u sigma)
    of a rectangle, disk or sector (cones included) is the closed form of
    the domain dilated by e^c, with at least k eigenvalues.  Anything else
    is the Richardson spectrum on grids h and h/2, which needs a polygon.
    """
    sigma, u = metric.sigma, metric.u
    if domain.kind in ("rectangle", "disk", "sector") and (
            u == 0.0 or sigma.is_constant()):
        c = 0.0 if u == 0.0 else u * float(sigma(0.0, 0.0))
        if c == 0.0:
            return analytic_spectrum(domain, k)
        if not abs(c) < 354.0:  # e^{2c} is a finite normal double
            raise SpecError(f"sigma {sigma!r} at u={u:g} gives a conformal "
                            "weight e^{2 u sigma} outside the double range")
        return analytic_spectrum(domain.scaled(math.exp(c)), k)
    if domain.vertices is None:
        raise SpecError(
            f"no spectrum route for kind {domain.kind!r} with sigma {sigma!r} "
            f"at u={u:g}: the closed form needs u = 0 or a constant sigma, "
            "and finite differences need a polygon")
    return richardson_spectrum(domain, metric, h, k, seed=seed)


# Spectrum slicing after Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl. 15
# (1994).  A window [lo, hi) spans this many eigenvalues by the Weyl count
# 4 pi N / vol_w.  Over 24-64, solve times on the benchmark grids
# (n ~ 1e3-4e3, k = 400-516) moved by under a quarter.
_WINDOW = 40
# Modes requested beyond a window's inertia count: the window's own modes are
# the ones nearest its midpoint, the extra ones give Lanczos a spectral gap.
_EXTRA = 6
# A shift that yields no inertia certificate moves by this share of its
# window once; if that fails too the solve fails.
_NUDGE = 1e-3
# Window halvings allowed while a window holds more than 2 * _WINDOW modes,
# as windows near the middle of a block's spectrum do when k is a large
# share of its size, or all n.
_MAX_HALVINGS = 50
# Operators with fewer nodes than this solve their windows in the caller.
# Timed on a 2-vCPU Xeon on the square and the slit square: at n = 217-625
# (h = 1/16 to 1/26) the pool took 1.2-3x the time of one process, at
# n = 715-729 (h = 1/28) about the same, at n = 945-961 (h = 1/32)
# 0.6-0.9x.  Those timings are of sliced solves at k = 100-517; the h = 1/32
# grids take the sliced route only for k below n_b^2 / _DENSE_RATIO, about
# 180.
_POOL_NODES = 700
# An operator whose tallest block has n_b nodes is solved densely when
# n_b^2 <= _DENSE_RATIO * k.  Dense costs ~n_b^3 whatever k is, slicing
# ~k n_b.  On a 2-vCPU Xeon (square, sigma = 0.2 x y, one BLAS thread) the
# two routes broke even at n_b^2 / k ~ 1600 for n_b = 946 and ~1300 for
# n_b = 2016; at n_b = 496 dense won already at k = 50.  With BLAS on both
# CPUs dense wins up to n_b^2 / k = 2300-4000.  Since k < n <= 2 n_b, a
# dense block never exceeds 2 _DENSE_RATIO = 2600 nodes (54 MB).
_DENSE_RATIO = 1300


def _shifted_lu(B: sps.csc_matrix, mu: float):
    """LU of B - mu I and the number of eigenvalues of B below mu, or None.

    With diag_pivot_thresh=0 and SymmetricMode SuperLU pivots on the
    diagonal, so P (B - mu I) P^T = L U with U = D L^T, and the negative
    entries of diag(U) count the eigenvalues below mu (Sylvester's law of
    inertia).  That holds only when perm_r == perm_c; a zero diagonal forces
    an off-diagonal pivot, and a zero pivot means mu is an eigenvalue.
    """
    shifted = (B - mu * sps.identity(B.shape[0], format="csc")).tocsc()
    try:
        lu = spsla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:  # SuperLU: factor is exactly singular
        return None
    d = lu.U.diagonal()
    if not np.array_equal(lu.perm_r, lu.perm_c) or np.any(d == 0):
        return None
    return lu, int(np.count_nonzero(d < 0))


def _certified_lus(Bs: list, mu: float, nudge: float):
    """(shift, [(LU, count below shift) per block]) at mu, or at mu + nudge.

    Every block is factored at the same shift; the nudged shift is tried
    when any block fails at mu.
    """
    for shift in (mu, mu + nudge):
        got = [_shifted_lu(B, shift) for B in Bs]
        if all(g is not None for g in got):
            return shift, got
    raise NumericalError("solve_eigs",
                         f"no inertia certificate at shift {mu:.10g} "
                         f"or at its nudge {mu + nudge:.10g}")


def _eigsh(B, nev: int, sigma: float, v0: np.ndarray, OPinv):
    try:
        return spsla.eigsh(B, k=nev, sigma=sigma, which="LM", v0=v0, tol=0,
                           OPinv=OPinv)
    except Exception as exc:  # ARPACK failures surface as various types
        raise NumericalError("solve_eigs", f"eigensolver failed: {exc}") from exc


def _blocks(op: DiscreteOperator, B: sps.csc_matrix) -> list:
    """(B_b, Q_b) per block of B = W^{-1/2} A W^{-1/2}, with B_b = Q_b^T B Q_b.

    Without a reflection the one block is B itself and Q_b is None, the
    identity.  With a reflection P, S_e sums each mirrored pair of nodes
    and keeps each node P fixes, and S_o takes the difference of each pair.
    A_b = S_b^T A S_b and W_b = diag(|S_b|^T w) give
    B_b = W_b^{-1/2} A_b W_b^{-1/2}; x = S_b x_b carries A_b x_b = lam W_b x_b
    to A x = lam W x with x^T W x = x_b^T W_b x_b, so the prolongation of
    B_b's eigenvectors is Q_b = W^{1/2} S_b W_b^{-1/2}, and [Q_e Q_o] is
    orthogonal.  On the lattice spacings 2^-m every entry of A_b is exact.
    """
    P = op.reflection
    if P is None:
        return [(B, None)]
    n = op.n_nodes
    nodes = np.arange(n)
    low = np.minimum(nodes, P)  # each pair's lower-numbered node
    pair = nodes != P
    even, odd = np.flatnonzero(nodes <= P), np.flatnonzero(nodes < P)
    S_even = sps.csr_matrix((np.ones(n), (nodes, np.searchsorted(even, low))),
                            shape=(n, even.size))
    S_odd = sps.csr_matrix(
        (np.where(nodes < P, 1.0, -1.0)[pair],
         (nodes[pair], np.searchsorted(odd, low[pair]))), shape=(n, odd.size))
    blocks = []
    for S in (S_even, S_odd):
        d = sps.diags(1.0 / np.sqrt(abs(S).T @ op.w))
        blocks.append(((d @ (S.T @ op.A @ S) @ d).tocsc(),
                       (sps.diags(np.sqrt(op.w)) @ S @ d).tocsr()))
    return blocks


def _window_edges(Bs: list, k: int,
                  vol_w: float) -> list[tuple[float, float, int, int]]:
    """Windows (lo, hi, m, b): block b has m > 0 eigenvalues in [lo, hi).

    One sequence of edges serves every block.  The eigenvalues of B below an
    edge are the sum of the blocks' inertia counts there (Sylvester's law,
    through the orthogonal [Q_b] of ``_blocks``); edges advance until that
    sum reaches k.  Each span between edges gives one window per block with
    modes in it, in block order.
    """
    width = 4 * math.pi * _WINDOW / vol_w
    lo, below_lo = 0.0, [0] * len(Bs)  # B is positive definite
    windows = []
    while sum(below_lo) < k:
        hi = lo + width
        for _ in range(_MAX_HALVINGS):
            hi, got = _certified_lus(Bs, hi, _NUDGE * (hi - lo))
            below_hi = [below for _, below in got]
            del got  # free the factors before the next edge is factored
            counts = [b - a for a, b in zip(below_lo, below_hi)]
            if all(m <= min(2 * _WINDOW, B.shape[0] - 1)
                   for m, B in zip(counts, Bs)):
                break
            hi = 0.5 * (lo + hi)
        else:
            raise NumericalError(
                "solve_eigs", f"window above edge {lo:.10g} never thinned "
                f"out after {_MAX_HALVINGS} halvings")
        windows += [(lo, hi, m, b) for b, m in enumerate(counts) if m]
        lo, below_lo = hi, below_hi
    return windows


def _solve_window(job: tuple, i: int) -> np.ndarray:
    """Eigenvalues of window i; its eigenvectors go to out[:n_b, cols[i]:...].

    job is (Bs, windows, v0s, cols, out).  Lanczos on block b must find
    exactly the m eigenvalues inertia counts in [lo, hi).
    """
    Bs, windows, v0s, cols, out = job
    lo, hi, m, b = windows[i]
    B = Bs[b]
    n = B.shape[0]
    mid, [(lu, _)] = _certified_lus([B], 0.5 * (lo + hi), _NUDGE * (hi - lo))
    OPinv = spsla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    lam, Y = _eigsh(B, min(m + _EXTRA, n - 1), mid, v0s[i], OPinv)
    inside = (lam >= lo) & (lam < hi)
    found = int(np.count_nonzero(inside))
    if found != m:
        raise NumericalError(
            "solve_eigs",
            f"window [{lo:.10g}, {hi:.10g}) of block {b}: inertia counts {m} "
            f"eigenvalues, Lanczos found {found}")
    out[:n, cols[i]:cols[i] + m] = Y[:, inside]
    return lam[inside]


def _sliced_eigsh(blocks: list, n: int, k: int, vol_w: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of B window by window until inertia counts k below an edge.

    blocks is ``_blocks``' list of (B_b, Q_b).  The edges are certified
    here first, on every block at once; the windows, one Lanczos job per
    block and span, are then independent.  On an operator of at least
    ``_POOL_NODES`` nodes they run through ``parallel.fork_map``, on forked
    workers that take the next window as they finish one; smaller operators
    solve them here, where forking would cost more than it saves.  Every
    window returns exactly its inertia count, so its eigenvector columns
    are known up front: workers write them into one shared buffer, as tall
    as the tallest block, and send back only eigenvalues.  The merge is in
    window order, and each kept column is prolongated by its block's Q_b
    straight into the one (n, k) result, so the result has the same bits
    for any number of workers.
    """
    Bs = [B for B, _ in blocks]
    windows = _window_edges(Bs, k, vol_w)
    v0s = [rng.standard_normal(Bs[b].shape[0]) for *_, b in windows]
    cols = np.cumsum([0] + [m for _, _, m, _ in windows]).tolist()
    height = max(B.shape[0] for B in Bs)
    # an anonymous MAP_SHARED mapping: the workers' writes land here
    out = np.ndarray((height, cols[-1]),
                     buffer=mmap.mmap(-1, 8 * height * cols[-1]))
    job = (Bs, windows, v0s, cols, out)
    if n < _POOL_NODES:
        lams = [_solve_window(job, i) for i in range(len(windows))]
    else:
        lams = fork_map(_solve_window, job, len(windows), "solve_eigs")
    parts = []
    for lam, (_, _, m, b), c in zip(lams, windows, cols):
        B, Q = blocks[b]
        parts.append((lam, out[:B.shape[0], c:c + m], Q))
    return _merge(parts, n, k)


def _dense_eigh(blocks: list, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenpairs of B from one dense eigh per block.

    blocks is ``_blocks``' list of (B_b, Q_b).  Every eigenvalue of every
    block is computed, so the k smallest over the blocks are the k smallest
    of B.
    """
    parts = []
    for B, Q in blocks:
        # LAPACK overwrites the Fortran-ordered copy with the eigenvectors
        lam, y = sla.eigh(B.toarray(order="F"), driver="evd", overwrite_a=True,
                          check_finite=False)
        parts.append((lam, y, Q))
    return _merge(parts, n, k)


def _merge(parts: list, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenpairs over parts (lam, y, Q), in one (n, k) result.

    Each part is eigenpairs of one block, y's columns belonging to lam; its
    kept columns are prolongated by the block's Q (None: the identity)
    straight into their column of the result, so the result depends only on
    the parts and their order.
    """
    lam = np.concatenate([lam_p for lam_p, _, _ in parts])
    order = np.argsort(lam)[:k]
    slot = np.full(lam.size, -1)  # column of the result each mode goes to
    slot[order] = np.arange(k)
    Y = np.empty((n, k))
    start = 0
    for lam_p, y, Q in parts:
        dest = slot[start:start + lam_p.size]
        start += lam_p.size
        y = y[:, dest >= 0]
        Y[:, dest[dest >= 0]] = y if Q is None else Q @ y
    return lam[order], Y


def solve_eigs(op: DiscreteOperator, k: int, seed: int = 0) -> DiscreteSpectrum:
    """k smallest eigenpairs of A x = lambda W x, with none missing below lambda_k.

    B = W^{-1/2} A W^{-1/2} is split into blocks (``_blocks``): two when the
    operator has a ``reflection``, else B itself.  When the tallest block
    has n_b nodes with n_b^2 <= ``_DENSE_RATIO`` (1300) k, each block is
    solved by one dense LAPACK eigh in this process and the k smallest
    eigenvalues over the blocks are kept (``_dense_eigh``); every eigenvalue
    is computed, so none below lambda_k can be missing.  Any other operator
    is solved by certified spectrum slicing, as follows.

    The spectrum of B is cut into windows [lo, hi) of about 40 eigenvalues
    each by the weighted Weyl count.  At every edge the number of
    eigenvalues below it is read off the inertia of an LDL^T-like
    factorization of B - edge I; each window then runs shift-invert Lanczos
    at its midpoint and must return exactly the counted number of modes.
    Windows advance until the count reaches k, so no eigenvalue below
    lambda_k is missing.  An edge that cannot be certified is nudged once by
    a small share of its window; if it still has no certificate, or a window
    never thins out to at most 80 modes, ``NumericalError("solve_eigs")``
    names the shift.

    When the operator has a ``reflection`` P, B splits into two independent
    blocks, B_e on the modes even under P and B_o on the odd ones
    (``_blocks``), each about half the size.  Every edge factors both blocks
    at the same shift, and a nudge moves both; the count below the edge is
    the sum of their inertia counts, since B is congruent to the block
    diagonal of B_e and B_o.  Each window then runs Lanczos on each block
    that has modes in it, as separate jobs, and the eigenvectors are
    prolongated back to the nodes.  Without a reflection there is one
    block, B itself.  The jobs draw their starting vectors from
    ``default_rng(seed)`` in job order: window by window, blocks in order.
    The seed feeds only these Lanczos start vectors; the dense route does
    not use it.

    The edges are certified in this process; the jobs then run on a
    pool of forked workers (``parallel.fork_map``), one per usable CPU
    (``os.sched_getaffinity``), each taking the next job when it finishes
    one.  They run here instead when the operator has fewer than
    ``_POOL_NODES`` (700) nodes, where forking costs more than it saves,
    when there is one usable CPU or one job, when the platform cannot
    fork, when this process is itself a daemonic multiprocessing worker, or
    when it runs other Python threads.  Results merge in job order, so
    eigenvalues and eigenvectors have the same bits for any number of
    workers.

    Residuals ||B y - lam y|| / ||y|| of the prolongated eigenvectors are
    checked against 1e-8 * lam on the full B, and the eigenvectors are unit
    in <phi, phi>_w.
    """
    n = op.n_nodes
    if not (1 <= k <= n - 1):
        raise SpecError(f"solve_eigs needs 1 <= k <= {n - 1}, got k={k}: the "
                        f"h={op.h:g} grid has {n} interior nodes (reduce h "
                        "to raise the bound)")
    B = op.symmetrized().tocsc()
    blocks = _blocks(op, B)
    if max(B_b.shape[0] for B_b, _ in blocks) ** 2 <= _DENSE_RATIO * k:
        lam, Y = _dense_eigh(blocks, n, k)
    else:
        lam, Y = _sliced_eigsh(blocks, n, k, op.volume,
                               np.random.default_rng(seed))
    resid = np.linalg.norm(B @ Y - Y * lam[None, :], axis=0)
    worst = float(np.max(resid / np.maximum(lam, 1e-300)))
    if worst > 1e-8:
        raise NumericalError("solve_eigs",
                             f"residual {worst:.3g} exceeds 1e-8 contract")
    # back-transform x = W^{-1/2} y; <phi, phi>_w = sum y^2 = 1
    return DiscreteSpectrum(op, lam, Y / np.sqrt(op.w)[:, None] / op.h)
