"""Brownian-bridge Monte Carlo estimator of Dirichlet heat traces.

The diagonal heat kernel of a planar domain D factors as

  H_D(t; p, p) = (1/4pi t) * P[standard bridge of lifetime t from p to p
                               stays inside D],

for the positive Laplacian (generator -Delta, coordinate variance 2t over
the lifetime).  Integrating p uniformly over D gives

  Tr(e^{-t Delta}) = (Area/4pi t) * E[survival],

which this module estimates by exact conditional-Gaussian midpoint
refinement of the bridge, a per-segment boundary-crossing correction
exp(-d1 d2 / ds) for excursions between knots, and explicit
segment-intersection kills against every slit segment (either side of a
slit is absorbing).  Starts are drawn from the domain's sampling box and
distances run to its walls and arcs; ``geometry`` records all of these
when it builds the domain, so a cone sector, which has no box, is refused
before any path is drawn.  The random stream is counter-based: the n
paths form blocks of ``_BLOCK``, and each block draws from its own Philox
stream, keyed by (seed, block), so an estimate is fixed by the domain, t,
n, steps and seed.  A block refines its bridges one level at a time.  A
path with a knot outside the domain has weight 0, so each level draws
normals only for the paths still alive, tests containment on its new
midpoints only, and drops the paths that left before the next level; on
the slit square at t = 0.05, seed 1, 63 530 of 150 000 paths keep every
knot inside, and only those are scored.  Batches of ``_BATCH`` paths run
on forked workers, one per usable CPU (``parallel.fork_map``), and return
the two weight sums of each of their blocks, which are added in block
order.  A block's arithmetic does not depend on the batch, the worker or
the other blocks, so neither do the results.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import SpecError, check_seed
from .geometry import Domain
from .parallel import fork_map

# Paths per Philox stream, refined and scored together: 1024 paths of 65
# knots keep every per-block temporary near half a megabyte.
_BLOCK = 1024
# Paths per fork_map item, a whole number of blocks.  It schedules the work
# and does not change the bits.
_BATCH = 32 * _BLOCK


@dataclass(frozen=True)
class BridgeEstimate:
    """Monte Carlo heat-trace estimate with its sampling error."""

    t: float
    n: int
    steps: int
    estimate: float
    stderr: float
    survival: float
    seed: int

    def __post_init__(self):
        if self.estimate < 0:
            raise SpecError("trace estimate must be nonnegative")


def _next_pow2(k: int) -> int:
    return 1 << (k - 1).bit_length()


def _dist_to_boundary(x: np.ndarray, y: np.ndarray, segs, arcs) -> np.ndarray:
    """Unsigned distance from the points (x, y) to the nearest boundary piece.

    x and y are contiguous coordinate planes.  A wall's squared distance is
    taken elementwise, as the offset from the wall's start less its clipped
    projection onto the wall, and the minimum over the walls gets one square
    root per point.
    """
    d2 = np.full(x.shape[0], np.inf)
    ex, ey, s, tmp = (np.empty_like(x) for _ in range(4))
    for p0, p1 in segs:
        x0, y0 = float(p0[0]), float(p0[1])
        abx, aby = float(p1[0]) - x0, float(p1[1]) - y0
        np.subtract(x, x0, out=ex)
        np.subtract(y, y0, out=ey)
        np.multiply(ex, abx, out=s)
        s += np.multiply(ey, aby, out=tmp)
        s /= abx * abx + aby * aby
        np.clip(s, 0.0, 1.0, out=s)
        ex -= np.multiply(s, abx, out=tmp)
        s *= aby
        ey -= s
        ex *= ex
        ey *= ey
        ex += ey
        np.minimum(d2, ex, out=d2)
    d = np.sqrt(d2, out=d2)
    for center, radius in arcs:
        r = np.hypot(x - center[0], y - center[1])
        np.minimum(d, np.abs(radius - r, out=r), out=d)
    return d


def _slit_crossings(x: np.ndarray, y: np.ndarray, b0, b1) -> np.ndarray:
    """Rows of the knot planes x, y (paths, knots) that properly cross [b0, b1].

    A path segment can cross only if its two knots fall on different sides
    of the slit line (orientation > 0 at exactly one end), so the
    orientations of the slit ends against the path segment are taken on
    those segments alone.
    """
    bx, by = b1[0] - b0[0], b1[1] - b0[1]
    side = (bx * (y - b0[1]) - by * (x - b0[0])) > 0
    rows, cols = np.nonzero(side[:, :-1] != side[:, 1:])
    ax, ay = x[rows, cols], y[rows, cols]
    dx, dy = x[rows, cols + 1] - ax, y[rows, cols + 1] - ay
    d3 = dx * (b0[1] - ay) - dy * (b0[0] - ax)
    d4 = dx * (b1[1] - ay) - dy * (b1[0] - ax)
    return rows[(d3 > 0) != (d4 > 0)]


def _sample_interior(domain: Domain, rng, m: int) -> np.ndarray:
    """m uniform interior points drawn from the domain's sampling box: all
    kept on a rectangle, which is its box, else by rejection."""
    lo, span = domain.box
    if domain.kind == "rectangle":
        return lo + rng.random((m, 2)) * span
    out = np.empty((m, 2))
    got = 0
    while got < m:
        cand = lo + rng.random((2 * (m - got) + 16, 2)) * span
        keep = cand[domain.contains(cand)]
        take = min(m - got, keep.shape[0])
        out[got:got + take] = keep[:take]
        got += take
    return out


def _live_knots(domain: Domain, starts: np.ndarray, rng, steps: int,
                t: float) -> np.ndarray:
    """Knots (2, paths, steps+1), as x and y planes, of the bridges of
    lifetime t from `starts` (m, 2) back to them whose knots all stay
    inside the domain.

    Each bridge is refined by midpoints one level at a time: conditional on
    two bracketing knots a duration tau apart, the midpoint is Gaussian
    around their mean with per-coordinate variance tau/2 (variance rate 2
    for the -Delta generator).  A path is dropped at the first level that
    puts a knot outside, so each level draws normals from rng only for the
    paths still alive, all x offsets before all y offsets, path by path and
    midpoint by midpoint, and tests containment on its new midpoints only.
    A path with a knot outside has weight 0, so no dropped path is scored.
    """
    live = domain.contains(starts)
    xy = np.repeat(np.compress(live, starts, axis=0).T[:, :, None], 2, axis=2)
    stride = steps
    while stride > 1:
        _, paths, knots = xy.shape
        mid = rng.standard_normal((2, paths, knots - 1))
        mid *= math.sqrt(t * stride / steps / 2)
        mean = xy[:, :, :-1] + xy[:, :, 1:]
        mean *= 0.5
        mid += mean
        keep = domain.contains(mid.transpose(1, 2, 0).reshape(-1, 2)) \
            .reshape(paths, knots - 1).all(axis=1)
        if not keep.all():
            xy, mid = np.compress(keep, xy, axis=1), np.compress(keep, mid, axis=1)
        refined = np.empty((2, xy.shape[1], 2 * knots - 1))
        refined[:, :, 0::2] = xy
        refined[:, :, 1::2] = mid
        xy = refined
        stride //= 2
    return xy


def _weights(domain: Domain, x: np.ndarray, y: np.ndarray,
             ds: float) -> np.ndarray:
    """Survival weight of each path with knot planes x, y (paths, knots)
    inside the domain, the knots ds apart in time.

    Distances run to the domain's walls and arcs; crossing any of its slit
    segments kills a path.
    """
    dist = _dist_to_boundary(x.ravel(), y.ravel(), domain.walls,
                             domain.arcs).reshape(x.shape)
    # survival of the unsampled excursion on every inter-knot segment
    log_keep = np.log1p(-np.exp(-dist[:, :-1] * dist[:, 1:] / ds)
                        .clip(max=1.0 - 1e-16)).sum(axis=1)
    weight = np.exp(log_keep)
    for b0, b1 in domain.slit_segments:
        weight[_slit_crossings(x, y, b0, b1)] = 0.0
    return weight


def _score_batch(job: tuple, index: int) -> list[tuple[float, float]]:
    """(sum of weights, sum of squared weights) of each block of batch `index`.

    job is (domain, t, n, steps, seed).  Block b holds paths b * _BLOCK
    onward and draws from its own Philox stream, keyed by (seed, b): its
    starts first, then its refinement normals.
    """
    domain, t, n, steps, seed = job
    first = index * (_BATCH // _BLOCK)
    sums = []
    for b in range(first, min(first + _BATCH // _BLOCK, -(-n // _BLOCK))):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, b], dtype=np.uint64)))
        starts = _sample_interior(domain, rng, min(_BLOCK, n - b * _BLOCK))
        x, y = _live_knots(domain, starts, rng, steps, t)
        weight = _weights(domain, x, y, t / steps)
        sums.append((float(weight.sum()), float((weight ** 2).sum())))
    return sums


def bridge_trace_estimate(domain: Domain, t: float, n: int, steps: int = 64,
                          seed: int = 0) -> BridgeEstimate:
    """Estimate Tr(e^{-t Delta}) from n bridges of `steps` segments each.

    n and steps are integers; steps is rounded up to a power of two for
    midpoint refinement.  Between consecutive knots the path survives an
    excursion toward the nearest wall with probability 1 - exp(-d1 d2/ds)
    (ds the knot spacing in time); a knot outside the domain or a crossing
    of a slit polyline kills the path outright.

    The n bridges form blocks of ``_BLOCK``, each refined level by level
    from its own Philox stream, keyed by (seed, block).  Batches of
    ``_BATCH`` bridges run through ``parallel.fork_map``, whose rules decide
    whether they fork.  A batch returns the two weight sums of each of its
    blocks, and they are added in block order, so the estimate has the same
    bits for any number of workers and any batch size.  A worker that dies
    raises ``NumericalError("bridge_trace_estimate")``.  seed must be a
    non-negative integer (``check_seed``).
    """
    check_seed("bridge_trace_estimate", seed)
    if not 0 < t < math.inf:
        raise SpecError(f"bridge_trace_estimate requires a finite t > 0, got {t}")
    if not (all(isinstance(c, numbers.Integral) and not isinstance(c, bool)
                for c in (n, steps)) and n >= 1 and steps >= 2):
        raise SpecError("bridge_trace_estimate requires integers n >= 1 and "
                        f"steps >= 2, got n={n!r}, steps={steps!r}")
    steps = _next_pow2(int(steps))
    ds = t / steps
    if domain.box is None:
        raise SpecError(f"{domain.kind!r} has no sampling box for Monte Carlo")
    clearance = domain.slit_clearance
    if 2.0 * math.sqrt(ds) > clearance:
        raise SpecError(
            f"steps too coarse: rms step {2 * math.sqrt(ds):.3g} exceeds slit "
            f"clearance {clearance:.3g}; increase steps")

    job = (domain, t, n, steps, seed)
    total = 0.0
    total_sq = 0.0
    # the walker makes no BLAS call, so its workers need no pinning
    for sums in fork_map(_score_batch, job, -(-n // _BATCH),
                         "bridge_trace_estimate", pin_blas=False):
        for w, w_sq in sums:
            total += w
            total_sq += w_sq

    mean = total / n
    var = max(total_sq / n - mean ** 2, 0.0)
    scale = domain.area / (4 * math.pi * t)
    return BridgeEstimate(
        t=t, n=n, steps=steps,
        estimate=scale * mean,
        stderr=scale * math.sqrt(var / n),
        survival=mean, seed=seed,
    )
