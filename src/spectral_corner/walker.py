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
before any path is drawn.  The random stream is counter-based and keyed by
(seed, batch) over batches of the fixed size ``_BATCH``, so an estimate is
fixed by the domain, t, n, steps and seed.  The batches run on forked
workers, one per usable CPU (``parallel.fork_map``), and each returns only
its two weight sums, which are added in batch order.  A batch draws all
its refinement normals in one call, then refines and scores its paths in
row blocks of ``_BLOCK`` that fit in cache, so no batch-wide offset array
is built.  A path with a knot outside the domain has weight 0, so a block
scores only the paths whose knots all stay inside (63 296 of 150 000 on
the slit square at t = 0.05, seed 1).  The per-path arithmetic does not
depend on the block, the worker or the other paths, so neither do the
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .geometry import Domain
from .parallel import fork_map

_BATCH = 32768
# Paths scored together inside a batch: 1024 paths of 65 knots keep every
# per-block temporary near half a megabyte.
_BLOCK = 1024


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

    x and y are contiguous coordinate planes.  A wall's projection parameter
    is still the matrix product over interleaved points: numpy hands it to
    BLAS, which fuses one multiply-add, so an elementwise dot would round
    differently on slanted walls.  The offsets are taken through a complex
    view because a (N, 2) - (2,) subtraction loops two elements at a time.
    """
    d = np.full(x.shape[0], np.inf)
    if segs:
        pts = np.stack([x, y], axis=1).view(np.complex128)[:, 0]
    for p0, p1 in segs:
        ab = p1 - p0
        s = (pts - complex(p0[0], p0[1])).view(np.float64).reshape(-1, 2) @ ab
        s /= float(ab @ ab)
        np.clip(s, 0.0, 1.0, out=s)
        ex = s * ab[0]
        ex += p0[0]
        np.subtract(x, ex, out=ex)
        s *= ab[1]
        s += p0[1]
        np.subtract(y, s, out=s)
        np.minimum(d, np.hypot(ex, s, out=ex), out=d)
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


def _refinement_noise(rng, m: int, steps: int) -> list[np.ndarray]:
    """The normals that refine m bridges of `steps` segments, split by level.

    They are drawn in one call, in the order a level-by-level refinement of
    all m paths consumes them: level by level, and within a level path by
    path, midpoint by midpoint, x before y.  Level j is an (m, 2 * 2**j)
    array, one row per path.
    """
    noise = rng.standard_normal(m * 2 * (steps - 1))
    levels = []
    start, mids = 0, 1
    while mids < steps:
        levels.append(noise[start:start + 2 * m * mids].reshape(m, 2 * mids))
        start += 2 * m * mids
        mids *= 2
    return levels


def _refine_block(noise: list[np.ndarray], rows: slice, steps: int,
                  t: float) -> np.ndarray:
    """Midpoint-refined offsets (paths, steps+1, 2) of the paths `rows`, zero
    at both ends, from their rows of each level of `noise`.

    Conditional on the two bracketing knots a duration tau apart, the
    midpoint is Gaussian around their mean with per-coordinate variance
    tau/2 (variance rate 2 for the -Delta generator).  Knots are handled
    as complex numbers x + iy so that strided slices loop over knots, not
    over coordinate pairs; the arithmetic is the real one.  A path's
    offsets depend only on its own rows of noise, so any split of the
    paths into blocks gives the same bits.
    """
    z = np.zeros((rows.stop - rows.start, steps + 1, 2))
    knots = z.view(np.complex128)[..., 0]
    stride = steps
    for draw in noise:
        half = stride // 2
        mean = knots[:, 0:steps:stride] + knots[:, stride::stride]
        mid = mean.view(np.float64)
        mid *= 0.5
        tau = t * stride / steps
        mid += draw[rows] * math.sqrt(tau / 2)
        knots[:, half::stride] = mean
        stride = half
    return z


def _block_weights(domain: Domain, xy: np.ndarray, ds: float) -> np.ndarray:
    """Survival weight of each path of a block, given the coordinate planes
    xy (2, paths, knots) of its knots.

    A path with a knot outside the domain has weight 0, so only the paths
    whose knots all stay inside are scored.  Distances run to the domain's
    walls and arcs; crossing any of its slit segments kills a path.
    """
    _, nb, knots = xy.shape
    alive = domain.contains(xy.reshape(2, -1).T).reshape(nb, knots).all(axis=1)
    live = np.flatnonzero(alive)
    x, y = xy[0, live], xy[1, live]
    dist = _dist_to_boundary(x.ravel(), y.ravel(), domain.walls,
                             domain.arcs).reshape(x.shape)
    # survival of the unsampled excursion on every inter-knot segment
    log_keep = np.log1p(-np.exp(-dist[:, :-1] * dist[:, 1:] / ds)
                        .clip(max=1.0 - 1e-16)).sum(axis=1)
    weight = np.zeros(nb)
    weight[live] = np.exp(log_keep)
    for b0, b1 in domain.slit_segments:
        weight[live[_slit_crossings(x, y, b0, b1)]] = 0.0
    return weight


def _score_batch(job: tuple, index: int) -> tuple[float, float]:
    """(sum of weights, sum of squared weights) of batch `index`.

    job is (domain, t, n, steps, seed).  The batch draws from its own
    Philox stream, keyed by (seed, index): its starts first, then its
    refinement normals.  Its paths are refined and scored block by block,
    so every per-block array stays in cache.
    """
    domain, t, n, steps, seed = job
    m = min(_BATCH, n - index * _BATCH)
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, index], dtype=np.uint64)))
    starts = _sample_interior(domain, rng, m)
    noise = _refinement_noise(rng, m, steps)
    weight = np.empty(m)
    for r0 in range(0, m, _BLOCK):
        block = slice(r0, min(r0 + _BLOCK, m))
        offsets = _refine_block(noise, block, steps, t)
        xy = np.empty((2, block.stop - r0, steps + 1))
        np.add(starts[block].T[:, :, None], offsets.transpose(2, 0, 1), out=xy)
        weight[block] = _block_weights(domain, xy, t / steps)
    return float(weight.sum()), float((weight ** 2).sum())


def bridge_trace_estimate(domain: Domain, t: float, n: int, steps: int = 64,
                          seed: int = 0) -> BridgeEstimate:
    """Estimate Tr(e^{-t Delta}) from n bridges of `steps` segments each.

    steps is rounded up to a power of two for midpoint refinement.  Between
    consecutive knots the path survives an excursion toward the nearest
    wall with probability 1 - exp(-d1 d2/ds) (ds the knot spacing in time);
    crossing a slit polyline kills the path outright.

    The n bridges form batches of ``_BATCH``, each with its own Philox
    stream, and the batches run through ``parallel.fork_map``: on forked
    workers, one per usable CPU, or here when forking is not possible (one
    CPU or one batch, no fork start method, a daemonic caller, or other
    Python threads alive).  A batch returns only its two weight sums, and
    they are added in batch order, so the estimate has the same bits for
    any number of workers.  A worker that dies raises
    ``NumericalError("bridge_trace_estimate")``.
    """
    if t <= 0:
        raise SpecError("bridge_trace_estimate requires t > 0")
    if n < 1 or steps < 2:
        raise SpecError("bridge_trace_estimate requires n >= 1, steps >= 2")
    steps = _next_pow2(steps)
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
    for w, w_sq in fork_map(_score_batch, job, -(-n // _BATCH),
                            "bridge_trace_estimate"):
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
