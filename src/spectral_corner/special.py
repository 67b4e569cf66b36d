"""Special functions and quadrature shared by all numeric modules.

Bessel functions of fractional order and their zeros, the one-dimensional
theta-type sum used for exact rectangle heat traces, and quadrature
rules.  All functions here are pure.

Quadrature refines in one loop, ``_converged``: each rule yields a stream
of estimates, and the first one within tol * max(1, |v|) of the one before
it is the value.  A non-finite estimate raises at once, and a rule that
runs out of refinements raises with its last estimate.  ``tanh_sinh``
halves its step and ``gauss_panels`` doubles its 20-point Gauss panels;
``_panels`` builds those panels for ``gauss_panels`` and for the tensor
rule of ``geometry.interior_integral`` alike.

Bessel zeros for many orders are found in vectorised solves over chunks
of consecutive orders.  Each zero j_{nu,m} is seeded from its asymptotic
expansion in (nu, m), McMahon's for large m and Olver's uniform one
otherwise, and one Halley loop (_seeded_halley), two jv calls a step,
refines all seeds together, each zero stopping on its own.  The seeds are
accurate enough that nearly every zero stops after one step.  Two
certificate rounds then prove that an order's zeros are its first ones
and all of them up to x_max: interlacing with the order before it in the
chunk (Palmai & Apagyi, J. Math. Anal. Appl. 375, 2011), or a sign-change
scan of the order that brackets each zero.  The scan starts at a proven
lower bound for the first zero, not at nu, so the turning-point region
where J_nu is positive and tiny costs no scan points.  An order that
fails both rounds is recovered from its scan brackets by the same Halley
loop, seeded at each bracket's regula-falsi point.  So the certificates
cost one jv call at x_max per order and one scan per chunk.  A call whose
orders would scan more than _CHUNK_POINTS points runs its chunks on the
forked worker pool of ``parallel``.  Every zero depends only on its own
order, so the chunking and the number of workers never change its bits.

A zero stops right after a Halley step delta with |delta|^3 <= 1e-15 x;
a recovered zero must also lie in its scan bracket.  Halley's error after
a step is about C delta^3 with C = (f''/f')^2 / 4 - f'''/(6 f').  At a
zero of J_nu,
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

# Switch point for the theta sum, and the terms each of its branches sums.
THETA_T_SWITCH = 0.15
_THETA_TERMS = 6


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
# All scanned orders share one flat scan grid, evaluated in a single jv call.
# The same spacing bounds how many zeros lie between a scan start and x_max,
# and so how many seeds an order needs.
_SCAN_STEP = 1.5
_MIN_SPACING = 3.1

# j_{nu,1} > nu + 1.85575... nu^(1/3), where 1.85575... = -a_1 2^(-1/3) and
# a_1 = -2.33811 is the first zero of Ai (Qu & Wong, Trans. AMS 351, 1999).
# Each order's scan starts at this bound, past the turning-point region
# where J_nu is positive and tiny, rather than at nu.
_FIRST_ZERO_SLACK = 1.8557

# Halley steps allowed per zero in _seeded_halley: a zero still moving after
# this many fails its certificate, and a recovered one raises.
_MAX_STEPS = 40

# An order at most this far above the previous order of its chunk has its
# zeros interlaced with that order's (Palmai & Apagyi, J. Math. Anal. Appl.
# 375, 2011).
_INTERLACE_GAP = 2.0

# The first zeros of Ai (DLMF Table 9.9.1).  Later ones come from DLMF
# 9.9.6 and 9.9.18, whose relative error is 1.4e-11 at k = 5 and falls
# with k.
_AIRY_ZEROS = np.array([-2.338107410459767, -4.087949444130971,
                        -5.520559828095551, -6.786708090071759])

# Newton steps for z(zeta) in Olver's seed; five reach the root to 5e-13
# from the start below it for every nu >= 1, m <= 2 nu.
_OLVER_NEWTON = 6

# Scan points per chunk of orders on the worker pool; a call whose orders
# would scan no more points than this runs in the caller.  Only the first
# order of a chunk is scanned, but the seeds, Halley steps and checks grow
# with the zeros, as the scan points do.  Timed on a 2-vCPU Xeon against
# one-chunk calls on the alpha = 1.5 sector orders, alternating, 15 runs,
# OpenBLAS pinned to one thread: a call cut in two took 3.9x at 3300
# points (8 ms), 2.0x at 5600 (28 ms), 1.2x at 6600 (42 ms), 0.95x at 7800
# (55 ms), 0.88x at 9100 (61 ms) and 0.70x at 15200 (102 ms); at the
# default thread count 1.04x, 1.13x, 0.93x and 0.75x at 6600 to 15200.
# The crossover lies near 7500 points, so calls just above 6000 lose up to
# 1.2x.  On closed-form benchmark passes (four calls of 15000 points) six
# alternating runs read a median wall_s of 0.383 s pooled against 0.395 s
# in the caller; wall_ref read 134 against 179, since the workers slow the
# host-speed kernel sampled during a pass (ref_s 2.8-3.1 ms against
# 2.1-2.5 ms).
_CHUNK_POINTS = 6000


def bessel_zeros_upto(nu, x_max: float) -> np.ndarray:
    """All positive zeros of J_nu in (0, x_max], to ~1e-15 relative.

    nu is one order or a 1-D array of orders.  The zeros come back as one
    flat array, grouped by order in the order given and ascending within
    each order.

    Each zero j_{nu,m} starts from a seed that depends on (nu, m) alone:
    McMahon's expansion (DLMF 10.21.19) when nu < 1 or m > 2 nu, otherwise
    Olver's uniform expansion with its first correction (DLMF 10.21.43).
    Halley steps refine it and stop after a step delta with
    |delta|^3 <= 1e-15 x, which by Halley's cubic error bound (see the
    module docstring) leaves it within 1e-15 x / 6 of the zero it
    converged to.  The seeds below x_max, moved by one where their parity
    disagrees with the sign of J_nu(x_max), give the count of zeros.

    A certificate then proves that each order's seeded zeros are
    j_{nu,1}, ..., j_{nu,n} and that j_{nu,n+1} > x_max:

    * interlacing, when the previous order mu of the chunk lies within
      (0, 2] below nu and is certified itself: n is mu's count or one
      less, and each zero lies strictly between mu's m-th and (m+1)-th
      zeros.  Gaps up to 1 follow from the interlacing of J_nu and
      J_{nu+1} with j_{nu,m} increasing in nu (DLMF 10.21(i), (iv)); gaps
      up to 2 from Palmai & Apagyi, J. Math. Anal. Appl. 375 (2011).
    * the order's sign-change scan with step 1.5, which starts at
      nu + 1.8557 nu^(1/3) < j_{nu,1}: n is its bracket count or one
      less, and each zero lies in its own bracket.

    Either way J_nu(x_max) must be nonzero with the sign of n zeros below
    it, every zero must have converged within _MAX_STEPS steps, and none
    may lie past x_max.  Round one tries interlacing on each order within
    the gap of the order before it and the scan on every other order.
    Round two scans each interlaced order from the chunk's first failed
    order on, since its reference is no longer proven.  An order that
    fails both is recovered from its scan brackets: each is seeded at its
    regula-falsi point and refined by the same Halley loop, and unless
    every zero converged within _MAX_STEPS steps inside its own bracket,
    NumericalError names the order and bracket.  A certificate only
    accepts or rejects, and either one accepts an order's converged zeros
    unless one of them lies within rounding of an end of its scan
    bracket, so each order's zeros are a function of that order and x_max
    alone.  A non-finite x_max raises SpecError.

    The orders are cut into ceil(P / _CHUNK_POINTS) chunks of consecutive
    whole orders, each starting about an equal share of the P scan points
    the orders would take.  The chunks run through ``parallel.fork_map``,
    whose rules decide whether they fork, and are joined in order.  Since no zero depends on which certificate accepted
    it, it has the same bits for any chunking and any number of workers.
    A worker that dies raises ``NumericalError("bessel_zeros_upto")``.
    """
    # np.cbrt rounds some elements of a strided view differently than of a
    # contiguous array, which moved scan starts and so some zeros by an ulp;
    # every array the seeds are computed on is contiguous for the same reason
    nus = np.ascontiguousarray(nu, dtype=float)
    if nus.ndim != 1:
        raise SpecError("bessel_zeros_upto requires a scalar or 1-D array of orders")
    if not np.all(nus >= 0):
        raise SpecError("bessel_zeros_upto requires nu >= 0")
    if not math.isfinite(x_max):
        raise SpecError(f"bessel_zeros_upto requires a finite x_max, got {x_max}")
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
    # the chunks make no BLAS call, so the workers leave OpenBLAS as it is
    return np.concatenate(fork_map(_chunk_zeros, (nus, start, n, x_max, edges),
                                   len(edges) - 1, "bessel_zeros_upto",
                                   pin_blas=False))


def _chunk_zeros(job: tuple, i: int) -> np.ndarray:
    """Zeros of chunk i of job = (nus, start, n, x_max, edges): the orders
    edges[i]:edges[i + 1], with their scan starts and scan point counts."""
    nus, start, n, x_max, edges = job
    cut = slice(edges[i], edges[i + 1])
    nus, start, n = nus[cut], start[cut], n[cut]
    # an order whose scan would start at or past x_max has no zero up to it
    live = n > 0
    f_max = np.ones(nus.size)
    f_max[live] = _sci_special.jv(nus[live], x_max)
    count, seeds = _counted_seeds(nus, start, live, np.signbit(f_max), x_max)
    owner = np.repeat(np.arange(nus.size), count)
    first = np.cumsum(count) - count
    index = np.arange(owner.size) - first[owner]
    zeros, converged = _seeded_halley(nus[owner], seeds)
    sound = f_max != 0
    sound[owner[~converged | (zeros > x_max)]] = False

    gap = np.diff(nus, prepend=np.nan)
    chained = live & (gap > 0) & (gap <= _INTERLACE_GAP)
    certified = ~live | (chained & sound & _interlaced(zeros, owner, index, count))

    def scan_certificate(sel):
        sel = np.flatnonzero(sel)
        if sel.size:
            certified[sel] = sound[sel] & _bracketed(nus, start, n, sel, zeros,
                                                     owner, index, count)

    # round one: every live order with no order to interlace with takes its
    # scan.  Round two: past the first order that failed, no certified order
    # is left to interlace with, so every chained order from it on takes its
    # scan too
    scan_certificate(live & ~chained)
    failed = np.flatnonzero(~certified)
    if failed.size:
        scan_certificate(chained & (np.arange(nus.size) >= failed[0]))

    keep = certified[owner]
    zeros, owner = zeros[keep], owner[keep]
    redo = np.flatnonzero(~certified)
    if redo.size:
        order, lo, hi, f_lo, f_hi = _scan(nus[redo], start[redo], n[redo])
        found = _halley_zeros(nus[redo][order], lo, hi, f_lo, f_hi)
        below = found <= x_max
        zeros = np.concatenate([zeros, found[below]])
        owner = np.concatenate([owner, redo[order[below]]])
        zeros = zeros[np.argsort(owner, kind="stable")]
    return zeros


def _scan_start(nu: np.ndarray) -> np.ndarray:
    """Where each order's scan starts: a strict lower bound for j_{nu,1}."""
    return np.maximum(nu + _FIRST_ZERO_SLACK * np.cbrt(nu), 1e-8)


def _scan(nus, start, n) -> tuple:
    """Sign-change brackets of the orders' scans, one jv call for all.

    Returns (order, lo, hi, f_lo, f_hi): the index into nus each bracket
    belongs to, its ends and J_nu at them, ascending within each order.
    """
    order = np.repeat(np.arange(nus.size), n)
    first = np.repeat(np.cumsum(n) - n, n)
    grid = start[order] + (np.arange(order.size) - first) * _SCAN_STEP
    vals = _sci_special.jv(nus[order], grid)
    sign = np.signbit(vals)
    idx = np.nonzero((sign[1:] != sign[:-1]) & (order[1:] == order[:-1]))[0]
    return order[idx], grid[idx], grid[idx + 1], vals[idx], vals[idx + 1]


def _counted_seeds(nus, start, live, odd, x_max) -> tuple:
    """Each order's count of zeros up to x_max and the seeds of those zeros.

    The count is that of the seeds up to x_max.  Where its parity disagrees
    with odd (J_nu(x_max) < 0, an odd number of zeros below x_max), it
    moves by one towards the seed nearer x_max.  Seeds are made for at
    most _MIN_SPACING-spaced zeros from the scan start, plus one.
    """
    tops = np.where(live, np.floor((x_max - start) / _MIN_SPACING) + 2,
                    0).astype(np.int64)
    order = np.repeat(np.arange(nus.size), tops)
    first = np.cumsum(tops) - tops
    m = np.arange(order.size) - first[order] + 1
    seeds = _zero_seeds(nus[order], m)
    count = np.bincount(order[seeds <= x_max], minlength=nus.size)
    last = np.append(seeds, -np.inf)[np.where(count > 0, first + count - 1, seeds.size)]
    after = np.append(seeds, np.inf)[np.where(count < tops, first + count, seeds.size)]
    step = np.where(after - x_max < x_max - last, 1, -1)
    count = count + np.where((count % 2 == 1) != odd, step, 0)
    return count, seeds[m <= count[order]]


def _zero_seeds(nu: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Asymptotic estimates of j_{nu,m}, each from its own (nu, m) alone."""
    out = np.empty(nu.size)
    mcmahon = (nu < 1) | (m > 2 * nu)
    out[mcmahon] = _mcmahon(nu[mcmahon], m[mcmahon])
    olver = ~mcmahon
    out[olver] = _olver(nu[olver], m[olver])
    return out


def _mcmahon(nu: np.ndarray, m: np.ndarray) -> np.ndarray:
    """McMahon's expansion of j_{nu,m} for large m (DLMF 10.21.19)."""
    a = (m + 0.5 * nu - 0.25) * np.pi
    mu = 4.0 * nu * nu
    b = 1.0 / (8.0 * a)
    c = b * b
    t3 = 4.0 * (7.0 * mu - 31.0) / 3.0
    t5 = 32.0 * ((83.0 * mu - 982.0) * mu + 3779.0) / 15.0
    t7 = 64.0 * (((6949.0 * mu - 153855.0) * mu + 1585743.0) * mu - 6277237.0) / 105.0
    return a - (mu - 1.0) * b * (1.0 + c * (t3 + c * (t5 + c * t7)))


def _olver(nu: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Olver's uniform expansion of j_{nu,m}, nu >= 1 (DLMF 10.21.43).

    j = nu z(zeta) + f_1(zeta) / nu with zeta = nu^(-2/3) a_m.  With
    t = sqrt(z^2 - 1) and w = (2/3) (-zeta)^(3/2), DLMF 10.20.3 reads
    t - arctan t = w, and f_1 = z h^2 b_0 / 2 (10.20.11, 10.21.43) is
    (z / t) (5 / (24 t^3) + 1 / (8 t) - 5 / (72 w)).
    """
    zeta = _airy_zeros(m) / np.cbrt(nu * nu)
    w = (2.0 / 3.0) * (-zeta) ** 1.5
    # t - arctan t is convex in t > 0 and below t^3 / 3, so Newton's first
    # step from cbrt(3 w) lands above the root and the rest fall onto it
    t = np.cbrt(3.0 * w)
    for _ in range(_OLVER_NEWTON):
        t = t - (t - np.arctan(t) - w) * (1.0 + t * t) / (t * t)
    z = np.sqrt(1.0 + t * t)
    f1 = z / t * (5.0 / (24.0 * t ** 3) + 1.0 / (8.0 * t) - 5.0 / (72.0 * w))
    return nu * z + f1 / nu


def _airy_zeros(k: np.ndarray) -> np.ndarray:
    """a_k, the k-th zero of Ai: the table, then DLMF 9.9.6 with 9.9.18."""
    t = 3.0 * np.pi / 8.0 * (4.0 * k - 1.0)
    u = 1.0 / (t * t)
    series = 77125.0 / 82944.0 - 108056875.0 / 6967296.0 * u
    series = 1.0 + u * (5.0 / 48.0 + u * (-5.0 / 36.0 + u * series))
    small = k <= _AIRY_ZEROS.size
    return np.where(small, _AIRY_ZEROS[np.where(small, k - 1, 0)],
                    -np.cbrt(t * t) * series)


def _seeded_halley(nu, x) -> tuple:
    """Halley steps for J_nu from each seed x, with no bracket.

    Returns the zeros and whether each met the cubic stop within
    _MAX_STEPS steps.  An iterate that leaves (0, inf) stops unconverged.
    Each step costs two jv calls: J' = (nu/x) J_nu - J_{nu+1}, and J''
    follows from Bessel's equation.
    """
    x = x.copy()
    converged = np.zeros(x.size, dtype=bool)
    active = np.arange(x.size)
    for _ in range(_MAX_STEPS):
        if active.size == 0:
            break
        xa, na = x[active], nu[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            f = _sci_special.jv(na, xa)
            fp = na / xa * f - _sci_special.jv(na + 1.0, xa)
            fpp = -fp / xa - (1.0 - (na / xa) ** 2) * f
            step = 2.0 * f * fp / (2.0 * fp * fp - f * fpp)
        x_new = xa - step
        x[active] = x_new
        done = np.abs(step) ** 3 <= 1e-15 * xa
        converged[active[done]] = True
        active = active[~done & (x_new > 0) & (x_new < np.inf)]
    return x, converged


def _interlaced(zeros, owner, index, count) -> np.ndarray:
    """Per order: do its zeros interlace with those of the order before it?

    True when its count is the previous order's count M or M - 1 and its
    zero m lies strictly between the previous order's m-th and (m+1)-th
    zeros (above the M-th for m = M).  The first order has none before it.
    """
    ok = np.r_[False, (count[1:] == count[:-1]) | (count[1:] == count[:-1] - 1)]
    prev = np.maximum(owner - 1, 0)
    below = np.cumsum(count)[prev] - count[prev] + index
    lo = np.append(zeros, np.nan)[np.where(index < count[prev], below, zeros.size)]
    hi = np.append(zeros, np.inf)[np.where(index + 1 < count[prev], below + 1,
                                           zeros.size)]
    ok[owner[~((zeros > lo) & (zeros < hi))]] = False
    return ok


def _bracketed(nus, start, n, sel, zeros, owner, index, count) -> np.ndarray:
    """Per order of sel: do its zeros lie in the brackets of its scan?

    True when its count is its bracket count K or K - 1 and its zero m
    lies in its m-th bracket.
    """
    order, lo, hi, _, _ = _scan(nus[sel], start[sel], n[sel])
    brackets = np.bincount(order, minlength=sel.size)
    ok = (count[sel] == brackets) | (count[sel] == brackets - 1)
    pos = np.full(nus.size, -1)
    pos[sel] = np.arange(sel.size)
    mine = pos[owner] >= 0
    j, m, x = pos[owner[mine]], index[mine], zeros[mine]
    b = np.where(m < brackets[j], np.cumsum(brackets)[j] - brackets[j] + m, lo.size)
    lo, hi = np.append(lo, np.nan), np.append(hi, np.nan)
    ok[j[~((x >= lo[b]) & (x <= hi[b]))]] = False
    return ok


def _halley_zeros(nu, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Zeros of J_nu, one in each sign-change bracket [lo, hi].

    Each zero is seeded at its bracket's regula-falsi point and refined by
    _seeded_halley.  Unless every zero converged inside its own bracket,
    NumericalError names the order and bracket of the first that did not.
    """
    x, converged = _seeded_halley(nu, lo - f_lo * (hi - lo) / (f_hi - f_lo))
    bad = np.flatnonzero(~(converged & (x >= lo) & (x <= hi)))
    if bad.size == 0:
        return x
    i = bad[0]
    raise NumericalError(
        "bessel_zeros_upto",
        f"{bad.size} zeros not converged inside their brackets after "
        f"{_MAX_STEPS} Halley steps; first for nu={float(nu[i])!r} in bracket "
        f"[{float(lo[i])!r}, {float(hi[i])!r}]")


# ---------------------------------------------------------------------------
# Theta-type sum for rectangle spectra
# ---------------------------------------------------------------------------

def rect_theta_factor(t):
    """S(t) = sum_{m>=1} exp(-pi^2 m^2 t), absolute error < 1e-14.

    t is a scalar or an array, every entry > 0; a scalar gives a float, an
    array an array of its shape.  For t < THETA_T_SWITCH the modular
    transform
    S(t) = -1/2 + 1/(2 sqrt(pi t)) + (1/sqrt(pi t)) sum_{m>=1} exp(-m^2/t)
    is used.  Each branch sums its first _THETA_TERMS terms, in order: at
    the switch the last of them is below 1e-23, and away from it they fall
    faster still.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):  # NaN included
        raise SpecError("rect_theta_factor requires t > 0, got "
                        f"{float(np.min(t))!r}")
    terms = range(1, _THETA_TERMS + 1)
    # m^2/t overflows to inf at subnormal t, where its term exp(-inf) = 0
    with np.errstate(over="ignore"):
        direct = sum(np.exp(-math.pi**2 * m * m * t) for m in terms)
        tail = sum(np.exp(-m * m / t) for m in terms)
    out = np.where(t >= THETA_T_SWITCH, direct,
                   -0.5 + (0.5 + tail) / np.sqrt(math.pi * t))
    return float(out) if t.ndim == 0 else out


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

_TANH_SINH_LEVELS = 12  # step halvings before tanh_sinh gives up
_PANEL_ORDER = 20  # Gauss-Legendre nodes per composite panel


def _converged(estimates, stage: str, tol: float) -> Tuple[float, float]:
    """The first of a stream of refined estimates that the one before it confirms.

    Returns (value, change) for the first estimate value within
    tol * max(1, |value|) of the estimate before it.  A non-finite estimate
    raises NumericalError(stage) at once; a stream that runs out raises it
    with the last estimate as best_estimate.
    """
    prev, change, count = None, math.nan, 0
    for count, value in enumerate(estimates, 1):
        if not math.isfinite(value):
            raise NumericalError(stage, f"estimate {value!r} at refinement "
                                 f"{count} is not finite")
        if prev is not None:
            change = abs(value - prev)
            if change < tol * max(1.0, abs(value)):
                return value, change
        prev = value
    raise NumericalError(stage, f"no convergence below {tol:.3g} after {count} "
                         f"refinements, last change {change:.3g}",
                         best_estimate=prev)


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
    The step halves up to _TANH_SINH_LEVELS times, and from level 3 on each
    level's estimate is checked against the last one's (``_converged``).
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

    def estimates():
        h = 1.0
        total = eval_level(h, only_odd=False)
        for level in range(1, _TANH_SINH_LEVELS + 1):
            h *= 0.5
            total += eval_level(h, only_odd=True)
            if level >= 2:  # level 2 is only the reference for level 3
                yield total * h * half

    return _converged(estimates(), "tanh_sinh", tol)


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if order not in _GAUSS_CACHE:
        _GAUSS_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GAUSS_CACHE[order]


def _panels(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _PANEL_ORDER-point Gauss rule on each of n
    equal panels of [a, b], panel by panel."""
    x0, w0 = gauss_rule(_PANEL_ORDER)
    edges = np.linspace(a, b, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    return ((mids[:, None] + halfs[:, None] * x0[None, :]).ravel(),
            (halfs[:, None] * w0[None, :]).ravel())


def gauss_panels(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_panels: int = 4096,
) -> Tuple[float, float]:
    """Composite Gauss-Legendre with panel doubling until the change < tol.

    f must accept numpy arrays.  Returns (value, last change).  The panels
    double from one up to max_panels and stop by ``_converged``.
    Deterministic reduction order.
    """
    def estimate(n: int) -> float:
        xs, ws = _panels(a, b, n)
        return float(np.sum(f(xs) * ws))

    panels = (1 << i for i in range(max_panels.bit_length()))  # powers of 2 <= max_panels
    return _converged(map(estimate, panels), "gauss_panels", tol)
