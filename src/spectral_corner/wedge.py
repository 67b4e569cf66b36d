"""Exact heat-trace machinery for infinite straight wedges.

The trace of the Dirichlet heat kernel of the wedge W of opening angle
alpha*pi restricted to the ball B_eps at the vertex is

  int_{W cap B_eps} H(t;x,x) dx
    = alpha eps^2/(8t)
      - (eps^2/(2 pi t)) int_0^1 e^{-(eps u)^2/t} sqrt(1-u^2) du
      + (1 - alpha^2)/(24 alpha) + A(t),

where A(t) is exponentially small in eps^2/t.  For alpha > 1/2 a single
Kontorovich-Lebedev-type integral represents A(t); for alpha <= 1/2 the
representation picks up image-reflection terms, one per crossing of the
contour past a pole, until the remaining integral is again admissible.
A(t) obeys the printed bounds

  |A| <= (3/(64 alpha)) e^{-(eps sin(alpha pi))^2/t}   for alpha in (0, 1/2],
  |A| <= (alpha/8) e^{-eps^2/t}                        for alpha in (1/2, 2],
  |A| <= (alpha/2) e^{-eps^2/t}                        for alpha > 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .geometry import corner_term
from .special import tanh_sinh


@dataclass(frozen=True)
class WedgeBallQuery:
    alpha: float  # opening angle / pi; alpha > 2 lives on the cone
    eps: float  # ball radius
    t: float  # time

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.alpha, self.eps, self.t)):
            raise SpecError("WedgeBallQuery needs finite alpha, eps, t > 0, got "
                            f"{self.alpha}, {self.eps}, {self.t}")


def a_remainder_bound(q: WedgeBallQuery) -> float:
    """The printed exponential bound on |A(t)| for the query's angle range."""
    a, e2t = q.alpha, q.eps**2 / q.t
    if a <= 0.5:
        return 3.0 / (64.0 * a) * math.exp(-e2t * math.sin(a * math.pi) ** 2)
    if a <= 2.0:
        return a / 8.0 * math.exp(-e2t)
    return a / 2.0 * math.exp(-e2t)


def _kl_integral(alpha: float, eps: float, t: float) -> float:
    """(1/4pi) sin(pi/alpha) int_0^inf e^{-eps^2(1+cosh q)/(2t)}
    / ((1+cosh q)(cosh(q/alpha) - cos(pi/alpha))) dq.

    The denominator difference is formed as 2 sinh^2(q/(2 alpha)) +
    2 sin^2(pi/(2 alpha)), which is cancellation-free for every alpha
    (raw cosh - cos loses all digits as alpha grows).
    """
    scale = eps * eps / (2.0 * t)
    # truncate where the envelope e^{-scale*cosh(q)} is below 1e-30 * e^{-scale}
    ch_max = 1.0 + 70.0 / scale
    q_max = math.acosh(ch_max) + 1.0

    def integrand(qv):
        qv = np.asarray(qv, dtype=float)
        ch = np.cosh(qv)
        den = 2.0 * np.sinh(qv / (2 * alpha)) ** 2 \
            + 2.0 * math.sin(math.pi / (2 * alpha)) ** 2
        return np.exp(-scale * (1.0 + ch)) / ((1.0 + ch) * den)

    val, _ = tanh_sinh(integrand, 0.0, q_max, tol=1e-13)
    return math.sin(math.pi / alpha) / (4.0 * math.pi) * val


def a_remainder(q: WedgeBallQuery) -> float:
    """The exponentially small remainder A(t) of the wedge ball trace.

    alpha > 1/2: the single contour integral.  alpha < 1/2: image terms
    -(alpha/4) e^{-eps^2 sin^2(k alpha pi)/t} / sin^2(k alpha pi) for
    k = 1..K plus the same integral, where K is minimal with
    2 K alpha < 1 < (2K+2) alpha.  At alpha = 1/(2K) exactly, the k = K
    image sits on the contour and contributes with half weight, the
    integral term vanishing into it.
    """
    alpha, eps, t = q.alpha, q.eps, q.t
    if alpha > 0.5:
        val = _kl_integral(alpha, eps, t)
    else:
        inv = 1.0 / (2.0 * alpha)
        boundary = abs(inv - round(inv)) < 1e-13  # alpha = 1/(2K) exactly
        # the last image with 2 k alpha < 1; on the boundary the next one
        # sits on the contour
        K = (round(inv) if boundary else math.ceil(inv)) - 1
        val = 0.0
        for k in range(1, K + 1):
            s2 = math.sin(k * alpha * math.pi) ** 2
            val -= alpha / 4.0 * math.exp(-eps**2 * s2 / t) / s2
        if boundary:
            val -= alpha / 8.0 * math.exp(-eps**2 / t)
        else:
            val += _kl_integral(alpha, eps, t)
    return val


def wedge_ball_trace(q: WedgeBallQuery) -> float:
    """Heat trace of the wedge restricted to the vertex ball B_eps."""
    alpha, eps, t = q.alpha, q.eps, q.t
    area_term = alpha * eps**2 / (8.0 * t)

    def f(u):
        return np.exp(-(eps * u) ** 2 / t) * np.sqrt(np.clip(1.0 - u * u, 0.0, None))

    edge_int, _ = tanh_sinh(f, 0.0, 1.0, tol=1e-13)
    edge_term = -(eps**2 / (2.0 * math.pi * t)) * edge_int
    return area_term + edge_term + corner_term(alpha) + a_remainder(q)
