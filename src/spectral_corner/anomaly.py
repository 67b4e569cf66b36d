"""Conformal anomaly of the zeta-regularized determinant.

For the conformal family g_u = e^{2 u sigma} g_0 over a flat polygonal base,
the u-derivative of the determinant is minus twice the sigma-weighted
constant trace coefficient a_0(u, sigma):

  d/du log zdet(g_u) = -(1/6pi) int sigma K_u dVol_u
                       - (1/6pi) int sigma k_u dl_u
                       - (1/4pi) int d_{n_u} sigma dl_u
                       - (1/12) sum_j sigma(p_j)(1 - alpha_j^2)/alpha_j
                     = -2 a_0(u, sigma).

a_0 is affine in u, and Green's formula makes its slope the Dirichlet energy
D = (1/12pi) int |grad sigma|^2 dVol_0, so one unit step integrates to

  log zdet(g_u) - log zdet(g_{u+1}) = D + 2 a_0(u, sigma)
                                    = D - d/du log zdet(g_u).

pa_rhs evaluates both forms on the a_0 integrals of
geometry.geometric_coefficients, the one statement of the conformal rules; pa_verify computes the spectral side
(zeta'(0) for both metrics) through the spectrum and zeta modules and
reports the gap.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from .errors import SpecError, check_seed
from .fields import as_field
from .geometry import (A0_TERMS, Domain, MetricSpec, _a0_terms,
                       geometric_coefficients, interior_integral)
from .heattrace import WINDOW_HI, _DU
from .spectrum import COMPLETE_SHARE, TAIL_THRESHOLD, Spectrum, spectrum_for
from .zeta import ZetaEvaluation, zeta_prime_at_zero

# Error budget ceiling of each zeta'(0) in the integrated identity.
_ZETA_BUDGET = 0.05


@dataclass
class AnomalyReport:
    """Both sides of a conformal-anomaly identity with a verdict."""

    form: str  # "integrated" | "differentiated"
    lhs: float
    rhs: float
    breakdown: dict
    gap: float
    rel_gap: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class PipelineConfig:
    """Knobs for the spectral side of pa_verify."""

    h: float = 1 / 64  # coarse grid; Richardson pairs it with h/2
    eigs: int = 400
    seed: int = 0
    tolerance: Optional[float] = None  # verdict tolerance, finite and > 0; route default if None
    check_differentiated: bool = True


def pa_rhs(domain: Domain, sigma, form: str = "integrated",
           u: float = 0.0) -> tuple[float, dict]:
    """Geometric side of the anomaly identity, with a per-term breakdown.

    form="differentiated" evaluates d/du log zdet(g_u) = -2 a_0(u, sigma),
    the sigma-weighted constant trace coefficient of g_u from the a_0
    integrals of geometric_coefficients (a_{-1} and a_{-1/2} are not
    integrated), with -2 times each of its terms.
    form="integrated" evaluates log zdet(g_u) - log zdet(g_{u+1}), one unit
    step of the conformal family from the (generally curved) base g_u; u = 0
    gives the flat-base identity.  Since a_0(u, sigma) is affine in u and
    Green's formula turns its slope into D = (1/12pi) int |grad sigma|^2
    dVol_0, the step is

      integrated(u) = D - differentiated(u) = D + 2 a_0(u, sigma),

    summed term by term: D first, then the four a_0 terms.
    """
    sigma = as_field(sigma)
    if form == "integrated":
        dirichlet = 0.0 if sigma.is_zero() else interior_integral(
            domain, lambda x, y: sigma.grad_sq(x, y)) / (12 * math.pi)
    elif form != "differentiated":
        raise SpecError(f"unknown anomaly form {form!r}")
    a0, terms = _a0_terms(domain, MetricSpec(sigma, u), sigma)
    if form == "differentiated":
        return -2.0 * a0, {name: -2.0 * terms[name] for name in A0_TERMS}
    breakdown = {"dirichlet_energy": dirichlet}
    total = dirichlet
    for name in A0_TERMS:
        breakdown[name] = 2.0 * terms[name]
        total += breakdown[name]
    return total, breakdown


def _zeta_prime(domain: Domain, sigma, u: float, cfg: PipelineConfig,
                budget: float) -> tuple[Spectrum, ZetaEvaluation]:
    """Spectrum of g_u = e^{2 u sigma} g_0 and its zeta'(0) under a budget ceiling.

    The fit window [t_min, WINDOW_HI] must span a decade, so t_min =
    TAIL_THRESHOLD / completeness needs completeness >= 4000.  k is sized
    for it by the weighted Weyl count, read off a_{-1} = Vol_u / 4pi of the
    leg's geometric_coefficients (the same coefficients the zeta'(0) fit
    peels), and conformal volume changes do not starve the window;
    ``spectrum_for`` chooses the route.  A finite-difference grid too
    coarse for that k raises SpecError naming k, h and the grid's node
    count.
    """
    metric = MetricSpec(sigma, u)
    coeffs = geometric_coefficients(domain, metric)
    complete = TAIL_THRESHOLD / (WINDOW_HI / 10)
    k = max(cfg.eigs, int(coeffs.a_m1 * (complete / COMPLETE_SHARE) * 1.15) + 10)
    spec = spectrum_for(domain, metric, k, cfg.h, cfg.seed)
    return spec, zeta_prime_at_zero(spec.trace, coeffs, tol=budget)


def pa_verify(domain: Domain, sigma, config: Optional[PipelineConfig] = None) -> AnomalyReport:
    """Spectral check of the integrated anomaly identity for u: 0 -> 1.

    Each leg takes its spectrum from ``spectrum_for``: a constant rescaling
    of a rectangle, disk or sector (u = 0, or sigma constant) is the
    dilated domain's closed form, anything else the Richardson
    finite-difference spectrum.  When both legs have exact theta traces the
    verdict is an absolute gap of 1e-4, otherwise a relative gap of 2e-2;
    the route label names the legs' routes.
    When configured, the differentiated form at u = 0 is checked against one
    central difference of zeta'(0) over u = +-du; there is no step-doubling
    check.  The config's seed must be a non-negative integer
    (``check_seed``); it is checked before any work.
    """
    cfg = config or PipelineConfig()
    check_seed("pa_verify", cfg.seed)
    if cfg.tolerance is not None and not 0 < cfg.tolerance < math.inf:  # NaN
        raise SpecError("PipelineConfig.tolerance must be None or finite and > 0, "
                        f"got {cfg.tolerance!r}")
    sigma = as_field(sigma)
    rhs, breakdown = pa_rhs(domain, sigma, "integrated")
    s0, z0 = _zeta_prime(domain, sigma, 0.0, cfg, _ZETA_BUDGET)
    s1, z1 = _zeta_prime(domain, sigma, 1.0, cfg, _ZETA_BUDGET)
    exact = s0.trace.t_min == 0.0 and s1.trace.t_min == 0.0
    fdm = "discrete" in (s0.provenance["source"], s1.provenance["source"])
    route = "analytic-theta" if exact else \
        f"fdm-richardson h={cfg.h}" if fdm else "closed-form-truncated"
    tol = cfg.tolerance if cfg.tolerance is not None else \
        (1e-4 if exact else 2e-2)
    # log zdet(g_0) - log zdet(g_1) = zeta_1'(0) - zeta_0'(0)
    lhs = z1.zeta_prime0 - z0.zeta_prime0
    details: dict = {
        "route": route,
        "zeta_prime0": {"u=0": z0.zeta_prime0, "u=1": z1.zeta_prime0},
        "error_budgets": {"u=0": z0.error_budget, "u=1": z1.error_budget},
    }

    gap = lhs - rhs
    rel_gap = abs(gap) / max(abs(rhs), 1e-300)
    passed = (abs(gap) <= tol) if exact else (rel_gap <= tol)

    if cfg.check_differentiated:
        # pa_rhs(domain, sigma, "differentiated") from the integrated
        # breakdown: each term is -breakdown[name], summed left to right
        # from -0.0, the exact additive identity
        diff_breakdown = {name: -breakdown[name] for name in A0_TERMS}
        diff_rhs = sum(diff_breakdown.values(), -0.0)

        # the two legs share the grid, the solver, and the remainder model;
        # their systematic errors cancel in the difference, so the per-leg
        # budget ceiling is not binding here
        zp = _zeta_prime(domain, sigma, _DU, cfg, math.inf)[1]
        zm = _zeta_prime(domain, sigma, -_DU, cfg, math.inf)[1]
        # d/du log zdet = -d/du zeta'(0)
        diff_lhs = -(zp.zeta_prime0 - zm.zeta_prime0) / (2 * _DU)
        details["differentiated"] = {
            "lhs": diff_lhs,
            "rhs": diff_rhs,
            "gap": diff_lhs - diff_rhs,
            "du": _DU,
            "breakdown": diff_breakdown,
        }

    return AnomalyReport(
        form="integrated", lhs=lhs, rhs=rhs, breakdown=breakdown,
        gap=gap, rel_gap=rel_gap, tolerance=tol, passed=bool(passed),
        details=details,
    )
