"""Spectral zeta function: continuation, zeta'(0), and the determinant.

zeta(s) = sum lambda_n^{-s} is continued through the Mellin transform of the
heat trace split at t = 1:

  Gamma(s) zeta(s) = int_0^1 t^{s-1} (Tr - a_{-1}/t - a_{-1/2}/sqrt(t) - a_0) dt
                     + int_1^inf t^{s-1} Tr dt
                     + a_{-1}/(s-1) + a_{-1/2}/(s-1/2) + a_0/s,

valid on Re s > -1/2 minus the poles s = 1, 1/2.  At s = 0 this yields
zeta(0) = a_0 and

  zeta'(0) = int_0^1 t^{-1}(Tr - a_{-1}/t - a_{-1/2}/sqrt(t) - a_0) dt
             + int_1^inf t^{-1} Tr dt - a_{-1} - 2 a_{-1/2} + gamma * a_0,

with gamma the Euler-Mascheroni constant.  The regularized determinant is
zdet = exp(-zeta'(0)).

Every function here reads the trace through one protocol,
``spectrum.TraceSource``: value(t), t_min, lam_1, e1_sum(t0) and
tail_bound(t).  A source is either exact (a ``FunctionTraceProvider``,
t_min = 0, which feeds the continuation directly) or a truncated
``Spectrum`` (t_min = 40/completeness, whose (0, t_min) piece comes from a
fitted remainder model).  ``provider_for`` returns the source a spectrum
carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn

from .errors import NumericalError, SpecError
from .geometry import ExpansionCoefficients
from .heattrace import default_window, fit_expansion, trace_curve
from .spectrum import Spectrum, TraceSource, _upper_mellin
from .special import EULER_GAMMA, tanh_sinh, gauss_panels


def provider_for(spec: Spectrum) -> TraceSource:
    """The trace source a spectrum carries: exact if known, else truncated."""
    return spec.trace


# ---------------------------------------------------------------------------
# Direct series
# ---------------------------------------------------------------------------

def zeta_series(spec: Spectrum, s: float, tol: float = 1e-8) -> float:
    """sum lambda_n^{-s} for s > 1, completed by a Weyl integral tail.

    The tail over (Lambda, inf) is estimated by (Vol/4pi) Lambda^{1-s}/(s-1)
    with a certified bound from the boundary correction to Weyl's law; if the
    bound exceeds tol an error reports the required eigenvalue count.
    """
    if s <= 1:
        raise SpecError("zeta_series requires s > 1")
    L = spec.completeness
    lam = spec.eigenvalues[spec.eigenvalues <= L]
    head = float(np.sum(lam ** (-s)))
    V = spec.volume
    tail = V * L ** (1 - s) / (4 * math.pi * (s - 1))
    if spec.boundary_length is not None:
        # two-term Weyl tail; the residual counting-function fluctuation R
        # is measured on the computed spectrum and extrapolated with margin
        per = spec.boundary_length
        tail -= per / (8 * math.pi) * L ** (0.5 - s) / (s - 0.5)
        n = np.arange(1, lam.size + 1)
        R = n - (V * lam / (4 * math.pi) - per * np.sqrt(lam) / (4 * math.pi))
        r_max = float(np.max(np.abs(R[lam.size // 2:]))) + 1.0
        bound = 6.0 * r_max * L ** (-s)
    else:
        per_proxy = 4.0 * math.sqrt(V)
        bound = per_proxy / (8 * math.sqrt(math.pi)) * L ** (0.5 - s) / (s - 0.5) \
            + 0.25 * tail
    if bound > tol:
        needed = int(V / (4 * math.pi)
                     * (bound / tol) ** (1 / (s - 1)) * L) + 1
        raise NumericalError(
            "zeta_series",
            f"tail bound {bound:.3g} exceeds tolerance {tol:.3g}; "
            f"roughly {needed} eigenvalues required")
    return head + tail


# ---------------------------------------------------------------------------
# Continuation
# ---------------------------------------------------------------------------

def _clipped_remainder(provider: TraceSource, coeffs: ExpansionCoefficients,
                       t: np.ndarray) -> np.ndarray:
    """Tr(t) minus its three-term expansion, with the roundoff floor zeroed.

    Near t -> 0 the true remainder decays exponentially while the computed
    difference of ~a_{-1}/t-sized quantities is pure roundoff; values below
    16 ulp of the constituents are clipped to zero.
    """
    a_m1, a_mh, a_0 = coeffs.a_m1, coeffs.a_mhalf, coeffs.a_0
    vals = provider.value(t)
    model = a_m1 / t + a_mh / np.sqrt(t) + a_0
    delta = vals - model
    floor = 16 * np.finfo(float).eps * (np.abs(a_m1) / t
                                        + np.abs(a_mh) / np.sqrt(t)
                                        + np.abs(a_0) + np.abs(vals))
    return np.where(np.abs(delta) < floor, 0.0, delta)


def zeta_continued(provider: TraceSource, coeffs: ExpansionCoefficients,
                   s: float) -> float:
    """Evaluate the continued zeta(s) on Re s > -1/2, s not in {1/2, 1}.

    The source must be exact (t_min = 0); truncated spectra cannot feed the
    continuation directly.
    """
    if s <= -0.5:
        raise SpecError("continuation only established for s > -1/2")
    if abs(s - 1.0) < 1e-9 or abs(s - 0.5) < 1e-9:
        raise SpecError(f"s={s} is a pole of zeta")
    if provider.t_min > 0:
        raise SpecError("zeta_continued needs an exact trace provider")
    a_m1, a_mh, a_0 = coeffs.a_m1, coeffs.a_mhalf, coeffs.a_0

    def low_integrand(t):
        t = np.asarray(t, dtype=float)
        delta = _clipped_remainder(provider, coeffs, t)
        out = np.zeros_like(delta)
        mask = delta != 0.0
        out[mask] = t[mask] ** (s - 1) * delta[mask]
        return out

    i_low, _ = tanh_sinh(low_integrand, 0.0, 1.0, tol=1e-13)
    i_high = _upper_mellin(provider, s)
    principal = i_low + i_high + a_m1 / (s - 1.0) + a_mh / (s - 0.5)
    return principal / gamma_fn(s) + a_0 / gamma_fn(s + 1.0)


# ---------------------------------------------------------------------------
# zeta'(0) and the determinant
# ---------------------------------------------------------------------------

@dataclass
class ZetaEvaluation:
    zeta0: float
    zeta_prime0: float
    zdet: float
    error_budget: dict
    details: dict = field(default_factory=dict)


def _remainder_low_integral(c1: float, c2: float, c3: float, tau: float) -> float:
    """int_0^tau t^-1 (c1 sqrt(t) + c2 sqrt(t) log t + c3 t) dt."""
    rt = math.sqrt(tau)
    return 2 * c1 * rt + c2 * (2 * rt * math.log(tau) - 4 * rt) + c3 * tau


def zeta_prime_at_zero(provider: TraceSource, coeffs: ExpansionCoefficients,
                       tol: float = 1e-6) -> ZetaEvaluation:
    """zeta'(0) with an auditable error budget; zdet = exp(-zeta'(0)).

    Exact sources integrate (0, 1] directly.  A truncated source, a
    Spectrum, integrates [t_min, 1] from its eigenvalues and replaces
    (0, t_min) by the closed-form integral of the fitted remainder model
    c1 sqrt(t) + c2 sqrt(t) log t + c3 t, whose bootstrap uncertainty enters
    the budget.  int_1^inf t^-1 Tr dt and its error come from e1_sum.
    """
    a_m1, a_mh, a_0 = coeffs.a_m1, coeffs.a_mhalf, coeffs.a_0
    budget: dict[str, float] = {}
    details: dict = {}

    def low_integrand(t):
        t = np.asarray(t, dtype=float)
        delta = _clipped_remainder(provider, coeffs, t)
        out = np.zeros_like(delta)
        mask = delta != 0.0
        out[mask] = delta[mask] / t[mask]
        return out

    if provider.t_min == 0.0:
        i_low, q_err = tanh_sinh(low_integrand, 0.0, 1.0, tol=1e-13)
        budget["quadrature"] = q_err
        budget["remainder_model"] = 0.0
    else:
        t_min = provider.t_min
        if t_min >= 1.0:
            raise NumericalError(
                "zeta_prime_at_zero",
                f"minimum admissible t {t_min:.3g} >= 1; spectrum too short")
        i_mid, q_err = gauss_panels(low_integrand, t_min, 1.0, tol=1e-12)
        fit = fit_expansion(trace_curve(provider, default_window(provider)),
                            "peel-known", known=coeffs)
        c1 = fit.remainder["sqrt(t)"]
        c2 = fit.remainder["sqrt(t)*log(t)"]
        c3 = fit.remainder["t"]
        i_head = _remainder_low_integral(c1, c2, c3, t_min)
        # propagate the bootstrap half-widths through the same integral
        spread = 0.0
        for name, c in (("sqrt(t)", c1), ("sqrt(t)*log(t)", c2), ("t", c3)):
            lo, hi = fit.confidence[name]
            spread += abs(_remainder_low_integral(
                *(0.5 * (hi - lo) if n == name else 0.0
                  for n in ("sqrt(t)", "sqrt(t)*log(t)", "t")), t_min))
        i_low = i_mid + i_head
        budget["quadrature"] = q_err
        budget["remainder_model"] = spread
        details["remainder_fit"] = fit.remainder
        details["t_min"] = t_min

    i_high, budget["trace_tail"] = provider.e1_sum()

    zp = i_low + i_high - a_m1 - 2 * a_mh + EULER_GAMMA * a_0
    total = sum(budget.values())
    if total > tol:
        raise NumericalError(
            "zeta_prime_at_zero",
            f"error budget {total:.3g} exceeds tolerance {tol:.3g}: {budget}",
            best_estimate=zp)
    budget["total"] = total
    return ZetaEvaluation(zeta0=a_0, zeta_prime0=float(zp),
                          zdet=float(math.exp(-zp)), error_budget=budget,
                          details=details)
