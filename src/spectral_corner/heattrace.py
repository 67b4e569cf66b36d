"""Heat traces, short-time expansion fits, and the trace-derivative identity.

Tr(e^{-t Delta}) of a spectrum comes from its one trace source,
``Spectrum.trace``: the exact closed form where the spectrum carries one
(rectangles, a theta product at machine precision for every t > 0), else
the truncated eigenvalue sum, which refuses t below 40/completeness.
Finite-difference spectra are Richardson-extrapolated over grid halving
by ``spectrum.richardson_spectrum``, eigenvalue by eigenvalue.
Fits extract (a_{-1}, a_{-1/2}, a_0) and are compared against the
geometric prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericalError, SpecError, check_seed
from .fields import as_field
from .geometry import (Domain, ExpansionCoefficients, MetricSpec,
                       geometric_coefficients)
from .spectrum import Spectrum, TAIL_THRESHOLD, assemble_fdm, solve_eigs


@dataclass
class HeatTraceCurve:
    """Samples (t, Tr(e^{-t Delta})) with per-sample error estimates."""

    t: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    source: str

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.values, dtype=float)
        order = np.argsort(t)
        self.t = t[order]
        self.values = v[order]
        self.errors = np.asarray(self.errors, dtype=float)[order]
        if np.any(self.t <= 0):
            raise SpecError("heat-trace samples require t > 0")
        if np.any(self.values <= 0) or np.any(np.diff(self.values) >= 0):
            raise SpecError("heat trace must be positive and strictly decreasing")


def trace_at(spec: Spectrum, t):
    """Tr(e^{-t Delta}) at t > 0, a scalar or an array, from ``spec.trace``.

    Rectangle spectra are summed exactly as a theta product.  Truncated
    spectra refuse t below 40/completeness (tail no longer negligible).
    """
    if not np.all(np.asarray(t) > 0):
        raise SpecError("trace_at requires t > 0")
    return spec.trace.value(t)


def trace_curve(spec: Spectrum, ts: np.ndarray) -> HeatTraceCurve:
    ts = np.asarray(ts, dtype=float)
    return HeatTraceCurve(ts, trace_at(spec, ts), spec.trace.tail_bound(ts),
                          spec.provenance.get("source", "spectrum"))


# Upper end of every default fit window.
WINDOW_HI = 1e-1


def default_window(spec: Spectrum, points: int = 25) -> np.ndarray:
    """Log-spaced fit window from max(window floor, trace t_min) to WINDOW_HI."""
    lo = max(spec.window_floor, spec.trace.t_min)
    if lo >= WINDOW_HI:
        raise SpecError(
            f"empty fit window: minimum admissible t {lo:.3g} >= {WINDOW_HI:.3g}; "
            "compute more eigenvalues")
    return np.geomspace(lo, WINDOW_HI, points)


# ---------------------------------------------------------------------------
# Expansion fitting
# ---------------------------------------------------------------------------

@dataclass
class ExpansionFit:
    a_m1: float
    a_mhalf: float
    a_0: float
    remainder: dict
    window: tuple[float, float]
    residual_norm: float
    confidence: dict = field(default_factory=dict)


_FIT_ALL = ("1/t", "1/sqrt(t)", "1", "sqrt(t)", "sqrt(t)*log(t)")
_PEEL = ("1", "sqrt(t)", "sqrt(t)*log(t)", "t")


def _design(t: np.ndarray, basis) -> np.ndarray:
    cols = {
        "1/t": 1.0 / t,
        "1/sqrt(t)": 1.0 / np.sqrt(t),
        "1": np.ones_like(t),
        "sqrt(t)": np.sqrt(t),
        "sqrt(t)*log(t)": np.sqrt(t) * np.log(t),
        "t": t,
    }
    return np.column_stack([cols[b] for b in basis])


def fit_expansion(curve: HeatTraceCurve, mode: str = "fit-all",
                  known: Optional[ExpansionCoefficients] = None,
                  bootstrap: int = 200, seed: int = 0) -> ExpansionFit:
    """Extract short-time expansion coefficients from a trace curve.

    fit-all solves weighted least squares on {1/t, 1/sqrt(t), 1, sqrt(t),
    sqrt(t) log t}.  peel-known subtracts the supplied a_{-1}/t +
    a_{-1/2}/sqrt(t) and extrapolates the remainder on {1, sqrt(t),
    sqrt(t) log t, t}.  Confidence intervals come from a residual bootstrap
    of `bootstrap` resamples drawn from ``default_rng(seed)``; seed must be a
    non-negative integer (``check_seed``).
    """
    check_seed("fit_expansion", seed)
    t, y = curve.t, curve.values
    if t.size < 8 or math.log10(t[-1] / t[0]) < 1.0 - 1e-9:
        raise SpecError(f"fit needs >= 8 samples spanning >= 1 decade of t, "
                        f"got {t.size} on [{t[0]:.3g}, {t[-1]:.3g}]; more "
                        "eigenvalues lower a default window's start")
    if mode == "fit-all":
        basis = _FIT_ALL
        target = y
        weight = 1.0 / np.maximum(np.abs(y), 1e-300)
    elif mode == "peel-known":
        if known is None:
            raise SpecError("peel-known mode requires known coefficients")
        basis = _PEEL
        target = y - known.a_m1 / t - known.a_mhalf / np.sqrt(t)
        weight = np.ones_like(y)
    else:
        raise SpecError(f"unknown fit mode {mode!r}")

    M = _design(t, basis) * weight[:, None]
    b = target * weight
    cond = np.linalg.cond(M)
    if cond > 1e12:
        raise NumericalError(
            "fit_expansion",
            f"design matrix condition {cond:.3g} too large; widen or shift "
            "the fit window")
    coef, *_ = np.linalg.lstsq(M, b, rcond=None)
    resid = b - M @ coef
    rnorm = float(np.linalg.norm(resid))

    # one draw gives the resamples that drawing them one by one would, and
    # one least-squares solve fits them all, one right-hand side each
    pick = np.random.default_rng(seed).integers(0, resid.size, (bootstrap, resid.size))
    boots, *_ = np.linalg.lstsq(M, (M @ coef)[:, None] + resid[pick].T, rcond=None)
    lo = np.percentile(boots, 2.5, axis=1)
    hi = np.percentile(boots, 97.5, axis=1)
    confidence = {name: (float(l), float(h))
                  for name, l, h in zip(basis, lo, hi)}

    named = dict(zip(basis, coef))
    if mode == "fit-all":
        a_m1, a_mhalf, a_0 = named["1/t"], named["1/sqrt(t)"], named["1"]
    else:
        a_m1, a_mhalf, a_0 = known.a_m1, known.a_mhalf, named["1"]
    remainder = {k: float(v) for k, v in named.items()
                 if k not in ("1/t", "1/sqrt(t)", "1")}
    return ExpansionFit(float(a_m1), float(a_mhalf), float(a_0), remainder,
                        (float(t[0]), float(t[-1])), rnorm, confidence)


def compare_expansion(domain: Domain, metric: Optional[MetricSpec], psi,
                      curve: HeatTraceCurve,
                      tolerances: Optional[dict] = None) -> dict:
    """Predicted vs fitted expansion coefficients with pass/fail flags.

    a_{-1} and a_{-1/2} come from the fit-all pass; a_0 from peel-known
    seeded with the geometric prediction (sharper near t -> 0).
    """
    tol = {"a_m1": 1e-3, "a_mhalf": 1e-3, "a_0": 1e-3}
    if tolerances:
        tol.update(tolerances)
    predicted = geometric_coefficients(domain, metric, psi)
    fit_all = fit_expansion(curve, "fit-all")
    peel = fit_expansion(curve, "peel-known", known=predicted)
    rows = {}
    for name, pred, fitted in (("a_m1", predicted.a_m1, fit_all.a_m1),
                               ("a_mhalf", predicted.a_mhalf, fit_all.a_mhalf),
                               ("a_0", predicted.a_0, peel.a_0)):
        gap = fitted - pred
        rows[name] = {
            "predicted": pred,
            "fitted": fitted,
            "abs_gap": abs(gap),
            "rel_gap": abs(gap) / max(abs(pred), 1e-300),
            "tolerance": tol[name],
            "pass": bool(abs(gap) < tol[name]),
        }
    return {
        "rows": rows,
        "all_pass": all(r["pass"] for r in rows.values()),
        "window": peel.window,
        "source": curve.source,
        "breakdown": predicted.breakdown,
    }


# ---------------------------------------------------------------------------
# Trace-derivative identity (conformal variation)
# ---------------------------------------------------------------------------

# Step of every central difference in u: derivative_identity_residual's and
# the differentiated anomaly check's.
_DU = 1e-3


def derivative_identity_residual(domain: Domain, sigma, u: float, eps: float,
                                 h: float = 1 / 32, seed: int = 0) -> float:
    """Residual of d/du int_eps^inf t^-1 Tr(e^{-t Delta_u}) dt = 2 Tr(sigma e^{-eps Delta_u}).

    The integral is the spectrum's ``e1_sum(eps)``, term-wise sum
    E_1(eps * lambda_n) over enough modes for e^{-eps lambda_k} ~ 1e-17 by
    the Weyl count; the u derivative is a central difference over u +/- du
    with du = 1e-3.
    """
    sigma = as_field(sigma)
    if not 0 < eps < math.inf:  # NaN included
        raise SpecError("derivative_identity_residual needs a finite eps > 0")
    probe = assemble_fdm(domain, MetricSpec(sigma, u), h=h)
    lam_target = TAIL_THRESHOLD / eps
    k = min(int(domain.area * lam_target / (4 * math.pi) * 1.6) + 25,
            probe.n_nodes - 2)

    f_plus, f_minus = (
        solve_eigs(assemble_fdm(domain, MetricSpec(sigma, v), h=h), k,
                   seed=seed).spectrum().e1_sum(eps)[0]
        for v in (u + _DU, u - _DU))
    lhs = (f_plus - f_minus) / (2 * _DU)
    rhs = 2.0 * solve_eigs(probe, k, seed=seed).weighted_trace(sigma, eps)
    return abs(lhs - rhs)
