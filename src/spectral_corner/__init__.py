"""Heat traces, zeta-regularized determinants, and conformal anomalies on
planar curvilinear polygonal domains with corners of arbitrary positive
angle, including slit tips and cone points.

The package is organized as a pipeline: domains and conformal metrics
(:mod:`.geometry`, :mod:`.fields`), exact and discretized Dirichlet spectra
(:mod:`.spectrum`), heat-trace curves and short-time expansion fits
(:mod:`.heattrace`), the spectral zeta function and determinant
(:mod:`.zeta`), the model wedge/corner remainder (:mod:`.wedge`), the
conformal-anomaly identities (:mod:`.anomaly`), and a Brownian-bridge Monte
Carlo cross-check (:mod:`.walker`).  The ``spectral-corner`` console script
(:mod:`.cli`) exposes each stage as a subcommand emitting JSON/CSV
artifacts.
"""

from .anomaly import AnomalyReport, PipelineConfig, pa_rhs, pa_verify
from .errors import NumericalError, SpecError
from .fields import ScalarField, as_field
from .geometry import (ArcPiece, Corner, Domain, ExpansionCoefficients,
                       MetricSpec, Segment, boundary_integral, build_domain,
                       corner_term, geometric_coefficients, interior_integral,
                       load_domain)
from .heattrace import (ExpansionFit, HeatTraceCurve, compare_expansion,
                        default_window, derivative_identity_residual,
                        fit_expansion, trace_at, trace_curve)
from .special import bessel_j, rect_theta_factor
from .spectrum import (DiscreteOperator, DiscreteSpectrum,
                       FunctionTraceProvider, Spectrum, TraceSource,
                       analytic_spectrum, assemble_fdm, richardson_spectrum,
                       solve_eigs, spectrum_for, weyl_ratio)
from .walker import BridgeEstimate, bridge_trace_estimate
from .wedge import (WedgeBallQuery, a_remainder, a_remainder_bound,
                    wedge_ball_trace)
from .zeta import (ZetaEvaluation, provider_for, zeta_continued,
                   zeta_prime_at_zero, zeta_series)

__version__ = "0.1.0"

__all__ = [
    "AnomalyReport", "ArcPiece", "BridgeEstimate", "Corner",
    "DiscreteOperator", "DiscreteSpectrum", "Domain",
    "ExpansionCoefficients", "ExpansionFit", "FunctionTraceProvider",
    "HeatTraceCurve", "MetricSpec", "NumericalError", "PipelineConfig",
    "ScalarField", "Segment", "SpecError", "Spectrum", "TraceSource",
    "WedgeBallQuery", "ZetaEvaluation", "a_remainder", "a_remainder_bound",
    "analytic_spectrum", "as_field", "assemble_fdm", "bessel_j",
    "boundary_integral", "bridge_trace_estimate", "build_domain",
    "compare_expansion", "corner_term", "default_window",
    "derivative_identity_residual", "fit_expansion",
    "geometric_coefficients", "interior_integral", "load_domain",
    "pa_rhs", "pa_verify", "provider_for", "rect_theta_factor",
    "richardson_spectrum", "solve_eigs", "spectrum_for", "trace_at",
    "trace_curve", "wedge_ball_trace", "weyl_ratio", "zeta_continued",
    "zeta_prime_at_zero", "zeta_series", "__version__",
]
