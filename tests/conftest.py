import time

import numpy as np
import pytest

from spectral_corner import (analytic_spectrum, build_domain, default_window,
                             fit_expansion, geometric_coefficients,
                             richardson_spectrum, trace_curve)

SLIT_SQUARE_DOC = {
    "kind": "slit-polygon",
    "params": {
        "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        "slits": [[[0.5, 0.0], [0.5, 0.5]]],
    },
}

# The slit square with its slit bent by pi/4 at (0.5, 0.5): the second
# segment runs along a grid diagonal, and the bend makes corners of angle
# 3pi/4 and 5pi/4.
BENT_SLIT_DOC = {
    "kind": "slit-polygon",
    "params": {
        "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        "slits": [[[0.5, 0.0], [0.5, 0.5], [0.25, 0.75]]],
    },
}


@pytest.fixture(scope="session")
def square():
    return build_domain({"kind": "rectangle", "params": {"a": 1.0, "b": 1.0}})


@pytest.fixture(scope="session")
def disk():
    return build_domain({"kind": "disk", "params": {"R": 1.0}})


@pytest.fixture(scope="session")
def slit_square():
    return build_domain(SLIT_SQUARE_DOC)


@pytest.fixture(scope="session")
def bent_slit_square():
    return build_domain(BENT_SLIT_DOC)


def make_sector(alpha, radius=1.0):
    return build_domain({"kind": "sector",
                         "params": {"alpha": alpha, "R": radius}})


@pytest.fixture(scope="session")
def sector_a0_fits():
    """Fitted constant trace coefficients for unit sectors, keyed by angle.

    Shared between the sector acceptance run and the corner-isolation
    property (both need the same expensive Bessel-zero spectra).  Each entry
    records the fitted a_0, the eigenvalue count, and the wall-clock seconds.
    """
    out = {}
    for alpha in (0.5, 1.0, 1.5, 3.0):
        start = time.monotonic()
        dom = make_sector(alpha)
        spec = analytic_spectrum(dom, 30000)
        curve = trace_curve(spec, default_window(spec))
        known = geometric_coefficients(dom)
        fit = fit_expansion(curve, "peel-known", known=known)
        out[alpha] = {"a_0": fit.a_0, "count": spec.count,
                      "seconds": time.monotonic() - start}
    return out


@pytest.fixture(scope="session")
def slit_richardson():
    """Richardson (h = 1/64, 1/128) spectrum of the slit unit square."""
    start = time.monotonic()
    dom = build_domain(SLIT_SQUARE_DOC)
    spec = richardson_spectrum(dom, None, 1 / 64, 400, seed=0)
    return dom, spec, time.monotonic() - start


def riemann_interior(domain, fn, n=800):
    """Midpoint-grid interior integral over the domain's sampling box."""
    lo, span = domain.box
    xs = lo[0] + (np.arange(n) + 0.5) / n * span[0]
    ys = lo[1] + (np.arange(n) + 0.5) / n * span[1]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    inside = domain.contains(pts)
    cell = span[0] * span[1] / n**2
    return float(np.sum(fn(pts[inside, 0], pts[inside, 1])) * cell)
