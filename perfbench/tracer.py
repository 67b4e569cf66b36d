"""Outside-in span tracer for the spectral_corner package.

The package has no instrumentation of its own, so this module wraps its
public functions from outside: every module-level function a layer defines,
the methods of ``fields.ScalarField``, and scipy's ``eigsh`` as
``spectrum`` looks it up through ``scipy.sparse.linalg``.  A function
imported by name into another module (``from .special import
bessel_zeros_upto`` in ``spectrum``) is a second binding of the same object,
so the wrapper replaces it in every package namespace that holds it,
including the package root that the workloads call through.

Spans stay in memory as (id, name, start, end, parent, pass id, error) and
are written out once the run ends.  Work counters are read from the
arguments and return values at the same boundaries; nothing inside the
package changes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "spectral_corner"

# Package modules measured as layers.  ``cli`` is a thin artifact writer over
# the same public calls and no workload runs it, so it is not wrapped; if it
# is loaded, its namespace is still patched where it binds a wrapped function.
LAYERS = ("spectrum", "special", "walker", "heattrace", "zeta", "anomaly",
          "geometry", "fields", "wedge")

SCALAR_FIELD_METHODS = ("__init__", "__call__", "dx", "dy", "grad_sq",
                        "pos_laplacian", "normal_derivative", "is_zero",
                        "is_constant", "constant")

# Functions whose first argument is an integrand; it is wrapped to count the
# points the quadrature evaluates.
INTEGRAND_COUNTERS = {"special.tanh_sinh": "special.tanh_sinh.nodes",
                      "special.gauss_panels": "special.gauss_panels.nodes"}

QUADRATURE = ("geometry.interior_integral", "geometry.boundary_integral",
              "geometry.geometric_coefficients")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int | None
    error: str | None = None


@dataclass
class PassRecord:
    """Counters gathered while one traced pass ran."""

    counts: dict = field(default_factory=lambda: defaultdict(float))
    maxima: dict = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.counts[name] += float(value)

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, -math.inf), float(value))


class Tracer:
    """Span recorder; ``installed()`` patches the package for one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.records: dict[int, PassRecord] = {}
        self._stack: list[int] = []
        self._pass_id: int | None = None

    # -- spans ------------------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self._pass_id = pass_id
        self.records[pass_id] = PassRecord()

    def end_pass(self) -> None:
        self._pass_id = None

    @property
    def record(self) -> PassRecord:
        return self.records[self._pass_id]

    def profile(self, pass_id: int, wall: float):
        """``pass_profile`` of one traced pass that took ``wall`` seconds."""
        spans = [s for s in self.spans if s.pass_id == pass_id]
        return pass_profile(spans, self.records[pass_id], wall)

    def call(self, name: str, fn, args, kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(span_id, name, 0.0, 0.0, parent, self._pass_id)
        self.spans.append(span)
        self._stack.append(span_id)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            stage = getattr(exc, "stage", None)
            span.error = f"{type(exc).__name__}" + (f"[{stage}]" if stage else "")
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)
        counter = INTEGRAND_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                args = (_counting(tracer, counter, args[0]),) + args[1:]
            out = tracer.call(name, fn, args, kwargs)
            if observe is not None:
                observe(tracer.record, fn, args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place inside the block, originals restored on exit."""
        undo = []

        def put(owner, attr: str, value) -> None:
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) \
                        and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        try:
            for name, ns in sorted(sys.modules.items()):
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for attr, obj in list(vars(ns).items()):
                    if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                        put(ns, attr, wrapped[id(obj)][1])
            spsla = sys.modules["scipy.sparse.linalg"]
            put(spsla, "eigsh", self._wrap("spectrum.eigsh", spsla.eigsh))
            cls = sys.modules[PACKAGE].ScalarField
            for attr in SCALAR_FIELD_METHODS:
                raw = cls.__dict__[attr]
                name = f"fields.ScalarField.{attr}"
                put(cls, attr, classmethod(self._wrap(name, raw.__func__))
                    if isinstance(raw, classmethod) else self._wrap(name, raw))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _counting(tracer: Tracer, counter: str, integrand):
    def counted(x):
        tracer.record.add(counter, np.size(x))
        return integrand(x)
    return counted


# ---------------------------------------------------------------------------
# Work counters, read from arguments and return values
# ---------------------------------------------------------------------------

def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _on_assemble_fdm(rec, fn, args, kwargs, op):
    rec.add("spectrum.fdm.nodes", op.n_nodes)
    rec.add("spectrum.fdm.nnz", op.A.nnz)


def _on_solve_eigs(rec, fn, args, kwargs, ds):
    lam = ds.eigenvalues
    rec.add("spectrum.solve_eigs.k", lam.size)
    rec.add("spectrum.eigenvalues.computed", lam.size)
    rec.add("spectrum.eigenvalues.useful", np.count_nonzero(lam <= ds.completeness()))


def _on_analytic_spectrum(rec, fn, args, kwargs, spec):
    rec.add("spectrum.analytic_spectrum.eigenvalues", spec.count)


def _on_bessel_zeros(rec, fn, args, kwargs, zeros):
    rec.add("special.bessel_zeros_upto.zeros", np.size(zeros))


def _on_fit_expansion(rec, fn, args, kwargs, fit):
    rec.add("heattrace.fit_expansion.resamples", _bound(fn, args, kwargs)["bootstrap"])


def _on_bridge(rec, fn, args, kwargs, est):
    batch = sys.modules[f"{PACKAGE}.walker"]._BATCH
    rec.add("walker.bridges", est.n)
    rec.add("walker.batches", math.ceil(est.n / batch))
    rec.add("walker.surviving_weight", est.survival * est.n)


def _on_zeta_prime(rec, fn, args, kwargs, ev):
    rec.peak("zeta.budget_max", ev.error_budget["total"])


_OBSERVERS = {
    "spectrum.assemble_fdm": _on_assemble_fdm,
    "spectrum.solve_eigs": _on_solve_eigs,
    "spectrum.analytic_spectrum": _on_analytic_spectrum,
    "special.bessel_zeros_upto": _on_bessel_zeros,
    "heattrace.fit_expansion": _on_fit_expansion,
    "walker.bridge_trace_estimate": _on_bridge,
    "zeta.zeta_prime_at_zero": _on_zeta_prime,
}


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its child spans cover, by span id."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


# Spans whose self time, call count or counter is a per-layer metric as is.
SELF_TIMED = ("spectrum.eigsh", "spectrum.solve_eigs", "spectrum.assemble_fdm",
              "spectrum.analytic_spectrum", "special.bessel_zeros_upto",
              "special.tanh_sinh", "special.gauss_panels",
              "walker.bridge_trace_estimate", "heattrace.trace_curve",
              "heattrace.fit_expansion", "zeta.zeta_prime_at_zero",
              "anomaly.pa_verify", "anomaly.pa_rhs")
CALLED = ("spectrum.eigsh", "special.bessel_zeros_upto", "heattrace.fit_expansion",
          "zeta.zeta_prime_at_zero")
COUNTED = ("spectrum.solve_eigs.k", "spectrum.fdm.nodes", "spectrum.fdm.nnz",
           "spectrum.analytic_spectrum.eigenvalues", "special.bessel_zeros_upto.zeros",
           "special.tanh_sinh.nodes", "special.gauss_panels.nodes", "walker.bridges",
           "walker.batches", "heattrace.fit_expansion.resamples")


def pass_profile(spans: list[Span], record: PassRecord, wall: float):
    """Per-layer metrics of one traced pass (``PER_LAYER`` in run.py), and
    self time and call count by span name."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        self_s[s.name] += own[s.id]
        calls[s.name] += 1
    self_s, calls, c = dict(self_s), dict(calls), record.counts

    def group(prefixes) -> tuple[float, int]:
        names = [n for n in self_s if n.startswith(prefixes)]
        return sum(self_s[n] for n in names), sum(calls[n] for n in names)

    out = {f"{n}.self_s": self_s.get(n, 0.0) for n in SELF_TIMED}
    out.update({f"{n}.calls": calls.get(n, 0) for n in CALLED})
    out.update({n: c.get(n, 0.0) for n in COUNTED})
    computed = c.get("spectrum.eigenvalues.computed", 0.0)
    out["spectrum.useful_ratio"] = \
        c.get("spectrum.eigenvalues.useful", 0.0) / computed if computed else 0.0
    bridges, walker_s = out["walker.bridges"], out["walker.bridge_trace_estimate.self_s"]
    out["walker.bridges_per_s"] = bridges / walker_s if walker_s > 0 else 0.0
    out["walker.survival"] = \
        c.get("walker.surviving_weight", 0.0) / bridges if bridges else 0.0
    out["zeta.budget_max"] = record.maxima.get("zeta.budget_max", 0.0)
    out["geometry.quadrature.self_s"] = group(QUADRATURE)[0]
    out["fields.ScalarField.self_s"], out["fields.ScalarField.calls"] = \
        group("fields.ScalarField.")
    out["wedge.self_s"], out["wedge.calls"] = group("wedge.")
    out["trace.coverage"] = sum(s.end - s.start for s in spans if s.parent is None) / wall
    return out, self_s, calls
