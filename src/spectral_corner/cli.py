"""Command-line interface: deterministic artifacts for every pipeline stage.

Every artifact embeds the tool version and a SHA-256 hash of the fully
resolved input configuration (including the domain document), carries an
error field next to every reported number, and is byte-identical across
runs with the same configuration and seed.  Exit codes: 0 success, 2
invalid specification, 3 numerical failure (the failing stage is named in
the machine-readable error JSON on stderr).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import typing
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .anomaly import PipelineConfig, pa_verify
from .errors import NumericalError, SpecError
from .fields import as_field
from .geometry import (MetricSpec, _read_domain_doc, geometric_coefficients,
                       load_domain)
from .heattrace import (compare_expansion, default_window, fit_expansion,
                        trace_curve)
from .spectrum import spectrum_for
from .walker import bridge_trace_estimate
from .wedge import (WedgeBallQuery, a_remainder, a_remainder_bound,
                    wedge_ball_trace)
from .zeta import zeta_continued, zeta_prime_at_zero, zeta_series


@dataclass
class RunConfig:
    """Fully resolved invocation: one command plus every knob it reads."""

    command: str
    domain: Optional[str] = None
    sigma: Optional[str] = None
    u: float = 0.0
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    t_points: int = 25
    grid_h: float = 1 / 64
    eigs: int = 400
    seed: int = 0
    tol: Optional[float] = None
    out: Optional[str] = None
    format: str = "json"
    alpha: Optional[list[float]] = None
    eps: list[float] = field(default_factory=lambda: [1.0])
    t: list[float] = field(default_factory=lambda: [0.1])
    samples: int = 100000
    steps: int = 64
    s: list[float] = field(default_factory=lambda: [2.0])

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise SpecError(f"unknown command {self.command!r}")
        if self.format not in ("csv", "json"):
            raise SpecError(f"output format must be csv or json, got {self.format!r}")
        for name in ("u", "tol", "t_min", "t_max", "grid_h"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise SpecError(f"--{name.replace('_', '-')} must be finite")
        for name in ("tol", "t_min", "t_max", "grid_h"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise SpecError(f"--{name.replace('_', '-')} must be positive")
        for name in ("alpha", "eps", "t", "s"):
            if not all(math.isfinite(v) for v in getattr(self, name) or ()):
                raise SpecError(f"every --{name} value must be finite")
        if self.t_points < 1:
            raise SpecError("--t-points must be at least 1")
        window = self.t_min is not None
        if window != (self.t_max is not None):
            raise SpecError("--t-min and --t-max must be given together")
        if window and self.t_min == self.t_max and self.t_points > 1:
            raise SpecError(f"--t-points {self.t_points} needs --t-min below "
                            "--t-max, not equal to it")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _input_hash(config: dict) -> str:
    return hashlib.sha256(_canonical(config).encode()).hexdigest()


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def _emit(artifact: dict, rows, headers, args) -> None:
    if args.format == "json":
        text = json.dumps(artifact, sort_keys=True, indent=2,
                          default=_json_default) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["# version", artifact["version"]])
        w.writerow(["# input_hash", artifact["input_hash"]])
        w.writerow(headers)
        for row in rows:
            w.writerow([_cell(v) for v in row])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_domain_doc(args, config):
    """(domain, sigma) of --domain and --sigma; hashes the document into config."""
    if not args.domain:
        raise SpecError("--domain is required for this command")
    doc = _read_domain_doc(args.domain)
    config["domain_doc"] = doc
    domain, sigma = load_domain(doc)
    if args.sigma is not None:
        sigma = as_field(args.sigma)
    x, y = _interior_samples(domain)
    try:
        with np.errstate(all="ignore"):
            values = sigma(x, y)
    except SpecError as exc:
        # a function numpy cannot evaluate on arrays
        raise SpecError(f"sigma {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise SpecError(f"sigma {sigma!r} is not real and finite everywhere "
                        "inside the domain")
    return domain, sigma


def _interior_samples(domain, n: int = 24):
    """Cell midpoints of an n x n lattice inside the domain, as (x, y).

    Polygons use their sampling box; disks and sectors (cones included)
    use polar coordinates about the centre or apex.
    """
    s = (np.arange(n) + 0.5) / n
    if domain.vertices is not None:
        lo, span = domain.box
        x, y = np.meshgrid(lo[0] + s * span[0], lo[1] + s * span[1])
        pts = np.column_stack([x.ravel(), y.ravel()])
        pts = pts[domain.contains(pts)]
        return pts[:, 0], pts[:, 1]
    r, th = np.meshgrid(domain.params["R"] * s,
                        domain.params.get("alpha", 2.0) * np.pi * s)
    return (r * np.cos(th)).ravel(), (r * np.sin(th)).ravel()


def _spectrum(args, config):
    """(domain, metric, spectrum) of --domain, --sigma and --u, by spectrum_for."""
    domain, sigma = _load_domain_doc(args, config)
    metric = MetricSpec(sigma, args.u)
    return domain, metric, spectrum_for(domain, metric, args.eigs, args.grid_h,
                                        args.seed)


def _curve(args, config):
    """(domain, metric, heat trace) on --t-min..--t-max, else the default window."""
    domain, metric, spec = _spectrum(args, config)
    if args.t_min is not None:
        t = np.geomspace(args.t_min, args.t_max, args.t_points)
    else:
        t = default_window(spec, points=args.t_points)
    return domain, metric, trace_curve(spec, t)


def _cmd_spectrum(args, config):
    spec = _spectrum(args, config)[2]
    lam = spec.eigenvalues.tolist()
    artifact = {
        "result": {
            "eigenvalues": lam,
            "count": len(lam),
            "completeness": spec.completeness,
            "volume": spec.volume,
            "error": {"eigenvalues_complete_below": spec.completeness},
            "provenance": spec.provenance,
        }
    }
    rows = [(i + 1, v, spec.completeness) for i, v in enumerate(lam)]
    return artifact, rows, ["index", "eigenvalue", "complete_below"]


def _cmd_trace(args, config):
    curve = _curve(args, config)[2]
    artifact = {
        "result": {
            "t": curve.t.tolist(),
            "trace": curve.values.tolist(),
            "error": curve.errors.tolist(),
            "source": curve.source,
        }
    }
    rows = list(zip(curve.t.tolist(), curve.values.tolist(), curve.errors.tolist()))
    return artifact, rows, ["t", "trace", "error"]


def _cmd_fit(args, config):
    fit = fit_expansion(_curve(args, config)[2], "fit-all", seed=args.seed)
    half = {k: 0.5 * (v[1] - v[0]) for k, v in fit.confidence.items()}
    artifact = {
        "result": {
            "a_m1": fit.a_m1,
            "a_mhalf": fit.a_mhalf,
            "a_0": fit.a_0,
            "error": {"a_m1": half.get("1/t"), "a_mhalf": half.get("1/sqrt(t)"),
                      "a_0": half.get("1")},
            "remainder": fit.remainder,
            "window": list(fit.window),
            "residual_norm": fit.residual_norm,
        }
    }
    rows = [("a_m1", fit.a_m1, half.get("1/t")),
            ("a_mhalf", fit.a_mhalf, half.get("1/sqrt(t)")),
            ("a_0", fit.a_0, half.get("1"))]
    return artifact, rows, ["coefficient", "value", "error"]


def _cmd_compare(args, config):
    domain, metric, curve = _curve(args, config)
    tolerances = {"a_m1": args.tol, "a_mhalf": args.tol, "a_0": args.tol} \
        if args.tol else None
    report = compare_expansion(domain, metric, None, curve, tolerances)
    artifact = {"result": report}
    rows = [(name, r["predicted"], r["fitted"], r["abs_gap"], r["tolerance"],
             r["pass"]) for name, r in report["rows"].items()]
    return artifact, rows, ["coefficient", "predicted", "fitted", "abs_gap",
                            "tolerance", "pass"]


def _zeta_pipeline(args, config):
    domain, metric, spec = _spectrum(args, config)
    return spec, spec.trace, geometric_coefficients(domain, metric)


def _cmd_zeta(args, config):
    spec, provider, coeffs = _zeta_pipeline(args, config)
    rows = []
    for s in args.s:
        if provider.t_min == 0.0:
            val = zeta_continued(provider, coeffs, s)
            err = 1e-12
            route = "continued"
        else:
            val = zeta_series(spec, s, tol=args.tol or 1e-8)
            err = args.tol or 1e-8
            route = "series"
        rows.append((s, val, err, route))
    artifact = {"result": {"values": [
        {"s": s, "zeta": v, "error": e, "route": r} for s, v, e, r in rows]}}
    return artifact, rows, ["s", "zeta", "error", "route"]


def _cmd_zdet(args, config):
    spec, provider, coeffs = _zeta_pipeline(args, config)
    ev = zeta_prime_at_zero(provider, coeffs, tol=args.tol or 1e-6)
    artifact = {"result": {
        "zeta0": ev.zeta0,
        "zeta_prime0": ev.zeta_prime0,
        "zdet": ev.zdet,
        "log_zdet": -ev.zeta_prime0,
        "error": ev.error_budget,
        "details": ev.details,
    }}
    rows = [("zeta0", ev.zeta0, 0.0),
            ("zeta_prime0", ev.zeta_prime0, ev.error_budget["total"]),
            ("zdet", ev.zdet, ev.zdet * ev.error_budget["total"])]
    return artifact, rows, ["quantity", "value", "error"]


def _cmd_anomaly(args, config):
    domain, sigma = _load_domain_doc(args, config)
    cfg = PipelineConfig(h=args.grid_h, eigs=args.eigs, seed=args.seed)
    if args.tol:
        cfg.tolerance = args.tol
    report = pa_verify(domain, sigma, cfg)
    artifact = {"result": report.to_json_dict()}
    rows = [("lhs", report.lhs), ("rhs", report.rhs), ("gap", report.gap)] + \
        sorted(report.breakdown.items())
    return artifact, rows, ["term", "value"]


def _cmd_wedge(args, config):
    if not args.alpha:
        raise SpecError("--alpha is required for this command")
    rows = []
    for alpha in args.alpha:
        for eps in args.eps:
            for t in args.t:
                q = WedgeBallQuery(alpha, eps, t)
                a_val = a_remainder(q)
                bound = a_remainder_bound(q)
                rows.append((alpha, eps, t, wedge_ball_trace(q), a_val, bound,
                             abs(a_val) <= bound))
    artifact = {"result": {"rows": [
        {"alpha": r[0], "eps": r[1], "t": r[2], "trace": r[3],
         "a_remainder": r[4], "bound": r[5], "pass": r[6],
         "error": {"trace": 1e-12}} for r in rows]}}
    return artifact, rows, ["alpha", "eps", "t", "trace", "a_remainder",
                            "bound", "pass"]


def _cmd_mc(args, config):
    domain, sigma = _load_domain_doc(args, config)
    rows = []
    for t in args.t:
        est = bridge_trace_estimate(domain, t, args.samples, steps=args.steps,
                                    seed=args.seed)
        rows.append((t, est.estimate, est.stderr, est.n, est.steps, est.seed))
    artifact = {"result": {"rows": [
        {"t": r[0], "estimate": r[1], "error": r[2], "n": r[3],
         "steps": r[4], "seed": r[5]} for r in rows]}}
    return artifact, rows, ["t", "estimate", "stderr", "n", "steps", "seed"]


# The RunConfig fields each command reads, one flag each; every command also
# takes --out and --format.  A flag's type and default come from its field.
_SPECTRUM_FLAGS = ("domain", "sigma", "u", "grid_h", "eigs", "seed")
_TRACE_FLAGS = _SPECTRUM_FLAGS + ("t_min", "t_max", "t_points")
_COMMANDS = {
    "spectrum": (_cmd_spectrum, _SPECTRUM_FLAGS),
    "trace": (_cmd_trace, _TRACE_FLAGS),
    "fit": (_cmd_fit, _TRACE_FLAGS),
    "compare": (_cmd_compare, _TRACE_FLAGS + ("tol",)),
    "zeta": (_cmd_zeta, _SPECTRUM_FLAGS + ("tol", "s")),
    "zdet": (_cmd_zdet, _SPECTRUM_FLAGS + ("tol",)),
    "anomaly": (_cmd_anomaly, ("domain", "sigma", "grid_h", "eigs", "seed", "tol")),
    "wedge": (_cmd_wedge, ("alpha", "eps", "t")),
    "mc": (_cmd_mc, ("domain", "t", "samples", "steps", "seed")),
}
_HELP = {"domain": "path to a domain JSON document",
         "sigma": "conformal factor expression in x, y",
         "u": "metric e^{2 u sigma} g_0",
         "format": "csv or json",
         "alpha": "wedge angles in units of pi; required"}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as SpecError, so they exit 2 with JSON on stderr."""

    def error(self, message):
        raise SpecError(message)


def _add_flag(parser: argparse.ArgumentParser, f: dataclasses.Field, kind) -> None:
    """--name for RunConfig field f, of annotation kind, defaulting as f does."""
    if typing.get_origin(kind) is typing.Union:  # Optional[X]
        kind = typing.get_args(kind)[0]
    nargs = None
    if typing.get_origin(kind) is list:
        kind, nargs = typing.get_args(kind)[0], "+"
    default = f.default_factory() if f.default is dataclasses.MISSING else f.default
    parser.add_argument("--" + f.name.replace("_", "-"), type=kind, nargs=nargs,
                        default=default,
                        help=_HELP.get(f.name, "") + " (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="spectral-corner",
        description="Heat traces, zeta determinants, and conformal anomalies "
                    "on polygonal domains with corners and slits.")
    sub = p.add_subparsers(dest="command", required=True)
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    hints = typing.get_type_hints(RunConfig)
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        for flag in (*flags, "out", "format"):
            _add_flag(sp, fields[flag], hints[flag])
    return p


def run(config: RunConfig) -> int:
    """Execute one command; write artifacts; return the process exit code."""
    hashed = {k: v for k, v in sorted(dataclasses.asdict(config).items())
              if k not in ("out",) and v is not None}
    # warnings go into the error document, so stderr stays one JSON document
    with warnings.catch_warnings(record=True) as caught:
        try:
            artifact, rows, headers = _COMMANDS[config.command][0](config, hashed)
        except (SpecError, FileNotFoundError) as exc:
            return _fail(2, {"kind": "spec", "message": str(exc)}, caught)
        except NumericalError as exc:
            return _fail(3, {"kind": "numerical", "stage": exc.stage,
                             "message": str(exc)}, caught)
    artifact["version"] = __version__
    artifact["command"] = config.command
    artifact["input_hash"] = _input_hash(hashed)
    _emit(artifact, rows, headers, config)
    return 0


def main(argv=None) -> int:
    try:
        config = RunConfig(**vars(build_parser().parse_args(argv)))
    except SpecError as exc:
        return _fail(2, {"kind": "spec", "message": str(exc)})
    return run(config)


def _fail(code: int, error: dict, caught=()) -> int:
    """Write the error, with any warnings caught, as JSON to stderr."""
    messages = list(dict.fromkeys(str(w.message) for w in caught))
    if messages:
        error["warnings"] = messages
    sys.stderr.write(json.dumps({"error": error}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
