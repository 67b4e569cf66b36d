"""Benchmark of the spectral_corner pipelines, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload {anomaly,slit-tip,closed-form} \\
        --seed N --seconds S --trace {0,1}

Load shape: a closed loop with one client.  Each pass is one whole pipeline
(see workloads.py) and starts when the previous one ends; passes repeat
until ``--seconds`` have elapsed, at least one.  Every pass uses the run's
seed, which feeds the eigensolver start vector, the sector fits' bootstrap
and the Philox Monte Carlo stream, and every pass result is checked against
its oracles.  BLAS runs single-threaded (set before numpy loads), so a
pass computes on one thread, never more than ``nproc``.

Untraced passes run under the host-speed probe (hostspeed.py), which times
a fixed reference kernel every 0.1 s of the pass; the probe's own time is
taken out of the pass's wall time.  ``wall_ref``, the end-to-end speed
metric, is the median over passes of wall time divided by the mean kernel
time sampled during the pass.  On a shared 2-vCPU Xeon host the median
raw wall time of the same code moved by up to 40% between runs, this ratio
by under 8%.  Raw wall times are still printed in the ``passes`` record.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes, reports the per-layer
metrics of the traced ones (medians over passes), the traced minus untraced
median wall time as ``trace.overhead_s``, and fails a traced pass whose
result differs in any bit from the untraced one.  Spans are written to
``.bench_out/trace-<workload>-seed<seed>.jsonl``.

Output: JSON records (environment, pass statistics, layer profile) and, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 1 when any pass failed, 2 when the package cannot be set up.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "spectral_corner"
OUT = ROOT / ".bench_out"

WORKLOADS = ("anomaly", "slit-tip", "closed-form")
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

# wall_ref: median over passes of the pass's wall time in units of the
# host-speed reference kernel sampled during it.  setup_s: median over SETUP_SAMPLES fresh
# interpreters of the time from start to domains built.  peak_rss_mb: this
# process's peak resident set.  oracle_err: the workload's headline accuracy
# figure (workloads.oracle_err).
END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB", "oracle_err": "1"}

PER_LAYER = {
    "spectrum.eigsh.self_s": "s", "spectrum.eigsh.calls": "count",
    "spectrum.solve_eigs.self_s": "s", "spectrum.solve_eigs.k": "count",
    "spectrum.assemble_fdm.self_s": "s", "spectrum.fdm.nodes": "count",
    "spectrum.fdm.nnz": "count", "spectrum.useful_ratio": "1",
    "spectrum.analytic_spectrum.self_s": "s",
    "spectrum.analytic_spectrum.eigenvalues": "count",
    "special.bessel_zeros_upto.self_s": "s",
    "special.bessel_zeros_upto.calls": "count",
    "special.bessel_zeros_upto.zeros": "count",
    "special.tanh_sinh.self_s": "s", "special.tanh_sinh.nodes": "count",
    "special.gauss_panels.self_s": "s", "special.gauss_panels.nodes": "count",
    "walker.bridge_trace_estimate.self_s": "s", "walker.bridges": "count",
    "walker.batches": "count", "walker.bridges_per_s": "1/s",
    "walker.survival": "1",
    "heattrace.trace_curve.self_s": "s", "heattrace.fit_expansion.self_s": "s",
    "heattrace.fit_expansion.calls": "count",
    "heattrace.fit_expansion.resamples": "count",
    "zeta.zeta_prime_at_zero.self_s": "s", "zeta.zeta_prime_at_zero.calls": "count",
    "zeta.budget_max": "1",
    "anomaly.pa_verify.self_s": "s", "anomaly.pa_rhs.self_s": "s",
    "geometry.quadrature.self_s": "s", "fields.ScalarField.self_s": "s",
    "fields.ScalarField.calls": "count", "wedge.self_s": "s", "wedge.calls": "count",
    "process.wall_s": "s", "process.ref_s": "s",
    "process.cpu_s": "s", "process.cpu_per_wall": "1",
    "trace.overhead_s": "s", "trace.coverage": "1",
}

class SetupError(RuntimeError):
    """The package or a workload's domains could not be set up."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def time_setup(workload: str, env: dict) -> float:
    """Seconds from starting a fresh interpreter to its domains being built."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            rest, _ = child.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise SetupError("set-up probe did not exit")
    if line.strip() != "ready" or child.returncode != 0:
        raise SetupError(f"set-up probe failed:\n{line}{rest}".rstrip())
    return elapsed


def environment(blas_threads: int, nproc: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "cpu": cpu,
            "blas_threads": blas_threads}


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    xs = sorted(values)
    rank = len(xs) - 10
    if rank < 1:
        return None
    return {"percentile": round(100 * rank / len(xs), 1), "value": xs[rank - 1]}


@dataclass
class Pass:
    """One pass: its outputs, its cost, and why it failed (empty if it passed).

    ``wall`` and ``cpu`` exclude the probe's ticks; ``ref`` is the mean
    reference-kernel time sampled during the pass, None when unprobed.
    """

    traced: bool
    result: dict | None
    wall: float
    cpu: float
    reasons: list[str]
    ref: float | None = None


def run_pass(work, ctx, seed: int, check, traced: bool = False,
             probe=None) -> Pass:
    """Time one pass, under ``probe`` if given, and check its result; a
    raised error fails the pass."""
    result, reasons = None, None
    with probe.sampling() if probe else contextlib.nullcontext() as samples:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = work(ctx, seed)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            stage = getattr(exc, "stage", None)
            reasons = [type(exc).__name__ + (f" in stage {stage}" if stage else "")
                       + f": {exc}"]
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if samples is not None:
        wall -= samples.spent
        cpu -= samples.spent
    return Pass(traced, result, wall, cpu, check(result) if reasons is None else reasons,
                samples.mean() if samples is not None else None)


def bits(result: dict) -> dict:
    return {k: float(v).hex() for k, v in result.items()}


def measure(args, work, ctx, check, tracer, probe):
    """Closed loop for ``args.seconds``: passes, and per traced pass a profile."""
    passes, profiles = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        plain = run_pass(work, ctx, args.seed, check, probe=probe)
        passes.append(plain)
        if not args.trace:
            continue
        pass_id = len(passes)
        tracer.begin_pass(pass_id)
        with tracer.installed():
            traced = run_pass(work, ctx, args.seed, check, traced=True)
        tracer.end_pass()
        if traced.result is not None and plain.result is not None \
                and bits(traced.result) != bits(plain.result):
            traced.reasons.append("traced pass result differs from the untraced one")
        passes.append(traced)
        profiles.append(tracer.profile(pass_id, traced.wall))
    return passes, profiles


def layer_metrics(plain: list[Pass], traced: list[Pass], profiles) -> dict:
    """Per-layer metrics: medians over the traced passes of a trace run."""
    metrics = {name: statistics.median(p[name] for p, _, _ in profiles)
               for name in profiles[0][0]}
    wall = statistics.median(p.wall for p in plain)
    cpu = statistics.median(p.cpu for p in plain)
    metrics["process.wall_s"] = wall
    metrics["process.ref_s"] = statistics.median(p.ref for p in plain)
    metrics["process.cpu_s"] = cpu
    metrics["process.cpu_per_wall"] = cpu / wall
    metrics["trace.overhead_s"] = statistics.median(p.wall for p in traced) - wall
    return metrics


def run(args) -> int:
    nproc = len(os.sched_getaffinity(0))
    blas_threads = min(BLAS_THREADS, nproc)
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"package source not found under {SRC}")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup_s = [time_setup(args.workload, env) for _ in range(SETUP_SAMPLES)]

    sys.path.insert(0, str(SRC))
    import hostspeed
    import tracer as tracing
    import workloads
    package = sys.modules[PACKAGE]
    if Path(package.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SetupError(f"{PACKAGE} imported from {package.__file__}, not {SRC}")
    ctx = workloads.setup(args.workload)
    print(json.dumps({"record": "env", **environment(blas_threads, nproc)}), flush=True)

    tracer = tracing.Tracer()
    check = functools.partial(workloads.gate, args.workload)
    passes, profiles = measure(args, workloads.PASSES[args.workload], ctx, check,
                               tracer, hostspeed.HostProbe())

    plain = [p for p in passes if not p.traced]
    walls = [p.wall for p in plain]
    wall_refs = [p.wall / p.ref for p in plain]
    failures = [{"pass": i, "traced": p.traced, "reasons": p.reasons}
                for i, p in enumerate(passes) if p.reasons]
    good = [p.result for p in plain if not p.reasons]
    named = [workloads.accuracy(args.workload, r) for r in good]
    print(json.dumps({
        "record": "passes", "workload": args.workload, "seed": args.seed,
        "wall_s": {"median": statistics.median(walls), "tail": tail_percentile(walls),
                   "samples": len(walls), "passes": walls},
        "wall_ref": {"median": statistics.median(wall_refs),
                     "tail": tail_percentile(wall_refs), "samples": len(wall_refs)},
        "ref_s": statistics.median(p.ref for p in plain),
        "cpu_s": statistics.median(p.cpu for p in plain),
        "setup_s": setup_s,
        "fail_rate": {"failed": len(failures), "attempted": len(passes),
                      "value": len(failures) / len(passes)},
        "failures": failures,
        "accuracy": {k: {"value": statistics.median(a[k] for a in named), "unit": "1"}
                     for k in (named[0] if named else {})},
    }), flush=True)

    if args.trace:
        metrics = layer_metrics(plain, [p for p in passes if p.traced], profiles)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        names = sorted(set().union(*(own for _, own, _ in profiles)))
        print(json.dumps({
            "record": "layers",
            "self_s": {n: statistics.median(own.get(n, 0.0) for _, own, _ in profiles)
                       for n in names},
            "calls": profiles[-1][2],
            "errors": [{"span": s.name, "error": s.error, "pass": s.pass_id}
                       for s in tracer.spans if s.error],
            "trace_file": str(trace_file.relative_to(ROOT)),
        }), flush=True)
    else:
        metrics = {
            "wall_ref": statistics.median(wall_refs),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "oracle_err": statistics.median(workloads.oracle_err(args.workload, r)
                                            for r in good) if good else None,
        }
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not failures, "attempted": len(passes), "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }), flush=True)
    return 1 if failures else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except (SetupError, ImportError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
