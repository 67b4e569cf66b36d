"""Tests of the benchmark itself, not of the package.

Run from the repository root:  python3 -m pytest -q perfbench/selftest.py
(The file name keeps it out of the package's own test collection.)
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import spectral_corner as sc  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink the sizes that do not change which code paths a pass takes."""
    monkeypatch.setattr(workloads, "SECTOR_EIGS", 1000)
    monkeypatch.setattr(workloads, "MC_BRIDGES", 4000)


@pytest.mark.parametrize("name", ["closed-form", "slit-tip"])
def test_traced_pass_is_bit_identical_and_self_times_fit_the_wall(small, name):
    ctx = workloads.setup(name)
    bare = workloads.PASSES[name](ctx, 5)
    probed = run.run_pass(workloads.PASSES[name], ctx, 5,
                          lambda r: workloads.gate(name, r), probe=hostspeed.HostProbe())
    assert probed.reasons == [] and probed.ref > 0
    assert run.bits(probed.result) == run.bits(bare)
    originals = {k: getattr(sc, k) for k in dir(sc) if callable(getattr(sc, k))}

    tracer = tracing.Tracer()
    tracer.begin_pass(1)
    with tracer.installed():
        assert sc.analytic_spectrum is not originals["analytic_spectrum"]
        traced = run.run_pass(workloads.PASSES[name], ctx, 5,
                              lambda r: workloads.gate(name, r))
    tracer.end_pass()

    assert traced.reasons == []
    assert run.bits(traced.result) == run.bits(bare)
    wall = traced.wall
    assert all(getattr(sc, k) is v for k, v in originals.items())
    own = tracing.self_times(tracer.spans)
    assert min(own.values()) >= 0.0
    assert sum(own.values()) <= wall
    profile, _, _ = tracer.profile(1, wall)
    assert profile["trace.coverage"] <= 1.0
    if name == "slit-tip":
        assert profile["spectrum.eigsh.calls"] == 2
        assert profile["walker.bridges"] == 4000
        assert profile["spectrum.solve_eigs.k"] == 2 * workloads.SLIT_K
    else:
        assert profile["special.bessel_zeros_upto.calls"] > 0
        assert profile["spectrum.eigsh.calls"] == 0


def _valid(name: str) -> dict:
    """Pass results at the values the pipelines reach, inside every gate."""
    if name == "anomaly":
        return {"lhs": 0.0179, "rhs": workloads.ANOMALY_RHS, "rel_gap": 0.304,
                "zeta_budget_u0": 1e-13, "zeta_budget_u1": 5e-3}
    if name == "slit-tip":
        return {"a0_fitted": workloads.SLIT_A0 + 0.0415,
                "a0_predicted": workloads.SLIT_A0, "mc_reference": 0.3334,
                "mc_estimate": 0.3334 + 0.0016, "mc_stderr": 0.0016,
                "mc_survival": 0.02}
    r = {f"sector_a0[{a}]": workloads.sector_a0(a) + 4e-4
         for a in workloads.SECTOR_ALPHAS}
    for s in workloads.ZETA_S:
        r[f"zeta_continued[{s}]"] = r[f"zeta_series[{s}]"] = 1.0 / s
    r["zeta_prime0"] = workloads.SQUARE_ZETA_PRIME0
    for a in workloads.WEDGE_ALPHAS:
        for e in workloads.WEDGE_EPS:
            for t in workloads.WEDGE_T:
                r[f"wedge_A[{a},{e},{t}]"] = -1e-5
                r[f"wedge_bound[{a},{e},{t}]"] = 2e-5
    return r


PERTURBATIONS = [
    ("anomaly", "rhs", lambda r: r["rhs"] + 2 * workloads.ANOMALY_RHS_TOL),
    ("anomaly", "lhs", lambda r: math.nan),
    ("slit-tip", "a0_fitted", lambda r: workloads.SLIT_A0 - 0.06),
    ("slit-tip", "a0_predicted", lambda r: r["a0_predicted"] + 1e-9),
    ("slit-tip", "mc_estimate", lambda r: r["mc_reference"] + 5.01 * r["mc_stderr"]),
    ("closed-form", "sector_a0[1.5]", lambda r: workloads.sector_a0(1.5) + 0.011),
    ("closed-form", "zeta_continued[2.0]", lambda r: r["zeta_series[2.0]"] + 2e-6),
    ("closed-form", "zeta_prime0", lambda r: r["zeta_prime0"] - 2e-6),
    ("closed-form", "wedge_A[0.3,0.5,0.1]", lambda r: 3e-5),
]


@pytest.mark.parametrize("name,key,perturb", PERTURBATIONS)
def test_each_gate_trips_on_a_perturbed_result(name, key, perturb):
    r = _valid(name)
    assert workloads.gate(name, r) == []
    r[key] = perturb(r)
    assert workloads.gate(name, r)


def test_benchmark_json_matches_the_runner():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_probe_samples_on_its_timer_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.HostProbe()
    with probe.sampling() as samples:
        deadline = time.perf_counter() + 5 * hostspeed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(samples.times) >= 4
    assert samples.spent >= sum(samples.times[1:]) > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(20))) == {"percentile": 50.0, "value": 9}
    assert run.tail_percentile(list(range(100)))["percentile"] == 90.0


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "closed-form", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode not in (0, 1)
    assert proc.stdout == ""
