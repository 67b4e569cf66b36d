import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_corner
from spectral_corner import (MetricSpec, ScalarField, SpecError, as_field,
                             assemble_fdm, geometric_coefficients, parallel)

from .conftest import SLIT_SQUARE_DOC


class TestScalarField:
    def test_values_and_derivatives(self):
        f = ScalarField("0.2*x*y + x**2")
        assert f(1.0, 2.0) == pytest.approx(1.4)
        assert f.dx(1.0, 2.0) == pytest.approx(0.4 + 2.0)
        assert f.dy(1.0, 2.0) == pytest.approx(0.2)
        assert f.grad_sq(1.0, 2.0) == pytest.approx(2.4 ** 2 + 0.2 ** 2)
        assert f.pos_laplacian(1.0, 2.0) == pytest.approx(-2.0)

    def test_normal_derivative(self):
        f = ScalarField("x*y")
        assert f.normal_derivative(0.5, 1.0, 0.0, 1.0) == pytest.approx(0.5)

    def test_vectorized_broadcasting(self):
        f = ScalarField("x + 2*y")
        x = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(f(x, 1.0), x + 2.0)
        np.testing.assert_allclose(f.dx(x, 0.0), np.ones(3))

    def test_constant_broadcasts(self):
        c = ScalarField.constant(0.7)
        np.testing.assert_allclose(c(np.zeros(4), np.ones(4)), 0.7)
        assert c.is_constant() and not c.is_zero()
        assert ScalarField.constant(0.0).is_zero()
        assert not ScalarField("x").is_constant()

    def test_constants_evaluate_to_exactly_their_input(self):
        for c in (1 / 3, math.exp(0.3), 0.1 + 0.2):
            for f in (ScalarField.constant(c), as_field(c)):
                assert f(np.zeros(3), 0.0).tolist() == [c] * 3
        assert ScalarField("0.1")(0.0, 0.0) == 0.1

    def test_constant_derivatives_are_positive_zero(self):
        c = as_field(np.float64(0.7))
        x = np.linspace(0.0, 1.0, 4)
        for d in (c.dx(x, 0.5), c.dy(x, 0.5), c.grad_sq(x, 0.5),
                  c.normal_derivative(x, 0.5, 1.0, 0.0)):
            assert d.shape == (4,) and not np.any(d)
        assert all(math.copysign(1.0, v) == -1.0 for v in c.pos_laplacian(x, 0.5))

    def test_constant_repr_is_the_sympy_form(self):
        assert repr(ScalarField.constant(0.7)) == "ScalarField(0.700000000000000)"
        assert repr(as_field(None)) == "ScalarField(0.0)"
        assert repr(ScalarField("2")) == "ScalarField(2)"
        assert str(ScalarField(1 / 3).expr) == "0.333333333333333"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1e400",
                                     "nan", "-inf", 10**400, True],
                             ids=["nan", "inf", "-inf", "'1e400'", "'nan'",
                                  "'-inf'", "10**400", "True"])
    def test_rejects_non_finite_constants(self, bad):
        with pytest.raises(SpecError):
            ScalarField(bad)

    def test_rejects_bad_expressions(self):
        with pytest.raises(SpecError):
            ScalarField("x + unknown_symbol")
        with pytest.raises(SpecError):
            ScalarField("x +* y")

    @pytest.mark.parametrize("expr", ["zeta(x)", "besselj(0, x)",
                                      "factorial(x)", "gamma(x)"])
    def test_expression_numpy_cannot_evaluate_raises_spec_error(self, expr,
                                                                square):
        # sympy parses these, but numpy has no array form of the function
        metric = MetricSpec(ScalarField(expr), 1.0)
        with pytest.raises(SpecError, match=r"ScalarField\(.*\) cannot be evaluated"):
            assemble_fdm(square, metric, h=1 / 8)
        with pytest.raises(SpecError, match=r"ScalarField\(.*\) cannot be evaluated"):
            geometric_coefficients(square, metric)

    def test_derivative_numpy_cannot_evaluate_raises_spec_error(self, square):
        # |x - 1/2| evaluates, but its derivatives do not
        metric = MetricSpec(ScalarField("Abs(x - 0.5)"), 1.0)
        assemble_fdm(square, metric, h=1 / 8)
        with pytest.raises(SpecError, match=r"ScalarField\(Abs\(x - 0.5\)\) \((dx|lap)\)"):
            geometric_coefficients(square, metric)

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(-2, 2),
           x=st.floats(-1, 1), y=st.floats(-1, 1))
    def test_quadratic_derivatives_closed_form(self, a, b, c, x, y):
        f = ScalarField(f"({a})*x**2 + ({b})*x*y + ({c})*y**2")
        assert f.dx(x, y) == pytest.approx(2 * a * x + b * y, abs=1e-9)
        assert f.dy(x, y) == pytest.approx(b * x + 2 * c * y, abs=1e-9)
        assert f.pos_laplacian(x, y) == pytest.approx(-2 * a - 2 * c, abs=1e-9)


class TestAsField:
    def test_coercions(self):
        assert as_field(None).is_zero()
        assert as_field(1.5)(0.0, 0.0) == pytest.approx(1.5)
        f = as_field("x - y")
        assert as_field(f) is f


class TestImport:
    def test_package_leaves_scipy_interpolate_unloaded(self):
        # a fresh process, so no other test has loaded it already
        src = str(Path(spectral_corner.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, spectral_corner; "
             "print('scipy.interpolate' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_flat_pipelines_leave_sympy_unloaded(self, tmp_path):
        # one fresh process runs each flat pipeline in turn, then a symbolic
        # field; it prints whether sympy is loaded after each step
        src = str(Path(spectral_corner.__file__).resolve().parents[1])
        rect = tmp_path / "rect.json"
        rect.write_text(json.dumps({"kind": "rectangle",
                                    "params": {"a": 1.0, "b": 2.0}}))
        script = textwrap.dedent(f"""
            import contextlib, io, sys
            def loaded():
                print("sympy" in sys.modules)
            import spectral_corner as sc
            loaded()
            from spectral_corner import cli
            slit = sc.build_domain({SLIT_SQUARE_DOC!r})
            spec = sc.richardson_spectrum(slit, None, 1 / 16, 150, seed=0)
            lo = max(spec.window_floor, spec.trace.t_min)
            curve = sc.trace_curve(spec, [lo * 10 ** (i / 8) for i in range(9)])
            sc.compare_expansion(slit, None, None, curve)
            loaded()
            sector = sc.build_domain({{"kind": "sector",
                                       "params": {{"alpha": 1.5, "R": 1.0}}}})
            sc.analytic_spectrum(sector, 200)
            sc.geometric_coefficients(sector)
            loaded()
            disk = sc.build_domain({{"kind": "disk", "params": {{"R": 1.0}}}})
            sc.pa_verify(disk, 0.3, sc.PipelineConfig(check_differentiated=False))
            loaded()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["spectrum", "--domain", {str(rect)!r},
                                 "--eigs", "10"])
            assert code == 0, code
            loaded()
            sc.ScalarField("0.2*x*y")
            loaded()
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"] * 5 + ["True"]


def _fresh(script: str, **env) -> str:
    """stdout of `script` run in a fresh interpreter on this package.

    env sets variables of the child; a value of None unsets one.
    """
    child = dict(os.environ,
                 PYTHONPATH=str(Path(spectral_corner.__file__).resolve().parents[1]))
    for name, value in env.items():
        child.pop(name, None)
        if value is not None:
            child[name] = value
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, timeout=300, env=child)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestScipyLoading:
    """scipy loads on the first computation that calls it, and a caller of
    ``parallel`` loads what its work uses before it forks or pins BLAS."""

    def test_scipy_free_steps_leave_scipy_unloaded(self, tmp_path):
        # one fresh process takes each step in turn, then one that needs
        # scipy; it prints whether any scipy module is loaded after each
        rect = tmp_path / "rect.json"
        rect.write_text(json.dumps({"kind": "rectangle",
                                    "params": {"a": 1.0, "b": 2.0}}))
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        out = _fresh(f"""
            import contextlib, io, sys
            def loaded():
                print(any(m.split(".")[0] == "scipy" for m in sys.modules))
            def cli(*argv):
                with contextlib.redirect_stdout(io.StringIO()), \\
                        contextlib.redirect_stderr(io.StringIO()):
                    return cli_mod.main(list(argv))
            import spectral_corner as sc
            from spectral_corner import cli as cli_mod
            loaded()
            sys.path.insert(0, {str(perfbench)!r})
            import workloads
            ctx = {{w: workloads.setup(w)
                   for w in ("anomaly", "slit-tip", "closed-form")}}
            loaded()
            square = ctx["anomaly"]["square"]
            for dom in (square, ctx["slit-tip"]["slit"],
                        *ctx["closed-form"]["sectors"].values()):
                sc.geometric_coefficients(dom)
            sc.pa_rhs(square, "0.2*x*y")
            loaded()
            sc.bridge_trace_estimate(ctx["slit-tip"]["slit"], 0.05, 2000,
                                     steps=16, seed=0)
            loaded()
            sc.a_remainder(sc.WedgeBallQuery(0.3, 1.0, 0.05))
            sc.a_remainder(sc.WedgeBallQuery(1.5, 1.0, 0.05))
            loaded()
            assert cli("mc", "--domain", {str(rect)!r}, "--samples", "500",
                       "--steps", "16") == 0
            assert cli("wedge", "--alpha", "0.5") == 0
            assert cli("trace", "--domain", {str(rect)!r},
                       "--t-min", "0.1", "--t-max", "0.05") == 2
            loaded()
            sc.analytic_spectrum(ctx["closed-form"]["sectors"][1.5], 50)
            loaded()
        """)
        assert out.split() == ["False"] * 6 + ["True"]

    @pytest.mark.parametrize("step", [
        "sc.analytic_spectrum(sc.build_domain({'kind': 'sector', "
        "'params': {'alpha': 1.5, 'R': 1.0}}), 4000)",
        f"sc.richardson_spectrum(sc.build_domain({SLIT_SQUARE_DOC!r}), None, "
        "1 / 16, 180)",
        f"sc.solve_eigs(sc.assemble_fdm(sc.build_domain({SLIT_SQUARE_DOC!r}), "
        "None, h=1 / 32), 100)",
    ], ids=["bessel", "all-dense", "sliced"])
    def test_scipy_is_loaded_before_any_fork_or_pin(self, step):
        # each fork_map and one_blas_thread the step enters, with the scipy
        # modules its work uses that were not loaded on entry
        out = _fresh(f"""
            import json, sys
            import spectral_corner as sc
            from spectral_corner import parallel, special, spectrum
            NEEDS = {{"special": ["scipy.special"],
                     "spectrum": ["scipy.linalg", "scipy.sparse.linalg"]}}
            entries = []
            def watch(owner, name, needs):
                inner = getattr(owner, name)
                def entered(*args, **kwargs):
                    entries.append([owner.__name__, name,
                                    [m for m in needs if m not in sys.modules]])
                    return inner(*args, **kwargs)
                setattr(owner, name, entered)
            watch(special, "fork_map", NEEDS["special"])
            for owner in (spectrum, parallel):
                watch(owner, "one_blas_thread", NEEDS["spectrum"])
            watch(spectrum, "fork_map", NEEDS["spectrum"])
            {step}
            print(json.dumps(entries))
        """)
        entries = json.loads(out)
        assert entries, "the step entered no fork_map or one_blas_thread"
        assert [entry for entry in entries if entry[2]] == []

    @pytest.mark.skipif(not parallel._openblas(), reason="no OpenBLAS loaded")
    def test_all_dense_pair_has_the_same_bytes_for_any_blas_threads(self):
        # the first dense eigh of a fresh process loads scipy.linalg; it is
        # loaded before the solve pins BLAS, so its OpenBLAS is pinned too
        script = f"""
            import spectral_corner as sc
            spec = sc.richardson_spectrum(sc.build_domain({SLIT_SQUARE_DOC!r}),
                                          None, 1 / 16, 180)
            print(spec.eigenvalues.tobytes().hex())
        """
        assert _fresh(script, OPENBLAS_NUM_THREADS="1") \
            == _fresh(script, OPENBLAS_NUM_THREADS=None)
