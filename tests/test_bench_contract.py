"""What the benchmark harness in ``perfbench/`` reads from the package.

The harness calls the package through ``spectral_corner.<name>`` and its
tracer reads a few attributes of arguments and results by name.  These
tests pin those names, so that a change to the package that would break
the benchmark fails here first.  The harness files are parsed, not
imported.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import spectral_corner as sc
from spectral_corner import walker

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _sc_calls(tree: ast.Module):
    """(attribute node, call node or None) for every ``sc.<name>`` use."""
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "sc":
            yield node, calls.get(id(node))


def _literal(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracer.py no longer assigns {name}")


class TestWorkloads:
    def test_workloads_use_the_package(self):
        names = {node.attr for node, _ in _sc_calls(_tree("workloads.py"))}
        assert "pa_verify" in names and "bridge_trace_estimate" in names

    def test_every_name_exists(self):
        missing = sorted({node.attr for node, _ in _sc_calls(_tree("workloads.py"))
                          if not hasattr(sc, node.attr)})
        assert missing == []

    def test_every_call_binds(self):
        for node, call in _sc_calls(_tree("workloads.py")):
            if call is None:
                continue
            assert not any(isinstance(a, ast.Starred) for a in call.args)
            sig = inspect.signature(getattr(sc, node.attr))
            sig.bind(*call.args, **{k.arg: k.value for k in call.keywords})


class TestTracer:
    def test_layers_and_field_methods_exist(self):
        tree = _tree("tracer.py")
        for layer in _literal(tree, "LAYERS"):
            assert inspect.ismodule(getattr(sc, layer))
        for attr in _literal(tree, "SCALAR_FIELD_METHODS"):
            assert attr in vars(sc.ScalarField)

    def test_observed_functions_exist(self):
        tree = _tree("tracer.py")
        names = set(_literal(tree, "QUADRATURE")) | set(_literal(tree, "SELF_TIMED"))
        names |= set(_literal(tree, "INTEGRAND_COUNTERS"))
        for name in sorted(names - {"spectrum.eigsh"}):
            layer, attr = name.split(".")
            assert inspect.isfunction(getattr(getattr(sc, layer), attr)), name

    def test_fit_expansion_binds_bootstrap_by_name(self):
        assert "bootstrap" in inspect.signature(sc.fit_expansion).parameters

    def test_fdm_and_solver_results(self, square):
        op = sc.assemble_fdm(square, None, h=1 / 8)
        assert isinstance(op.n_nodes, int) and op.n_nodes == 49
        assert op.A.nnz > 0
        ds = sc.solve_eigs(op, 5, seed=0)
        assert ds.eigenvalues.shape == (5,)
        assert np.count_nonzero(ds.eigenvalues <= ds.completeness()) >= 1

    def test_walker_batch_is_an_int(self):
        assert type(walker._BATCH) is int and walker._BATCH > 0
