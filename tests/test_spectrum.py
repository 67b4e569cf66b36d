import functools
import itertools
import math
import multiprocessing
import pickle
import threading

import numpy as np
import pytest
from scipy.special import jn_zeros

from spectral_corner import (MetricSpec, NumericalError, ScalarField,
                             SpecError, analytic_spectrum, assemble_fdm,
                             build_domain, richardson_spectrum, solve_eigs,
                             spectrum_for, weyl_ratio)
from spectral_corner import parallel
from spectral_corner import spectrum as spectrum_mod

from .conftest import BENT_SLIT_DOC, SLIT_SQUARE_DOC, make_sector
from .oracles import _bessel_zeros_upto as brentq_zeros_upto
from .oracles import l_shape_fdm, segments_cross_many, slit_square_odd_fdm


def fdm_square_eigenvalue(m, n, h):
    """Exact eigenvalue of the 5-point Dirichlet Laplacian on the unit square."""
    return (4 / h ** 2) * (math.sin(m * math.pi * h / 2) ** 2
                           + math.sin(n * math.pi * h / 2) ** 2)


class TestAnalyticSpectra:
    def test_square_modes(self, square):
        spec = analytic_spectrum(square, 12)
        pi2 = math.pi ** 2
        expected = pi2 * np.array([2, 5, 5, 8, 10, 10, 13, 13, 17, 17, 18, 20])
        assert spec.count >= 12
        np.testing.assert_allclose(spec.eigenvalues[:12], expected, rtol=1e-12)
        assert spec.provenance["source"] == "analytic"

    def test_disk_ground_state(self, disk):
        spec = analytic_spectrum(disk, 10)
        assert spec.eigenvalues[0] == pytest.approx(
            jn_zeros(0, 1)[0] ** 2, rel=1e-12)

    def test_disk_counts_order_zero_once_and_the_rest_twice(self):
        # cutoffs between j_{1,1} = 3.83 and j_{0,2} = 5.52 leave the one
        # nu = 0 zero and the nu = 1 zero ascending together
        for x_max in [*np.arange(2.0, 20.0, 0.1), 100.0]:
            got = spectrum_mod._bessel_eigs(1.0, x_max ** 2, None)
            x_max = math.sqrt(x_max ** 2)
            want = [brentq_zeros_upto(0.0, x_max)]
            for nu in range(1, math.floor(x_max) + 1):
                want += 2 * [brentq_zeros_upto(float(nu), x_max)]
            want = np.sort(np.concatenate(want) ** 2)
            assert got.size == want.size, x_max
            np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_cone_sector_ground_state(self):
        spec = analytic_spectrum(make_sector(3.0), 10)
        assert spec.eigenvalues[0] == pytest.approx(
            brentq_zeros_upto(1.0 / 3.0, 5.0)[0] ** 2, rel=1e-12)

    def test_analytic_spectrum_is_complete(self, square):
        spec = analytic_spectrum(square, 50)
        pi2 = math.pi ** 2
        top = int(math.sqrt(spec.completeness / pi2)) + 1
        brute = sorted(pi2 * (m * m + n * n)
                       for m in range(1, top + 1) for n in range(1, top + 1)
                       if pi2 * (m * m + n * n) <= spec.completeness)
        np.testing.assert_allclose(spec.eigenvalues, brute, rtol=1e-12)

    def test_weyl_ratio_tends_to_one(self, square, disk):
        for dom in (square, disk):
            spec = analytic_spectrum(dom, 20000)
            assert weyl_ratio(spec, 20000) == pytest.approx(1.0, abs=0.02)

    def test_dilation_scaling_exact(self, disk):
        base = analytic_spectrum(disk, 50).eigenvalues
        scaled = analytic_spectrum(disk.scaled(2.0), 50).eigenvalues
        np.testing.assert_allclose(scaled, base / 4.0, rtol=1e-12)

    def test_value_in_blocks_matches_one_piece_sum(self, disk, monkeypatch):
        spec = analytic_spectrum(disk, 997)
        lam = spec.eigenvalues
        t = np.geomspace(spec.t_min, 1.0, 50)
        one_piece = np.exp(-np.outer(t, lam)).sum(axis=1)
        # three rows of t per block: 17 blocks, the last one short
        monkeypatch.setattr(spectrum_mod, "_VALUE_BLOCK", 3 * lam.size + 5)
        assert spec.value(t).tobytes() == one_piece.tobytes()
        assert spec.value(t.reshape(5, 10)).tobytes() == one_piece.tobytes()
        assert spec.value(t[7]) == one_piece[7]


_ROUTE_DOMAINS = {
    "rectangle": {"kind": "rectangle", "params": {"a": 1.0, "b": 1.0}},
    "disk": {"kind": "disk", "params": {"R": 1.0}},
    "sector": {"kind": "sector", "params": {"alpha": 1.5, "R": 1.0}},
    "cone": {"kind": "sector", "params": {"alpha": 3.0, "R": 1.0}},
    "L-polygon": {"kind": "polygon", "params": {"vertices": [
        [0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.5, 0.5], [0.5, 1.0],
        [0.0, 1.0]]}},
    "slit-square": SLIT_SQUARE_DOC,
}


def _route(name, sigma, u):
    """The route spectrum_for must take: exact, closed-form, fdm or error."""
    if name in ("L-polygon", "slit-square"):
        return "fdm"
    if u != 0.0 and sigma == "0.2*x*y":
        return "fdm" if name == "rectangle" else "error"
    return "exact" if name == "rectangle" else "closed-form"


class TestSpectrumRoute:
    @pytest.mark.parametrize("u", [0.0, 1.0])
    @pytest.mark.parametrize("sigma", ["0", "0.3", "0.2*x*y"])
    @pytest.mark.parametrize("name", sorted(_ROUTE_DOMAINS))
    def test_route_table(self, name, sigma, u):
        domain = build_domain(_ROUTE_DOMAINS[name])
        metric = MetricSpec(ScalarField(sigma), u)
        expected = _route(name, sigma, u)
        if expected == "error":
            with pytest.raises(SpecError, match=f"kind '{domain.kind}'"):
                spectrum_for(domain, metric, 12, 1 / 8, 0)
            return
        spec = spectrum_for(domain, metric, 12, 1 / 8, 0)
        assert spec.count >= 12
        if expected == "exact":
            assert spec.trace is spec.exact and spec.trace.t_min == 0.0
        else:
            assert spec.exact is None
            assert spec.provenance["source"] == \
                {"closed-form": "analytic", "fdm": "discrete"}[expected]
        if sigma != "0.2*x*y":
            # g_u = e^{2uc} g_0: every eigenvalue scales by e^{-2uc}
            base = spectrum_for(domain, MetricSpec(ScalarField(sigma), 0.0),
                                12, 1 / 8, 0).eigenvalues[:12]
            np.testing.assert_allclose(
                spec.eigenvalues[:12], math.exp(-2 * u * float(sigma)) * base,
                rtol=1e-12)


class TestDiscreteOperator:
    # k = 150 spans several slicing windows and the square's degenerate
    # (m, n) / (n, m) pairs
    @pytest.mark.parametrize("k", [6, 150])
    def test_five_point_eigenvalues_exact(self, square, k):
        h = 1 / 32
        ds = solve_eigs(assemble_fdm(square, None, h=h), k, seed=0)
        expected = sorted(fdm_square_eigenvalue(m, n, h)
                          for m in range(1, 32) for n in range(1, 32))[:k]
        np.testing.assert_allclose(ds.eigenvalues, expected, rtol=1e-9)

    def test_completeness_convention(self, square):
        ds = solve_eigs(assemble_fdm(square, None, h=1 / 16), 20, seed=0)
        assert ds.completeness() == pytest.approx(0.8 * ds.eigenvalues[-1])

    def test_richardson_beats_single_grid(self, square):
        exact = math.pi ** 2 * 2
        h = 1 / 16
        coarse = solve_eigs(assemble_fdm(square, None, h=h), 3, seed=0)
        rich = richardson_spectrum(square, None, h, 3, seed=0)
        assert abs(rich.eigenvalues[0] - exact) \
            < 0.05 * abs(coarse.eigenvalues[0] - exact)

    def test_ground_state_drops_when_domain_grows(self, square):
        lam_small = solve_eigs(assemble_fdm(square, None, h=1 / 24), 1,
                               seed=0).eigenvalues[0]
        lam_big = solve_eigs(assemble_fdm(square.scaled(1.25), None, h=1 / 24),
                             1, seed=0).eigenvalues[0]
        assert lam_big < lam_small

    def test_constant_conformal_equivariance(self, square):
        c = 0.3
        flat = solve_eigs(assemble_fdm(square, None, h=1 / 16), 8, seed=0)
        shifted = solve_eigs(
            assemble_fdm(square, MetricSpec(ScalarField.constant(c), 1.0),
                         h=1 / 16), 8, seed=0)
        np.testing.assert_allclose(shifted.eigenvalues,
                                   math.exp(-2 * c) * flat.eigenvalues,
                                   rtol=1e-9)

    @pytest.mark.parametrize("sigma", ["sqrt(x-0.5)", "log(x-0.5)"])
    def test_non_real_or_vanishing_weight_is_rejected(self, square, sigma,
                                                      recwarn):
        # sqrt gives NaN weights left of x = 1/2, log a zero weight on it
        with pytest.raises(SpecError, match=r"sigma .*x - 0\.5"):
            assemble_fdm(square, MetricSpec(ScalarField(sigma), 1.0),
                         h=1 / 16)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("doc", [
        {"kind": "disk", "params": {"R": 1.0}},
        {"kind": "sector", "params": {"alpha": 1.5, "R": 1.0}},
        {"kind": "sector", "params": {"alpha": 3.0, "R": 1.0}},
    ], ids=["disk", "sector", "cone-sector"])
    def test_kinds_without_a_lattice_are_named(self, doc):
        with pytest.raises(SpecError,
                           match=f"FDM unsupported for kind '{doc['kind']}'"):
            assemble_fdm(build_domain(doc), None, h=1 / 8)

    def test_fdm_dilation_scaling(self, square):
        lam = solve_eigs(assemble_fdm(square, None, h=1 / 24), 4,
                         seed=0).eigenvalues
        lam_r = solve_eigs(assemble_fdm(square.scaled(2.0), None, h=1 / 12), 4,
                           seed=0).eigenvalues
        np.testing.assert_allclose(lam_r, lam / 4.0, rtol=1e-9)

    @staticmethod
    def _entries_across(op, p0, p1):
        """Off-diagonal entries of A joining nodes on two sides of [p0, p1]."""
        A = op.A.tocoo()
        off = A.row != A.col
        return int(segments_cross_many(op.nodes[A.row[off]], op.nodes[A.col[off]],
                                       p0, p1).sum())

    @pytest.mark.parametrize("h", [1 / 16, 1 / 32])
    def test_stencil_never_reaches_across_a_slit(self, square, bent_slit_square, h):
        # on the plain square, whose nodes on the diagonal stay, the stencil
        # crosses it; on the bent slit no entry joins the sides of a segment
        diagonal = bent_slit_square.slit_segments[1]
        assert self._entries_across(assemble_fdm(square, None, h=h), *diagonal) > 0
        op = assemble_fdm(bent_slit_square, None, h=h)
        for p0, p1 in bent_slit_square.slit_segments:
            assert self._entries_across(op, p0, p1) == 0

    # assembled anyway at h = 1/16, the slanted segment would have 8 entries
    # of A (4 node pairs) join its two sides; the vertex 4.8e-5 h off the
    # grid point (0.25, 0.75) would keep its nearly diagonal segment's
    # nodes, and 15 entries would join its sides
    @pytest.mark.parametrize("slit, match", [
        ([[0.5, 0.0], [0.75, 0.5]],
         r"slit segment \[0\.5, 0\.0\] -> \[0\.75, 0\.5\]"),
        ([[0.5, 0.0], [0.5, 0.5], [0.25, 0.750003]], "grid points"),
    ], ids=["slanted-segment", "vertex-near-grid-point"])
    def test_slits_the_stencil_cannot_separate_are_rejected(self, slit, match):
        doc = {"kind": "slit-polygon", "params": {
            "vertices": SLIT_SQUARE_DOC["params"]["vertices"], "slits": [slit]}}
        with pytest.raises(SpecError, match=match):
            assemble_fdm(build_domain(doc), None, h=1 / 16)

    def test_slit_splits_modes(self, square, slit_square):
        # the slit raises the ground state (Dirichlet on extra boundary)
        lam_sq = solve_eigs(assemble_fdm(square, None, h=1 / 32), 1,
                            seed=0).eigenvalues[0]
        lam_slit = solve_eigs(assemble_fdm(slit_square, None, h=1 / 32), 1,
                              seed=0).eigenvalues[0]
        assert lam_slit > lam_sq + 1.0


def _polygon(vertices):
    return {"kind": "polygon", "params": {"vertices": vertices}}


# [0,2]^2 minus [1,2]^2 and its images under the mirrors x -> 2 - x and
# y -> 2 - y, and both: each faces its re-entrant walls another way
L_VERTICES = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
L_ORIENTATIONS = {
    "L": lambda x, y: (x, y),
    "mirror-x": lambda x, y: (2 - x, y),
    "mirror-y": lambda x, y: (x, 2 - y),
    "turned-180": lambda x, y: (2 - x, 2 - y),
}


def _l_shape_fdm(orientation, h):
    mirror = L_ORIENTATIONS[orientation]
    doc = _polygon([list(mirror(x, y)) for x, y in L_VERTICES])
    return assemble_fdm(build_domain(doc), None, h=h)


@functools.cache
def _l_shape_eigenvalues(orientation, h, k=150):
    return solve_eigs(_l_shape_fdm(orientation, h), k, seed=0).eigenvalues


def _distance_to_segment(pts, a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ab = b - a
    s = np.clip((pts - a) @ ab / (ab @ ab), 0.0, 1.0)
    return np.hypot(*(pts - a - s[:, None] * ab).T)


class TestNodeRule:
    """An unknown is a lattice point inside the domain and on none of its
    walls, whichever side of a wall the interior lies."""

    @pytest.mark.parametrize("doc", [
        # notched from the top, notched from the right, the L mirrored in x
        _polygon([[0, 0], [3, 0], [3, 2], [2, 2], [2, 1], [1, 1], [1, 2], [0, 2]]),
        _polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [2, 2], [2, 3], [0, 3]]),
        _polygon([[0, 0], [2, 0], [2, 2], [1, 2], [1, 1], [0, 1]]),
        SLIT_SQUARE_DOC, BENT_SLIT_DOC,
    ], ids=["U", "C", "mirrored-L", "slit-square", "bent-slit"])
    def test_no_unknown_lies_on_a_wall(self, doc):
        domain = build_domain(doc)
        op = assemble_fdm(domain, None, h=1 / 8)
        for a, b in domain.walls:
            assert _distance_to_segment(op.nodes, a, b).min() > 1e-9

    @pytest.mark.parametrize("h", [1 / 16, 1 / 32], ids=["h=1/16", "h=1/32"])
    @pytest.mark.parametrize("orientation", list(L_ORIENTATIONS))
    def test_l_shape_contains_the_lattice_sines(self, orientation, h):
        lam = _l_shape_eigenvalues(orientation, h)
        family = l_shape_fdm(h)
        below = family[family <= lam[-1]]
        assert below.size > 20
        nearest = np.abs(lam[None, :] - below[:, None]).min(axis=1)
        assert np.max(nearest / below) <= 1e-12

    @pytest.mark.parametrize("orientation", list(L_ORIENTATIONS)[1:])
    def test_l_shape_operator_is_the_same_in_any_orientation(self, orientation):
        ref = _l_shape_fdm("L", 1 / 16)
        op = _l_shape_fdm(orientation, 1 / 16)
        # each mirror is its own inverse; the reference numbers x-major
        back = np.column_stack(L_ORIENTATIONS[orientation](*op.nodes.T))
        order = np.lexsort((back[:, 1], back[:, 0]))
        np.testing.assert_array_equal(back[order], ref.nodes)
        assert (op.A[order][:, order] != ref.A).nnz == 0

    @pytest.mark.parametrize("h", [1 / 16, 1 / 32], ids=["h=1/16", "h=1/32"])
    def test_l_shape_solves_the_same_in_any_orientation(self, h):
        # the operators are one matrix renumbered (test above); Lanczos on
        # the renumbered matrix rounds apart by up to 2.7e-12 of a mode at
        # h = 1/32, and dense eigh's lambda_1 differs from it by 8e-12
        ref = _l_shape_eigenvalues("L", h)
        for orientation in L_ORIENTATIONS:
            np.testing.assert_allclose(_l_shape_eigenvalues(orientation, h), ref,
                                       rtol=1e-11)


class TestSpectrumSlicing:
    """Windows certified by Sylvester inertia inside solve_eigs.

    The flat slit square is its own mirror image about x = 1/2, so it
    solves as two blocks; ``TestOneBlockSlicing`` runs every test again on
    an operator without a reflection.  At K = 100 these operators are small
    enough for the dense route, so every test here forces slicing.
    """

    K = 100  # two spans, four windows on the h = 1/16 slit square (n = 217)
    BLOCKS = 2

    @pytest.fixture(autouse=True)
    def sliced(self, monkeypatch):
        monkeypatch.setattr(spectrum_mod, "_DENSE_RATIO", 0)

    @pytest.fixture(scope="class")
    def slit_op(self, slit_square):
        return assemble_fdm(slit_square, None, h=1 / 16)

    def test_operator_blocks(self, slit_op):
        blocks = spectrum_mod._blocks(slit_op, slit_op.symmetrized().tocsc())
        assert len(blocks) == self.BLOCKS
        assert sum(B.shape[0] for B, _ in blocks) == slit_op.n_nodes

    def test_completeness_matches_dense_count(self, slit_op):
        ds = solve_eigs(slit_op, self.K, seed=0)
        dense = np.linalg.eigvalsh(slit_op.symmetrized().toarray())
        cut = ds.completeness()
        assert np.count_nonzero(ds.eigenvalues < cut) \
            == np.count_nonzero(dense < cut)
        np.testing.assert_allclose(ds.eigenvalues, dense[:self.K], rtol=1e-10)

    def test_uncertified_edge_names_stage(self, slit_op, monkeypatch):
        calls = []
        eigsh = spectrum_mod.spsla.eigsh

        def counted(*args, **kwargs):
            calls.append(kwargs["sigma"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spectrum_mod, "_shifted_lu", lambda B, mu: None)
        monkeypatch.setattr(spectrum_mod.spsla, "eigsh", counted)
        with pytest.raises(NumericalError) as info:
            solve_eigs(slit_op, self.K, seed=0)
        assert info.value.stage == "solve_eigs"
        assert "no inertia certificate at shift" in str(info.value)
        assert calls == []

    def test_nudged_edges_stay_certified(self, slit_op, monkeypatch):
        # every shift's first factorization of the last block fails, its
        # nudged retry succeeds; the other block is certified at both shifts
        shifted_lu = spectrum_mod._shifted_lu
        last = spectrum_mod._blocks(slit_op, slit_op.symmetrized().tocsc())[-1][0]
        calls = itertools.count()

        def every_other_fails(B, mu):
            if B.shape != last.shape:
                return shifted_lu(B, mu)
            return None if next(calls) % 2 == 0 else shifted_lu(B, mu)

        monkeypatch.setattr(spectrum_mod, "_shifted_lu", every_other_fails)
        nudged = solve_eigs(slit_op, self.K, seed=0).eigenvalues
        dense = np.linalg.eigvalsh(slit_op.symmetrized().toarray())
        np.testing.assert_allclose(nudged, dense[:self.K], rtol=1e-10)

    def test_same_seed_same_bits(self, slit_op):
        a = solve_eigs(slit_op, self.K, seed=3)
        b = solve_eigs(slit_op, self.K, seed=3)
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.spectrum().provenance == b.spectrum().provenance \
            == {"source": "discrete", "h": 1 / 16, "grid_nodes": slit_op.n_nodes,
                "u": slit_op.metric.u}

    def test_window_count_mismatch_names_stage(self, slit_op, monkeypatch):
        shifted_lu = spectrum_mod._shifted_lu

        def overcount(B, mu):
            lu, below = shifted_lu(B, mu)
            return lu, below + 1

        monkeypatch.setattr(spectrum_mod, "_shifted_lu", overcount)
        # the failing window runs in a worker wherever fork is available
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(spectrum_mod, "_POOL_NODES", 0)
        with pytest.raises(NumericalError) as info:
            solve_eigs(slit_op, self.K, seed=0)
        assert info.value.stage == "solve_eigs"
        assert "window [0, " in str(info.value)
        assert "inertia counts" in str(info.value) and "found" in str(info.value)


class TestOneBlockSlicing(TestSpectrumSlicing):
    """The same certificates on the slit square with sigma = 0.3 x, which no
    lattice reflection maps onto itself."""

    BLOCKS = 1

    @pytest.fixture(scope="class")
    def slit_op(self, slit_square):
        return assemble_fdm(slit_square, MetricSpec(ScalarField("0.3*x"), 1.0),
                            h=1 / 16)


# The slit square turned a quarter about its centre: the slit runs from
# (1, 1/2) to (1/2, 1/2), and the mirror is y -> 1 - y.
TURNED_SLIT_DOC = {"kind": "slit-polygon", "params": {
    "vertices": SLIT_SQUARE_DOC["params"]["vertices"],
    "slits": [[[1.0, 0.5], [0.5, 0.5]]]}}
UNIT_SQUARE_DOC = {"kind": "rectangle", "params": {"a": 1.0, "b": 1.0}}

# kind: (domain, sigma at u = 1, the mirror in coordinates)
_REFLECTIONS = {
    "x-mirror": (SLIT_SQUARE_DOC, None, lambda x, y: (1 - x, y)),
    "y-mirror": (TURNED_SLIT_DOC, None, lambda x, y: (x, 1 - y)),
    "diagonal": (UNIT_SQUARE_DOC, "0.2*x*y", lambda x, y: (y, x)),
    "anti-diagonal": (UNIT_SQUARE_DOC, "0.2*x*(1 - y)",
                      lambda x, y: (1 - y, 1 - x)),
}


def _metric(sigma):
    return None if sigma is None else MetricSpec(ScalarField(sigma), 1.0)


class TestReflections:
    """Operators a lattice reflection maps onto themselves solve as two blocks.

    At these sizes solve_eigs takes the dense route; ``TestSlicedReflections``
    runs every test again with slicing forced.
    """

    @pytest.mark.parametrize("kind", sorted(_REFLECTIONS))
    def test_blocks_match_the_dense_solve(self, kind):
        doc, sigma, mirror = _REFLECTIONS[kind]
        op = assemble_fdm(build_domain(doc), _metric(sigma), h=1 / 16)
        x, y = op.nodes.T
        np.testing.assert_allclose(op.nodes[op.reflection],
                                   np.column_stack(mirror(x, y)), atol=1e-12)
        assert len(spectrum_mod._blocks(op, op.symmetrized().tocsc())) == 2
        lam, vec = np.linalg.eigh(op.symmetrized().toarray())
        k = 100  # moved up to a gap, so no degenerate pair is cut in two
        while lam[k] - lam[k - 1] < 1e-8 * lam[k]:
            k += 1
        ds = solve_eigs(op, k, seed=0)
        np.testing.assert_allclose(ds.eigenvalues, lam[:k], rtol=1e-10)
        cut = ds.completeness()
        assert np.count_nonzero(ds.eigenvalues < cut) == np.count_nonzero(lam < cut)
        # unit in <phi, phi>_w, and the same weighted trace of an asymmetric
        # psi as the dense eigenvectors give
        np.testing.assert_allclose(op.w * op.h ** 2 @ ds.eigenvectors ** 2, 1.0,
                                   rtol=1e-12)
        t = 2 * spectrum_mod.TAIL_THRESHOLD / cut
        psi = 1 + x + 2 * y
        dense = np.exp(-t * lam[:k]) @ (psi @ vec[:, :k] ** 2)
        assert ds.weighted_trace("1 + x + 2*y", t) == pytest.approx(dense, rel=1e-10)

    @pytest.mark.parametrize("doc, sigma", [
        (SLIT_SQUARE_DOC, "0.3*x"),
        # asymmetric about the diagonal by ~1e-12, far above 8 eps
        (UNIT_SQUARE_DOC, "0.2*x*y + 1e-12*x"),
    ], ids=["slit-0.3x", "square-0.2xy+1e-12x"])
    def test_asymmetric_operators_keep_one_block(self, doc, sigma):
        metric = _metric(sigma)
        op = assemble_fdm(build_domain(doc), metric, h=1 / 16)
        assert op.reflection is None
        assert op.w.tobytes() == metric.weight(*op.nodes.T).tobytes()
        assert len(spectrum_mod._blocks(op, op.symmetrized().tocsc())) == 1

    @pytest.mark.parametrize("h", [1 / 32, 1 / 64])
    def test_weights_snap_to_exact_symmetry(self, square, h):
        metric = _metric("0.2*x*y")
        op = assemble_fdm(square, metric, h=h)
        raw = metric.weight(*op.nodes.T)
        P = op.reflection
        # (0.2 a) b and (0.2 b) a round apart at some mirrored pairs
        assert np.count_nonzero(raw != raw[P]) > 0
        assert np.array_equal(op.w, op.w[P])
        assert np.all(np.abs(op.w - raw) <= 8 * np.finfo(float).eps * raw)

    @pytest.mark.parametrize("h, k", [(1 / 16, 100), (1 / 32, 300)])
    def test_slit_square_odd_block_is_the_half_square(self, slit_square, h, k):
        # the modes odd about x = 1/2 are known exactly on the lattice
        op = assemble_fdm(slit_square, None, h=h)
        ds = solve_eigs(op, k, seed=0)
        family = slit_square_odd_fdm(h)
        below = family[family <= ds.eigenvalues[-1]]
        assert below.size > k // 4
        nearest = np.abs(ds.eigenvalues[None, :] - below[:, None]).min(axis=1)
        assert np.max(nearest / below) <= 1e-12
        # the odd block's inertia at the last certified edge counts the family
        blocks = spectrum_mod._blocks(op, op.symmetrized().tocsc())
        Bs = [B for B, _ in blocks]
        edge = max(hi for _, hi, _, _ in spectrum_mod._window_edges(
            Bs, k, op.volume))
        assert Bs[1].shape[0] == family.size
        _, odd_below = spectrum_mod._shifted_lu(Bs[1], edge)
        assert odd_below == np.count_nonzero(family < edge)


class TestSlicedReflections(TestReflections):
    """The same two-block checks on the sliced route."""

    @pytest.fixture(autouse=True)
    def sliced(self, monkeypatch):
        monkeypatch.setattr(spectrum_mod, "_DENSE_RATIO", 0)


def _solve_on_route(op, k):
    """solve_eigs(op, k) under the size rule, and the route it took."""
    taken = []
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in [("dense", spectrum_mod._dense_eigh),
                         ("sliced", spectrum_mod._sliced_eigsh)]:
            mp.setattr(spectrum_mod, fn.__name__,
                       lambda *a, fn=fn, name=name: taken.append(name) or fn(*a))
        ds = solve_eigs(op, k, seed=0)
    [name] = taken
    return ds, name


class TestDenseRoute:
    """Operators whose blocks are small for k take one dense eigh per block,
    and agree with the certified slicing they skip."""

    @pytest.mark.parametrize("doc, sigma, k", [
        (UNIT_SQUARE_DOC, "0.2*x*y", 516),  # the anomaly benchmark's coarse grid
        (SLIT_SQUARE_DOC, None, 400),  # the slit-tip benchmark's coarse grid
    ], ids=["square-0.2xy", "slit-square"])
    def test_agrees_with_slicing(self, doc, sigma, k, monkeypatch):
        op = assemble_fdm(build_domain(doc), _metric(sigma), h=1 / 32)
        dense, taken = _solve_on_route(op, k)
        assert taken == "dense"
        monkeypatch.setattr(spectrum_mod, "_DENSE_RATIO", 0)
        sliced = solve_eigs(op, k, seed=0)
        np.testing.assert_allclose(dense.eigenvalues, sliced.eigenvalues,
                                   rtol=1e-10)
        full = np.linalg.eigvalsh(op.symmetrized().toarray())
        for ds in (dense, sliced):
            cut = ds.completeness()
            assert np.count_nonzero(ds.eigenvalues < cut) \
                == np.count_nonzero(full < cut)
            np.testing.assert_allclose(op.w * op.h ** 2 @ ds.eigenvectors ** 2,
                                       1.0, rtol=1e-12)
        t = 2 * spectrum_mod.TAIL_THRESHOLD / dense.completeness()
        assert dense.weighted_trace("1 + x + 2*y", t) == pytest.approx(
            sliced.weighted_trace("1 + x + 2*y", t), rel=1e-10)

    def test_size_rule_picks_the_route(self, slit_square):
        # the h = 1/32 slit square's taller block has n_b = 480 nodes
        op = assemble_fdm(slit_square, None, h=1 / 32)
        n_b = max(B.shape[0] for B, _ in
                  spectrum_mod._blocks(op, op.symmetrized().tocsc()))
        k = math.ceil(n_b ** 2 / spectrum_mod._DENSE_RATIO)
        assert n_b ** 2 <= spectrum_mod._DENSE_RATIO * k
        assert _solve_on_route(op, k)[1] == "dense"
        assert _solve_on_route(op, k - 1)[1] == "sliced"

    @pytest.mark.parametrize("ratio", [math.inf, 0], ids=["dense", "sliced"])
    def test_l_shape_contains_the_lattice_sines(self, ratio, monkeypatch):
        monkeypatch.setattr(spectrum_mod, "_DENSE_RATIO", ratio)
        h = 1 / 16
        lam = solve_eigs(_l_shape_fdm("L", h), 150, seed=0).eigenvalues
        family = l_shape_fdm(h)
        below = family[family <= lam[-1]]
        assert below.size > 20
        nearest = np.abs(lam[None, :] - below[:, None]).min(axis=1)
        assert np.max(nearest / below) <= 1e-12


def _eigenpair_bytes(op, k):
    ds = solve_eigs(op, k, seed=0)
    return ds.eigenvalues.tobytes(), ds.eigenvectors.tobytes()


def _solve_in_daemon(op, k, queue):
    try:
        queue.put((parallel._pool_size(3), _eigenpair_bytes(op, k)))
    except Exception as exc:  # report it, or the caller waits out its timeout
        queue.put((None, repr(exc)))


_FORK = "fork" in multiprocessing.get_all_start_methods()


class TestParallelWindows:
    """The windows run on a forked pool with the same bits for any worker count."""

    @pytest.fixture(scope="class")
    def ops(self, slit_square):
        # the flat slit square solves as two blocks, with sigma = 0.3 x as one
        one_block = MetricSpec(ScalarField("0.3*x"), 1.0)
        return {(k, blocks): assemble_fdm(slit_square,
                                          None if blocks == 2 else one_block,
                                          h=1 / 16 if k == 100 else 1 / 32)
                for k in (100, 517) for blocks in (1, 2)}

    @staticmethod
    def _windows(op, k):
        blocks = spectrum_mod._blocks(op, op.symmetrized().tocsc())
        return spectrum_mod._window_edges([B for B, _ in blocks], k, op.volume)

    def test_window_counts(self, ops):
        # (lo, hi, m, block): two blocks share two spans at k = 100 (four
        # windows) and eight at k = 517 (sixteen); one block has three and
        # eleven windows
        expected = {(100, 2): (2, 4), (517, 2): (8, 16),
                    (100, 1): (3, 3), (517, 1): (11, 11)}
        for key, op in ops.items():
            windows = self._windows(op, key[0])
            spans = {(lo, hi) for lo, hi, _, _ in windows}
            assert (len(spans), len(windows)) == expected[key]
            assert {b for *_, b in windows} == set(range(key[1]))

    @pytest.mark.parametrize("k, blocks", [(100, 2), (517, 2), (100, 1), (517, 1)],
                             ids=["100", "517", "100-one-block", "517-one-block"])
    def test_same_bits_for_any_worker_count(self, ops, k, blocks, monkeypatch):
        # the small operator too goes to the pool here, and no operator to
        # the dense route
        monkeypatch.setattr(spectrum_mod, "_POOL_NODES", 0)
        monkeypatch.setattr(spectrum_mod, "_DENSE_RATIO", 0)
        got = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: workers)
            got.append(_eigenpair_bytes(ops[k, blocks], k))
        assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize("k", [100, 517])
    def test_small_operators_solve_in_the_caller(self, ops, k, monkeypatch):
        pooled = []

        def fork_map(fn, job, count, stage):
            pooled.append(count)
            return [fn(job, i) for i in range(count)]

        monkeypatch.setattr(spectrum_mod, "fork_map", fork_map)
        op = ops[k, 2]
        # at these k both operators take the dense route, which never forks
        _eigenpair_bytes(op, k)
        assert pooled == []
        monkeypatch.setattr(spectrum_mod, "_DENSE_RATIO", 0)
        _eigenpair_bytes(op, k)
        # sliced, n = 217 at k = 100 stays in the caller; n = 945 goes to
        # the pool, all sixteen windows of both blocks in one map
        assert (op.n_nodes < spectrum_mod._POOL_NODES) == (k == 100)
        assert pooled == ([] if k == 100 else [16])

    @pytest.mark.skipif(not _FORK, reason="needs the fork start method")
    def test_daemonic_caller_runs_serially(self, ops, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(spectrum_mod, "_POOL_NODES", 0)
        monkeypatch.setattr(spectrum_mod, "_DENSE_RATIO", 0)
        ref = _eigenpair_bytes(ops[100, 2], 100)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=_solve_in_daemon,
                           args=(ops[100, 2], 100, queue), daemon=True)
        proc.start()
        workers, got = queue.get(timeout=120)
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert workers == 1
        assert got == ref

    def test_threaded_caller_runs_serially(self, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        assert parallel._pool_size(3) == (2 if _FORK else 1)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            assert parallel._pool_size(3) == 1
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()

    def test_numerical_error_pickles(self):
        err = NumericalError("solve_eigs", "window [0, 1): no", best_estimate=2.5)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is NumericalError
        assert (back.stage, back.message, back.best_estimate, str(back)) \
            == ("solve_eigs", "window [0, 1): no", 2.5, str(err))
