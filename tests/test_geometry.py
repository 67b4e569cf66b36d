import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_corner import (MetricSpec, NumericalError, ScalarField, SpecError,
                             boundary_integral, build_domain, corner_term,
                             geometric_coefficients, interior_integral,
                             load_domain)

from .conftest import (BENT_SLIT_DOC, SLIT_SQUARE_DOC, make_sector,
                       riemann_interior)

L_DOC = {"kind": "polygon", "params": {
    "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}}


class TestCornerTerm:
    def test_reference_values(self):
        assert corner_term(1.0) == 0.0
        assert corner_term(0.5) == pytest.approx(1.0 / 16)
        assert corner_term(2.0) == pytest.approx(-1.0 / 16)

    def test_strictly_decreasing_on_grid(self):
        alphas = np.geomspace(0.05, 50.0, 200)
        vals = corner_term(alphas)
        assert np.all(np.diff(vals) < 0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), a=st.floats(0.05, 20.0))
    def test_strictly_decreasing_pairwise(self, data, a):
        # angles one ulp apart can round to the same corner term, so b is
        # drawn at a relative gap of at least 1e-9 from a
        b = data.draw(st.floats(0.05, 20.0).filter(
            lambda b: abs(b - a) >= 1e-9 * max(a, b)), label="b")
        lo, hi = min(a, b), max(a, b)
        assert corner_term(lo) > corner_term(hi)


class TestBuildDomain:
    def test_rectangle_and_disk_measures(self, square, disk):
        assert square.area == pytest.approx(1.0)
        assert square.perimeter == pytest.approx(4.0)
        assert len(square.corners) == 4
        assert all(c.alpha == pytest.approx(0.5) for c in square.corners)
        assert disk.area == pytest.approx(math.pi)
        assert disk.perimeter == pytest.approx(2 * math.pi)
        assert disk.corners == []

    def test_sector_measures(self):
        s = make_sector(3.0)
        assert s.area == pytest.approx(3 * math.pi / 2)
        assert s.perimeter == pytest.approx(2 + 3 * math.pi)
        assert sorted(c.alpha for c in s.corners) == pytest.approx([0.5, 0.5, 3.0])

    def test_l_shape_angles(self):
        verts = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
        dom = build_domain({"kind": "polygon", "params": {"vertices": verts}})
        assert dom.area == pytest.approx(3.0)
        alphas = sorted(c.alpha for c in dom.corners)
        assert alphas == pytest.approx([0.5] * 5 + [1.5])

    def test_slit_square_bookkeeping(self, slit_square):
        assert slit_square.area == pytest.approx(1.0)
        # both prime-end sides of the slit count toward the perimeter
        assert slit_square.perimeter == pytest.approx(5.0)
        alphas = sorted(c.alpha for c in slit_square.corners)
        assert alphas == pytest.approx([0.5] * 6 + [2.0])

    def test_slanted_slit_mouth_angles_sum_to_one(self):
        doc = {
            "kind": "slit-polygon",
            "params": {
                "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
                "slits": [[[0.4, 0.0], [0.6, 0.4]]],
            },
        }
        dom = build_domain(doc)
        mouths = [c.alpha for c in dom.corners
                  if np.allclose(c.location, (0.4, 0.0))]
        assert len(mouths) == 2
        assert sum(mouths) == pytest.approx(1.0, abs=1e-12)

    def test_slit_bend_adds_a_corner_on_each_side(self, bent_slit_square):
        bends = sorted(c.alpha for c in bent_slit_square.corners
                       if c.location == (0.5, 0.5))
        assert bends == pytest.approx([0.75, 1.25], abs=1e-14)
        assert len(bent_slit_square.corners) == 9

    def test_collinear_slit_point_adds_no_corner(self, slit_square):
        dom = build_domain({"kind": "slit-polygon", "params": {
            "vertices": SLIT_SQUARE_DOC["params"]["vertices"],
            "slits": [[[0.5, 0.0], [0.5, 0.25], [0.5, 0.5]]]}})
        assert [(c.location, c.alpha) for c in dom.corners] \
            == [(c.location, c.alpha) for c in slit_square.corners]
        assert len(dom.slit_segments) == 2

    def test_slit_folding_back_is_rejected(self):
        with pytest.raises(SpecError, match="folds back"):
            build_domain({"kind": "slit-polygon", "params": {
                "vertices": SLIT_SQUARE_DOC["params"]["vertices"],
                "slits": [[[0.5, 0.0], [0.5, 0.5], [0.5, 0.25]]]}})

    @pytest.mark.parametrize("slits", [
        # crosses its own first segment at (0.5, 0.25)
        [[[0.5, 0.0], [0.5, 0.5], [0.25, 0.25], [0.75, 0.25]]],
        # two slits that cross at (0.5, 0.25)
        [[[0.5, 0.0], [0.5, 0.5]], [[0.0, 0.25], [0.75, 0.25]]],
        # the second slit's tip ends on the first slit, from either side
        [[[0.5, 0.0], [0.5, 0.5]], [[0.0, 0.25], [0.5, 0.25]]],
        [[[0.5, 0.0], [0.5, 0.5]], [[1.0, 0.25], [0.5, 0.25]]],
        # two slits on one line that overlap
        [[[0.5, 0.0], [0.5, 0.5]], [[0.5, 1.0], [0.5, 0.4]]],
    ], ids=["self-crossing", "two-crossing", "tip-on-slit-left", "tip-on-slit-right",
            "collinear-overlap"])
    def test_slits_meeting_away_from_a_bend_are_rejected(self, slits):
        with pytest.raises(SpecError, match="meets itself or another slit"):
            build_domain({"kind": "slit-polygon", "params": {
                "vertices": SLIT_SQUARE_DOC["params"]["vertices"], "slits": slits}})

    def test_slit_meeting_itself_only_at_bends_builds(self, bent_slit_square):
        # a hook whose last segment runs beside the first: two right-angle
        # bends, corners 1/2 and 3/2 each, add 2 (1/16 - 5/144) = 1/18
        hook = build_domain({"kind": "slit-polygon", "params": {
            "vertices": SLIT_SQUARE_DOC["params"]["vertices"],
            "slits": [[[0.5, 0.0], [0.5, 0.5], [0.25, 0.5], [0.25, 0.25]]]}})
        assert geometric_coefficients(hook).a_0 == pytest.approx(
            5.0 / 16 + 1.0 / 18, abs=1e-12)
        assert geometric_coefficients(bent_slit_square).a_0 == pytest.approx(
            5.0 / 16 + 1.0 / 180, abs=1e-12)

    def test_invalid_specs_rejected(self):
        with pytest.raises(SpecError):
            build_domain({"kind": "pentagon", "params": {}})
        with pytest.raises(SpecError):
            build_domain({"kind": "rectangle", "params": {"a": -1.0, "b": 1.0}})
        with pytest.raises(SpecError):  # self-intersecting
            build_domain({"kind": "polygon", "params": {
                "vertices": [[0, 0], [1, 1], [1, 0], [0, 1]]}})
        with pytest.raises(SpecError):  # slit mouth floats in the interior
            build_domain({"kind": "slit-polygon", "params": {
                "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
                "slits": [[[0.5, 0.2], [0.5, 0.6]]]}})

    def test_containment(self, square, slit_square):
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [0.0, 0.0]])
        np.testing.assert_array_equal(square.contains(pts),
                                      [True, False, False])
        assert slit_square.contains(np.array([[0.25, 0.25]]))[0]

    def test_load_domain_with_field(self):
        doc = dict(SLIT_SQUARE_DOC)
        doc = {**doc, "sigma": "0.1*x"}
        dom, sigma = load_domain(doc)
        assert dom.kind == "slit-polygon"
        assert sigma(1.0, 0.0) == pytest.approx(0.1)


    def test_load_domain_from_open_file(self, tmp_path):
        path = tmp_path / "slit.json"
        path.write_text(json.dumps({**SLIT_SQUARE_DOC, "sigma": "0.1*x"}))
        with open(path) as fh:
            dom, sigma = load_domain(fh)
        assert dom.kind == "slit-polygon"
        assert dom.area == pytest.approx(1.0)
        assert sigma(1.0, 0.0) == pytest.approx(0.1)

    def test_clockwise_polygon_matches_counter_clockwise(self):
        ccw = build_domain(L_DOC)
        cw = build_domain({"kind": "polygon", "params": {
            "vertices": L_DOC["params"]["vertices"][::-1]}})
        assert cw.area == ccw.area == 3.0
        assert [(c.location, c.alpha) for c in cw.corners] == \
            [(c.location, c.alpha) for c in ccw.corners]
        sigma = ScalarField("0.3*x - 0.2*x*y")
        for metric, psi in ((None, None), (MetricSpec(sigma, 1.0), sigma)):
            a, b = (geometric_coefficients(d, metric, psi) for d in (cw, ccw))
            assert (a.a_m1, a.a_mhalf, a.a_0) == pytest.approx(
                (b.a_m1, b.a_mhalf, b.a_0), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("doc", [L_DOC, SLIT_SQUARE_DOC, BENT_SLIT_DOC],
                             ids=["polygon", "slit-polygon", "bent-slit"])
    def test_scaled_polygon(self, doc):
        r = 1.5
        dom = build_domain(doc)
        big = dom.scaled(r)
        assert big.kind == dom.kind
        assert big.area == pytest.approx(r ** 2 * dom.area, rel=1e-14)
        np.testing.assert_allclose(big.vertices, r * dom.vertices, rtol=1e-15)
        assert len(big.slits) == len(dom.slits)
        for small_slit, big_slit in zip(dom.slits, big.slits):
            np.testing.assert_allclose(big_slit, r * small_slit, rtol=1e-15)
        a, b = geometric_coefficients(dom), geometric_coefficients(big)
        assert b.a_m1 == pytest.approx(r ** 2 * a.a_m1, rel=1e-12)
        assert b.a_mhalf == pytest.approx(r * a.a_mhalf, rel=1e-12)
        assert b.a_0 == pytest.approx(a.a_0, abs=1e-12)


class TestIntegrals:
    def test_boundary_measures(self, square, disk):
        assert boundary_integral(square, lambda x, y, nx, ny, k: 1.0 + 0 * x) \
            == pytest.approx(4.0)
        assert boundary_integral(disk, lambda x, y, nx, ny, k: 1.0 + 0 * x) \
            == pytest.approx(2 * math.pi)
        # total geodesic curvature of the circle
        assert boundary_integral(disk, lambda x, y, nx, ny, k: k) \
            == pytest.approx(2 * math.pi)

    def test_divergence_theorem_normals(self, square, disk):
        for dom in (square, disk):
            flux = boundary_integral(dom, lambda x, y, nx, ny, k: x * nx + y * ny)
            assert flux == pytest.approx(2 * dom.area, abs=1e-9)

    def test_interior_closed_forms(self, square, disk):
        assert interior_integral(square, lambda x, y: x * y) == pytest.approx(0.25)
        assert interior_integral(disk, lambda x, y: 1.0 + 0 * x) \
            == pytest.approx(math.pi)
        assert interior_integral(disk, lambda x, y: x * x) \
            == pytest.approx(math.pi / 4)

    def test_polygon_interior_vs_riemann(self):
        verts = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
        dom = build_domain({"kind": "polygon", "params": {"vertices": verts}})
        got = interior_integral(dom, lambda x, y: np.exp(x - y))
        ref = riemann_interior(dom, lambda x, y: np.exp(x - y), n=1200)
        assert got == pytest.approx(ref, rel=1e-3)

    # A jump off every panel edge keeps the doubling from converging; each
    # rule then raises with its last value instead of returning it.
    @staticmethod
    def _step(x, y, *_):
        return (x > 1 / 3).astype(float)

    def test_tensor_rule_that_never_converges_raises(self, square):
        with pytest.raises(NumericalError) as info:
            interior_integral(square, self._step)
        assert info.value.stage == "interior_integral"
        assert info.value.best_estimate == pytest.approx(2 / 3, abs=1e-2)

    def test_triangle_rule_that_never_converges_raises(self):
        dom = build_domain({"kind": "polygon", "params": {
            "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}})
        with pytest.raises(NumericalError) as info:
            interior_integral(dom, self._step)
        assert info.value.stage == "interior_integral"
        assert info.value.best_estimate == pytest.approx(2 / 3, abs=1e-2)

    def test_boundary_rule_that_never_converges_raises(self, square):
        with pytest.raises(NumericalError) as info:
            boundary_integral(square, self._step)
        assert info.value.stage == "gauss_panels"


class TestGeometricCoefficients:
    def test_square_flat(self, square):
        c = geometric_coefficients(square)
        assert c.a_m1 == pytest.approx(1 / (4 * math.pi))
        assert c.a_mhalf == pytest.approx(-4 / (8 * math.sqrt(math.pi)))
        assert c.a_0 == pytest.approx(0.25)

    def test_disk_flat(self, disk):
        c = geometric_coefficients(disk)
        assert c.a_0 == pytest.approx(1.0 / 6, abs=1e-10)

    def test_sector_constant_term(self):
        for alpha in (0.5, 1.5, 3.0):
            c = geometric_coefficients(make_sector(alpha))
            expected = alpha / 12 + 1.0 / 8 + float(corner_term(alpha))
            assert c.a_0 == pytest.approx(expected, abs=1e-10)

    def test_slit_square_constant_term(self, slit_square):
        c = geometric_coefficients(slit_square)
        assert c.a_0 == pytest.approx(5.0 / 16, abs=1e-10)
        assert c.a_mhalf == pytest.approx(-5 / (8 * math.sqrt(math.pi)))

    def test_bent_slit_constant_term(self, bent_slit_square):
        # corners 3/4 and 5/4 at the bend add 7/288 - 3/160 = 1/180
        c = geometric_coefficients(bent_slit_square)
        assert c.a_0 == pytest.approx(5.0 / 16 + 1.0 / 180, abs=1e-12)

    def test_unit_weight_reproduces_measures(self, slit_square):
        c = geometric_coefficients(slit_square)
        assert c.a_m1 == pytest.approx(slit_square.area / (4 * math.pi))
        assert c.a_mhalf == pytest.approx(
            -slit_square.perimeter / (8 * math.sqrt(math.pi)))

    @settings(max_examples=15, deadline=None)
    @given(r=st.floats(0.3, 3.0))
    def test_dilation_scaling(self, square, r):
        base = geometric_coefficients(square)
        scaled = geometric_coefficients(square.scaled(r))
        assert scaled.a_m1 == pytest.approx(r ** 2 * base.a_m1, rel=1e-12)
        assert scaled.a_mhalf == pytest.approx(r * base.a_mhalf, rel=1e-12)
        assert scaled.a_0 == pytest.approx(base.a_0, rel=1e-12)

    def test_weighted_volume_vs_riemann(self, square):
        sigma = ScalarField("0.2*x*y")
        metric = MetricSpec(sigma, 1.0)
        c = geometric_coefficients(square, metric)
        vol = riemann_interior(square, lambda x, y: np.exp(0.4 * x * y), n=1000)
        assert c.a_m1 == pytest.approx(vol / (4 * math.pi), rel=1e-6)

    def test_weighted_a0_vs_riemann(self, square):
        sigma = ScalarField("0.1*(x**2 - y) + 0.05*x*y")
        u = 1.0
        c = geometric_coefficients(square, MetricSpec(sigma, u))
        # interior curvature density is u * (-(sigma_xx + sigma_yy)) = -0.2 u
        interior = -0.2 * u * square.area
        # boundary curvature shift: int u d_n sigma over the four edges,
        # with sigma_x = 0.2x + 0.05y and sigma_y = -0.1 + 0.05x
        xs = np.linspace(0, 1, 20001)
        dn = np.trapezoid(0.1 - 0.05 * xs, xs)       # bottom, n = (0,-1)
        dn += np.trapezoid(0.2 + 0.05 * xs, xs)      # right,  n = (1,0)
        dn += np.trapezoid(-0.1 + 0.05 * xs, xs)     # top,    n = (0,1)
        dn += np.trapezoid(-0.05 * xs, xs)           # left,   n = (-1,0)
        corners = sum(float(corner_term(c2.alpha)) for c2 in square.corners)
        expected = (interior + u * dn) / (12 * math.pi) + corners
        assert c.a_0 == pytest.approx(expected, abs=1e-8)
        # Gauss consistency: the two curvature pieces cancel exactly here
        assert interior + dn == pytest.approx(0.0, abs=1e-8)


class TestConformalTransform:
    """Vol_u = 4 pi a_{-1} and l_u = -8 sqrt(pi) a_{-1/2} of g_u."""

    def test_volume_and_length_vs_riemann(self, square):
        sigma = ScalarField("0.2*x*y")
        c = geometric_coefficients(square, MetricSpec(sigma, 1.0))
        vol = riemann_interior(square, lambda x, y: np.exp(0.4 * x * y), n=1000)
        assert 4 * math.pi * c.a_m1 == pytest.approx(vol, rel=1e-6)
        xs = np.linspace(0, 1, 200001)
        per = 2.0 + 2 * np.trapezoid(np.exp(0.2 * xs), xs)
        assert -8 * math.sqrt(math.pi) * c.a_mhalf == pytest.approx(per, rel=1e-8)

    def test_flat_limit(self, square):
        c = geometric_coefficients(square, MetricSpec(ScalarField("x*y"), 0.0))
        assert 4 * math.pi * c.a_m1 == pytest.approx(square.area)
        assert -8 * math.sqrt(math.pi) * c.a_mhalf == pytest.approx(square.perimeter)
        assert c.breakdown["interior_curvature"] == 0.0



def _segments(pairs):
    return [(p0.tolist(), p1.tolist()) for p0, p1 in pairs]


class TestRecordedFacts:
    """The slit segments, walls, arcs and sampling box each builder records."""

    SQUARE_EDGES = [([0.0, 0.0], [1.0, 0.0]), ([1.0, 0.0], [1.0, 1.0]),
                    ([1.0, 1.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, 0.0])]

    def test_slit_square(self, slit_square):
        slit = [([0.5, 0.0], [0.5, 0.5])]
        assert _segments(slit_square.slit_segments) == slit
        # four edge walls and one slit wall for the slit's two sides
        assert _segments(slit_square.walls) == self.SQUARE_EDGES + slit
        assert slit_square.arcs == []
        assert _segments([slit_square.box]) == [([0.0, 0.0], [1.0, 1.0])]
        assert slit_square.slit_clearance == 0.5

    def test_bent_slit(self, bent_slit_square):
        slit = [([0.5, 0.0], [0.5, 0.5]), ([0.5, 0.5], [0.25, 0.75])]
        assert _segments(bent_slit_square.slit_segments) == slit
        assert _segments(bent_slit_square.walls) == self.SQUARE_EDGES + slit
        assert bent_slit_square.slit_clearance == pytest.approx(
            math.sqrt(0.125), rel=1e-15)

    def test_rectangle_and_polygon(self, square):
        assert _segments(square.walls) == self.SQUARE_EDGES
        assert square.slit_segments == [] and square.slit_clearance == math.inf
        assert _segments([square.box]) == [([0.0, 0.0], [1.0, 1.0])]
        ell = build_domain(L_DOC)
        assert len(ell.walls) == 6
        assert _segments([ell.box]) == [([0.0, 0.0], [2.0, 2.0])]

    def test_disk(self, disk):
        assert disk.walls == []
        assert [(c.tolist(), r) for c, r in disk.arcs] == [([0.0, 0.0], 1.0)]
        assert _segments([disk.box]) == [([-1.0, -1.0], [2.0, 2.0])]

    @pytest.mark.parametrize("alpha, walls", [(0.5, 2), (1.5, 2), (2.0, 1)])
    def test_sector(self, alpha, walls):
        dom = make_sector(alpha, radius=2.0)
        # at alpha = 2 the two sides lie on one line: one wall
        assert len(dom.walls) == walls
        assert _segments(dom.walls[:1]) == [([0.0, 0.0], [2.0, 0.0])]
        assert [(c.tolist(), r) for c, r in dom.arcs] == [([0.0, 0.0], 2.0)]
        assert _segments([dom.box]) == [([-2.0, -2.0], [4.0, 4.0])]

    def test_cone_has_no_box(self):
        assert make_sector(3.0).box is None
