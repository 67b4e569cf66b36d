import math

import numpy as np
import pytest

from spectral_corner import (SpecError, WedgeBallQuery, a_remainder,
                             a_remainder_bound, wedge_ball_trace)

from .oracles import (halfplane_ball_trace, quarterplane_ball_trace,
                      sector_ball_trace)

ALPHAS = (0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)


class TestRemainderBounds:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_remainder_within_printed_bound(self, alpha):
        for eps in (0.5, 1.0):
            for t in (0.01, 0.05, 0.1):
                q = WedgeBallQuery(alpha, eps, t)
                assert abs(a_remainder(q)) <= a_remainder_bound(q) * (1 + 1e-12)

    def test_halfplane_remainder_vanishes(self):
        # the sin(pi/alpha) prefactor kills A(t) at alpha = 1 (up to roundoff
        # in sin(pi) itself)
        for t in (0.01, 0.1, 1.0):
            assert abs(a_remainder(WedgeBallQuery(1.0, 1.0, t))) < 1e-15

    def test_branch_continuity_at_two(self):
        for eps, t in ((0.5, 0.05), (1.0, 0.1)):
            vals = [a_remainder(WedgeBallQuery(a, eps, t))
                    for a in (2.0 - 1e-6, 2.0, 2.0 + 1e-6)]
            assert abs(vals[1] - vals[0]) < 1e-8
            assert abs(vals[2] - vals[1]) < 1e-8

    def test_branch_continuity_at_half(self):
        for eps, t in ((0.5, 0.05), (1.0, 0.1)):
            vals = [a_remainder(WedgeBallQuery(a, eps, t))
                    for a in (0.5 - 1e-6, 0.5, 0.5 + 1e-6)]
            assert abs(vals[1] - vals[0]) < 1e-8
            assert abs(vals[2] - vals[1]) < 1e-8

    @pytest.mark.parametrize("alpha", [1 / 4, 1 / 6])
    def test_image_on_the_contour_takes_half_weight(self, alpha):
        # at alpha = 1/(2K) the k = K image sits on the contour; without its
        # half weight A(alpha) jumps by (alpha/8) e^{-eps^2/t} >= 9e-7 here,
        # while the smooth second difference stays below 2e-11
        d = 1e-6
        for eps, t in ((0.5, 0.05), (1.0, 0.1), (1.0, 0.3)):
            q = WedgeBallQuery(alpha, eps, t)
            lo, mid, hi = (a_remainder(WedgeBallQuery(a, eps, t))
                           for a in (alpha - d, alpha, alpha + d))
            assert abs(lo - 2 * mid + hi) <= 1e-9
            assert abs(mid) <= a_remainder_bound(q) * (1 + 1e-12)

    def test_quarter_plane_remainder_is_the_half_weight_image(self):
        # at alpha = 1/2 the one image sits on the contour and A is exactly
        # -e^{-eps^2/t}/16; the general branch instead multiplies
        # sin(2 pi) ~ -2.4e-16 by a near-divergent integral (at (1, 0.01) it
        # gives -1.42e-45 for -2.33e-45)
        for eps in (0.5, 1.0):
            for t in (0.01, 0.05, 0.1, 0.3):
                got = a_remainder(WedgeBallQuery(0.5, eps, t))
                assert got == pytest.approx(-math.exp(-eps**2 / t) / 16,
                                            rel=1e-14, abs=0.0)

    def test_invalid_query(self):
        with pytest.raises(SpecError):
            WedgeBallQuery(0.0, 1.0, 0.1)
        with pytest.raises(SpecError):
            WedgeBallQuery(1.0, -1.0, 0.1)
        with pytest.raises(SpecError):
            WedgeBallQuery(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("slot", ["alpha", "eps", "t"])
    def test_non_finite_query_is_rejected(self, slot, bad):
        args = {"alpha": 1.0, "eps": 1.0, "t": 0.1} | {slot: bad}
        with pytest.raises(SpecError, match="finite"):
            WedgeBallQuery(**args)


class TestBallTrace:
    def test_halfplane_image_method(self):
        for eps, t in ((0.5, 0.02), (1.0, 0.05), (1.0, 0.1)):
            got = wedge_ball_trace(WedgeBallQuery(1.0, eps, t))
            ref = halfplane_ball_trace(eps, t)
            assert got == pytest.approx(ref, abs=1e-8)

    def test_quarterplane_image_method(self):
        for eps, t in ((0.5, 0.02), (1.0, 0.05), (1.0, 0.1)):
            got = wedge_ball_trace(WedgeBallQuery(0.5, eps, t))
            ref = quarterplane_ball_trace(eps, t)
            assert got == pytest.approx(ref, abs=1e-8)

    def test_cone_sector_against_mode_sum(self):
        got = wedge_ball_trace(WedgeBallQuery(3.0, 1.0, 0.02))
        ref = sector_ball_trace(3.0, 1.0, 0.02)
        assert got == pytest.approx(ref, abs=1e-4)
