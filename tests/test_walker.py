import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_corner import (SpecError, analytic_spectrum,
                             bridge_trace_estimate, trace_at)
from spectral_corner import walker

from . import oracles


class TestDeterminism:
    def test_same_seed_reproduces(self, square):
        a = bridge_trace_estimate(square, 0.1, 40000, steps=32, seed=7)
        b = bridge_trace_estimate(square, 0.1, 40000, steps=32, seed=7)
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr

    def test_different_seeds_differ(self, square):
        a = bridge_trace_estimate(square, 0.1, 20000, steps=32, seed=1)
        b = bridge_trace_estimate(square, 0.1, 20000, steps=32, seed=2)
        assert a.estimate != b.estimate

    def test_steps_round_up_to_power_of_two(self, square):
        a = bridge_trace_estimate(square, 0.1, 5000, steps=48, seed=0)
        b = bridge_trace_estimate(square, 0.1, 5000, steps=64, seed=0)
        assert a.steps == 64
        assert a.estimate == b.estimate

    @pytest.mark.parametrize("block", [7, walker._BATCH])
    def test_block_size_does_not_change_bits(self, slit_square, disk, block,
                                             monkeypatch):
        # 40000 paths span two batches, the second a partial one
        for dom in (slit_square, disk):
            ref = bridge_trace_estimate(dom, 0.05, 40000, steps=32, seed=5)
            monkeypatch.setattr(walker, "_BLOCK", block)
            got = bridge_trace_estimate(dom, 0.05, 40000, steps=32, seed=5)
            monkeypatch.undo()
            assert (got.estimate, got.stderr, got.survival) \
                == (ref.estimate, ref.stderr, ref.survival)


# Coordinates on a dyadic grid make the degenerate cases exact: knots on a
# slit line (orientation exactly 0), at a slit end, or on a wall.
_COORD = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                   st.floats(-1.5, 1.5))
_POINT = st.tuples(_COORD, _COORD)


def _planes(paths):
    xy = np.array(paths, dtype=float)
    return np.ascontiguousarray(xy[..., 0]), np.ascontiguousarray(xy[..., 1])


class TestKernels:
    @pytest.mark.parametrize("m, steps", [(1, 2), (5, 8), (300, 64)])
    def test_offsets_match_oracle(self, m, steps):
        def rng():
            return np.random.Generator(np.random.Philox(
                key=np.array([11, 2], dtype=np.uint64)))
        got = walker._bridge_offsets(rng(), m, steps, 0.05)
        assert got.tobytes() == oracles.bridge_offsets(rng(), m, steps,
                                                       0.05).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(pts=st.lists(_POINT, min_size=1, max_size=40),
           walls=st.lists(st.tuples(_POINT, _POINT).filter(
               lambda w: w[0] != w[1]), max_size=4),
           arcs=st.lists(st.tuples(_POINT, st.floats(0.1, 2.0)), max_size=2))
    def test_distance_matches_oracle(self, pts, walls, arcs):
        segs = [(np.array(p0), np.array(p1)) for p0, p1 in walls]
        arcs = [(np.array(c), r) for c, r in arcs]
        x, y = _planes(pts)
        got = walker._dist_to_boundary(x, y, segs, arcs)
        ref = oracles.dist_to_boundary(np.array(pts, dtype=float), segs, arcs)
        assert got.tobytes() == ref.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(paths=st.integers(2, 5).flatmap(lambda knots: st.lists(
               st.lists(_POINT, min_size=knots, max_size=knots),
               min_size=1, max_size=6)),
           b0=_POINT, b1=_POINT)
    # a vertical slit as in the slit square: a path along its line, one
    # through its tip, one touching its foot, one grazing a knot on it
    @example(paths=[[(0.5, 0.75), (0.5, 0.25), (0.5, -0.25)],
                    [(0.25, 0.5), (0.5, 0.5), (0.75, 0.5)],
                    [(0.25, 0.0), (0.75, 0.0), (0.75, 0.25)],
                    [(0.25, 0.25), (0.5, 0.25), (0.25, 0.5)],
                    [(0.25, 0.25), (0.5, 0.25), (0.75, 0.5)]],
             b0=(0.5, 0.0), b1=(0.5, 0.5))
    def test_slit_crossings_match_oracle(self, paths, b0, b1):
        b0, b1 = np.array(b0), np.array(b1)
        x, y = _planes(paths)
        hit = np.zeros(x.shape[0], dtype=bool)
        hit[walker._slit_crossings(x, y, b0, b1)] = True
        xy = np.array(paths, dtype=float)
        ref = oracles.segments_cross_many(xy[:, :-1], xy[:, 1:], b0, b1)
        assert hit.tolist() == ref.any(axis=1).tolist()

    @pytest.mark.parametrize("shift", [0.0, 2.0])
    def test_block_weights_match_oracle(self, slit_square, shift):
        # at t = 0.05 about half the paths leave the slit square; shifted by
        # 2 every path is dead
        t, m, steps = 0.05, 1000, 64
        rng = np.random.Generator(np.random.Philox(
            key=np.array([3, 0], dtype=np.uint64)))
        paths = walker._sample_interior(slit_square, rng, m)[:, None, :] \
            + walker._bridge_offsets(rng, m, steps, t) + shift
        segs, arcs = walker._boundary_geometry(slit_square)
        slit_segs = [(sl[0], sl[1]) for sl in slit_square.slits]
        xy = np.ascontiguousarray(paths.transpose(2, 0, 1))
        got = walker._block_weights(slit_square, xy, t / steps, segs, arcs,
                                    slit_segs)
        ref = oracles.block_weights(slit_square, paths, t / steps, segs, arcs,
                                    slit_segs)
        assert got.tobytes() == ref.tobytes()
        outside = ~slit_square.contains(paths.reshape(-1, 2)).reshape(
            m, steps + 1).all(axis=1)
        assert np.all(got[outside] == 0.0)
        if shift == 0.0:
            assert 0.2 * m < np.count_nonzero(outside) < 0.8 * m
            assert np.count_nonzero(got[~outside] == 0.0) > 0  # slit kills
            assert np.all(got[~outside] <= 1.0)
        else:
            assert outside.all()


class TestEstimates:
    def test_free_kernel_upper_bound(self, square, disk):
        for dom in (square, disk):
            for t in (0.05, 0.2):
                est = bridge_trace_estimate(dom, t, 5000, steps=32, seed=0)
                assert est.estimate <= dom.area / (4 * math.pi * t)
                assert 0.0 <= est.survival <= 1.0

    def test_square_matches_exact_trace(self, square):
        t = 0.1
        exact = trace_at(analytic_spectrum(square, 200), t)
        est = bridge_trace_estimate(square, t, 100000, steps=64, seed=0)
        assert abs(est.estimate - exact) < 4 * est.stderr

    def test_slit_inclusion_monotonicity(self, square, slit_square):
        # paired seeds: the slit domain is a subset, so its trace is smaller
        t = 0.05
        full = bridge_trace_estimate(square, t, 20000, steps=64, seed=3)
        slit = bridge_trace_estimate(slit_square, t, 20000, steps=64, seed=3)
        assert slit.estimate < full.estimate

    def test_step_halving_consistent(self, square):
        t = 0.1
        a = bridge_trace_estimate(square, t, 50000, steps=64, seed=0)
        b = bridge_trace_estimate(square, t, 50000, steps=128, seed=0)
        assert abs(a.estimate - b.estimate) \
            < 2 * math.hypot(a.stderr, b.stderr)


class TestPreconditions:
    def test_bad_arguments(self, square):
        with pytest.raises(SpecError):
            bridge_trace_estimate(square, 0.0, 100)
        with pytest.raises(SpecError):
            bridge_trace_estimate(square, 0.1, 0)
        with pytest.raises(SpecError):
            bridge_trace_estimate(square, 0.1, 100, steps=1)

    def test_coarse_steps_vs_slit_clearance(self, slit_square):
        with pytest.raises(SpecError, match="clearance"):
            bridge_trace_estimate(slit_square, 1.0, 100, steps=4)
